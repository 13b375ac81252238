// Tests for the migration machinery: the I/O address translator
// (transparency), the congestion-free phase scheduler (disjointness,
// coverage, determinism), and the migration controller on a live fabric.
#include <gtest/gtest.h>

#include <set>

#include "core/migration_controller.hpp"
#include "core/migration_unit.hpp"
#include "core/phase_scheduler.hpp"
#include "core/transform.hpp"
#include "noc/fabric.hpp"
#include "support/helpers.hpp"
#include "util/check.hpp"

namespace renoc {
namespace {

NocConfig mesh(int side) {
  NocConfig cfg;
  cfg.dim = GridDim{side, side};
  return cfg;
}

// ---------------------------------------------------------------- unit --

TEST(AddressTranslatorTest, IdentityInitially) {
  const AddressTranslator tr(GridDim{4, 4});
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(tr.logical_to_physical(i), i);
    EXPECT_EQ(tr.physical_to_logical(i), i);
  }
}

TEST(AddressTranslatorTest, TracksAccumulatedTransforms) {
  const GridDim dim{4, 4};
  AddressTranslator tr(dim);
  const Transform rot{TransformKind::kRotation, 0};
  tr.apply(rot);
  // Workload of logical tile (x,y) is now at rot(x,y).
  for (int i = 0; i < 16; ++i) {
    const GridCoord logical = index_to_coord(i, dim);
    const GridCoord physical = rot.apply(logical, dim);
    EXPECT_EQ(tr.logical_to_physical(i), coord_to_index(physical, dim));
  }
  // Inverse maps agree.
  for (int p = 0; p < 16; ++p)
    EXPECT_EQ(tr.logical_to_physical(tr.physical_to_logical(p)), p);
}

TEST(AddressTranslatorTest, FourRotationsRoundTrip) {
  AddressTranslator tr(GridDim{5, 5});
  const Transform rot{TransformKind::kRotation, 0};
  for (int k = 0; k < 4; ++k) tr.apply(rot);
  for (int i = 0; i < 25; ++i) EXPECT_EQ(tr.logical_to_physical(i), i);
  EXPECT_EQ(tr.migrations_applied(), 4);
}

TEST(AddressTranslatorTest, MixedTransformHistory) {
  // Migration functions can change at runtime (Section 2.3); the unit must
  // compose arbitrary histories correctly.
  const GridDim dim{4, 4};
  AddressTranslator tr(dim);
  const Transform rot{TransformKind::kRotation, 0};
  const Transform shift{TransformKind::kShiftX, 1};
  const Transform mir{TransformKind::kMirrorXY, 0};
  tr.apply(rot);
  tr.apply(shift);
  tr.apply(mir);
  for (int i = 0; i < 16; ++i) {
    GridCoord c = index_to_coord(i, dim);
    c = rot.apply(c, dim);
    c = shift.apply(c, dim);
    c = mir.apply(c, dim);
    EXPECT_EQ(tr.logical_to_physical(i), coord_to_index(c, dim));
  }
}

TEST(AddressTranslatorTest, MessageRewrites) {
  AddressTranslator tr(GridDim{4, 4});
  tr.apply(Transform{TransformKind::kShiftX, 1});
  Message in;
  in.src = 99;  // external host id, untouched
  in.dst = 0;   // logical PE 0 now lives at tile 1
  tr.rewrite_ingress(in);
  EXPECT_EQ(in.dst, 1);
  Message out;
  out.src = 1;  // physical tile 1 hosts logical PE 0
  out.dst = 99;
  tr.rewrite_egress(out);
  EXPECT_EQ(out.src, 0);
}

// ----------------------------------------------------------- scheduler --

std::vector<MigrationMove> moves_for(const Transform& t, const GridDim& dim,
                                     int words) {
  const std::vector<int> perm = t.permutation(dim);
  std::vector<MigrationMove> moves;
  for (int i = 0; i < dim.node_count(); ++i)
    moves.push_back({i, perm[static_cast<std::size_t>(i)], words});
  return moves;
}

class PhaseSchedulerTest
    : public ::testing::TestWithParam<std::pair<TransformKind, int>> {};

TEST_P(PhaseSchedulerTest, PhasesAreDisjointAndCoverAllMoves) {
  const auto [kind, side] = GetParam();
  const GridDim dim{side, side};
  const Transform t{kind, 1};
  const auto moves = moves_for(t, dim, 32);
  const auto phases = schedule_phases(moves, dim);

  std::multiset<std::pair<int, int>> scheduled;
  for (const MigrationPhase& phase : phases) {
    EXPECT_TRUE(phase_is_link_disjoint(phase, dim));
    EXPECT_FALSE(phase.moves.empty());
    for (const MigrationMove& mv : phase.moves)
      scheduled.insert({mv.src_tile, mv.dst_tile});
  }
  // Every non-fixed-point move appears exactly once.
  int expected = 0;
  for (const MigrationMove& mv : moves)
    if (mv.src_tile != mv.dst_tile) ++expected;
  EXPECT_EQ(static_cast<int>(scheduled.size()), expected);
  for (const MigrationMove& mv : moves) {
    if (mv.src_tile == mv.dst_tile) continue;
    EXPECT_EQ(scheduled.count({mv.src_tile, mv.dst_tile}), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TransformsAndSizes, PhaseSchedulerTest,
    ::testing::Values(std::pair{TransformKind::kRotation, 4},
                      std::pair{TransformKind::kRotation, 5},
                      std::pair{TransformKind::kMirrorX, 4},
                      std::pair{TransformKind::kMirrorX, 5},
                      std::pair{TransformKind::kMirrorXY, 5},
                      std::pair{TransformKind::kShiftX, 4},
                      std::pair{TransformKind::kShiftX, 5},
                      std::pair{TransformKind::kShiftXY, 5},
                      std::pair{TransformKind::kShiftXY, 6}));

TEST(PhaseSchedulerTest, ShiftNeedsOnePhase) {
  // A unit right-shift's paths are row-internal single hops except the
  // wrap-around move, whose long return path shares row links — so the
  // scheduler needs exactly two phases per row pattern.
  const GridDim dim{4, 4};
  const auto moves =
      moves_for(Transform{TransformKind::kShiftX, 1}, dim, 8);
  const auto phases = schedule_phases(moves, dim);
  EXPECT_LE(phases.size(), 2u);
}

TEST(PhaseSchedulerTest, SelfMovesDropped) {
  const GridDim dim{5, 5};
  const auto moves =
      moves_for(Transform{TransformKind::kMirrorXY, 0}, dim, 8);
  const auto phases = schedule_phases(moves, dim);
  for (const auto& phase : phases)
    for (const auto& mv : phase.moves)
      EXPECT_NE(mv.src_tile, mv.dst_tile);  // center PE stays put
}

TEST(PhaseSchedulerTest, DeterministicSchedules) {
  const GridDim dim{5, 5};
  const auto moves = moves_for(Transform{TransformKind::kRotation, 0}, dim, 16);
  const auto a = schedule_phases(moves, dim);
  const auto b = schedule_phases(moves, dim);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].moves.size(), b[i].moves.size());
    for (std::size_t j = 0; j < a[i].moves.size(); ++j) {
      EXPECT_EQ(a[i].moves[j].src_tile, b[i].moves[j].src_tile);
      EXPECT_EQ(a[i].moves[j].dst_tile, b[i].moves[j].dst_tile);
    }
  }
}

TEST(PhaseSchedulerTest, DurationBoundGrowsWithStateSize) {
  const GridDim dim{4, 4};
  const auto small =
      schedule_phases(moves_for(Transform{TransformKind::kRotation, 0}, dim, 8),
                      dim);
  const auto large =
      schedule_phases(moves_for(Transform{TransformKind::kRotation, 0}, dim, 64),
                      dim);
  EXPECT_GT(phase_duration_cycles(large[0], dim),
            phase_duration_cycles(small[0], dim));
}

// ----------------------------------------------------------- controller --

TEST(MigrationControllerTest, MovesStateAndUpdatesPlacement) {
  Fabric fabric(mesh(4));
  MigrationController controller(fabric,
                                 Transform{TransformKind::kRotation, 0});
  std::vector<int> placement = identity_permutation(16);
  const std::vector<int> words(16, 24);
  const MigrationReport rep = controller.migrate(placement, words);

  EXPECT_EQ(rep.moves, 16);
  EXPECT_EQ(rep.state_flits, 16u * 24u);
  EXPECT_GT(rep.phases, 0);
  EXPECT_GT(rep.total_cycles, 0u);
  // Placement now equals the rotation permutation.
  const auto perm =
      Transform{TransformKind::kRotation, 0}.permutation(GridDim{4, 4});
  EXPECT_EQ(placement, perm);
  // Translator agrees.
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(controller.translator().logical_to_physical(i),
              perm[static_cast<std::size_t>(i)]);
  // Fabric is clean afterwards and injection re-enabled.
  EXPECT_TRUE(fabric.idle());
  for (int n = 0; n < 16; ++n) EXPECT_TRUE(fabric.injection_enabled(n));
}

TEST(MigrationControllerTest, DeterministicMigrationTime) {
  // "This congestion-free operation allows for deterministic migration
  // times" — identical migrations must take identical cycle counts.
  auto run_once = [] {
    Fabric fabric(mesh(5));
    MigrationController controller(fabric,
                                   Transform{TransformKind::kShiftXY, 1});
    std::vector<int> placement = identity_permutation(25);
    const std::vector<int> words(25, 40);
    return controller.migrate(placement, words).total_cycles;
  };
  const Cycle a = run_once();
  const Cycle b = run_once();
  EXPECT_EQ(a, b);
}

TEST(MigrationControllerTest, SimulatedTimeWithinAnalyticBound) {
  Fabric fabric(mesh(4));
  const Transform t{TransformKind::kRotation, 0};
  MigrationController controller(fabric, t);
  std::vector<int> placement = identity_permutation(16);
  const int words = 32;
  const std::vector<int> words_v(16, words);

  std::vector<MigrationMove> moves;
  const auto perm = t.permutation(GridDim{4, 4});
  for (int i = 0; i < 16; ++i)
    moves.push_back({i, perm[static_cast<std::size_t>(i)], words});
  const auto phases = schedule_phases(moves, GridDim{4, 4});
  int bound = 0;
  for (const auto& phase : phases)
    bound += phase_duration_cycles(phase, GridDim{4, 4});

  const MigrationReport rep = controller.migrate(placement, words_v);
  EXPECT_LE(rep.transfer_cycles, static_cast<Cycle>(bound))
      << "congestion-free phases must meet their analytic bound";
}

TEST(MigrationControllerTest, MirrorTwiceRestoresPlacement) {
  Fabric fabric(mesh(5));
  MigrationController controller(fabric,
                                 Transform{TransformKind::kMirrorXY, 0});
  std::vector<int> placement = identity_permutation(25);
  const std::vector<int> words(25, 16);
  controller.migrate(placement, words);
  EXPECT_NE(placement, identity_permutation(25));
  controller.migrate(placement, words);
  EXPECT_EQ(placement, identity_permutation(25));
}

TEST(MigrationControllerTest, UnreadDeliveryFailsBeforeAnyStateMoves) {
  // An application message left unread at tile 5 would meet a state packet
  // there. The migration fails before any state moves, with the PEs
  // resumed: every NI injects again, the message is still the one unread
  // delivery, and nothing is committed.
  Fabric fabric(mesh(4));
  Message app;
  app.src = 0;
  app.dst = 5;
  app.tag = 42;
  app.payload = {7, 8};
  fabric.send(app);
  fabric.drain();
  ASSERT_EQ(fabric.unread_deliveries(), 1);

  MigrationController controller(fabric,
                                 Transform{TransformKind::kRotation, 0});
  std::vector<int> placement = identity_permutation(16);
  EXPECT_THROW(controller.migrate(placement, std::vector<int>(16, 8)),
               CheckError);
  int enabled = 0;
  for (int n = 0; n < fabric.node_count(); ++n)
    enabled += fabric.injection_enabled(n) ? 1 : 0;
  EXPECT_EQ(enabled, 16);
  EXPECT_EQ(fabric.stats().packets_delivered(), 1u);
  ASSERT_EQ(fabric.unread_deliveries(), 1);
  const auto got = fabric.try_receive(5);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->src, 0);
  EXPECT_EQ(got->tag, 42u);
  EXPECT_EQ(got->payload, app.payload);
  EXPECT_EQ(placement, identity_permutation(16));
  EXPECT_EQ(controller.migrations(), 0);
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(controller.translator().logical_to_physical(i), i);
}

TEST(MigrationControllerTest, CountsConversionActivity) {
  Fabric fabric(mesh(4));
  MigrationController controller(fabric,
                                 Transform{TransformKind::kShiftX, 1});
  std::vector<int> placement = identity_permutation(16);
  const std::vector<int> words(16, 10);
  controller.migrate(placement, words);
  std::uint64_t conversions = 0;
  for (int t = 0; t < 16; ++t)
    conversions += fabric.stats().tile(t).pe_state_words;
  EXPECT_EQ(conversions, 160u);
}

}  // namespace
}  // namespace renoc
