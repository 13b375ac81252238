#include "core/migration_controller.hpp"

#include "util/check.hpp"

namespace renoc {
namespace {

// Distinct from any workload tag: high bit set.
constexpr std::uint64_t kMigrationTag = 0x8000000000000000ULL;

// Control overhead of one migration, in cycles: halt time without switching
// energy. Each phase quiesces its group and commits the transformed
// configuration; the migration ends with one global restart handshake.
constexpr int kPhaseBarrierCycles = 70;
constexpr int kResumeSyncCycles = 100;

}  // namespace

MigrationController::MigrationController(Fabric& fabric, Transform transform)
    : fabric_(&fabric),
      transform_(transform),
      translator_(fabric.config().dim) {}

MigrationReport MigrationController::migrate(
    std::vector<int>& placement, const std::vector<int>& state_words) {
  RENOC_CHECK(placement.size() == state_words.size());
  const GridDim dim = fabric_->config().dim;
  const std::vector<int> perm = transform_.permutation(dim);

  MigrationReport report;
  const Cycle start = fabric_->now();

  // 1. Halt: stop injection everywhere and let in-flight traffic land.
  for (int n = 0; n < fabric_->node_count(); ++n)
    fabric_->set_injection_enabled(n, false);
  while (!fabric_->idle()) {
    fabric_->step();
    RENOC_CHECK_MSG(fabric_->now() - start < 10'000'000,
                    "fabric failed to drain before migration");
  }
  // A delivery the workload has not collected would meet the state packets
  // at their destinations. Fail before any state moves, with the PEs
  // resumed where they were and the delivery left for the workload.
  if (fabric_->unread_deliveries() > 0) {
    for (int n = 0; n < fabric_->node_count(); ++n)
      fabric_->set_injection_enabled(n, true);
    RENOC_FAIL("unexpected traffic during migration ("
               << fabric_->unread_deliveries()
               << " unread deliveries after the halt)");
  }

  // 2. Build the move set: every cluster's state goes from its tile to the
  //    transformed tile.
  std::vector<MigrationMove> moves;
  for (std::size_t c = 0; c < placement.size(); ++c) {
    MigrationMove mv;
    mv.src_tile = placement[c];
    mv.dst_tile = perm[static_cast<std::size_t>(placement[c])];
    mv.state_words = state_words[c];
    moves.push_back(mv);
  }
  const std::vector<MigrationPhase> phases = schedule_phases(moves, dim);

  // 3. Execute each phase: conversion (counted at the source), one state
  //    packet per move, run to empty. Phase boundaries are barriers —
  //    that is what keeps every phase congestion-free.
  Cycle pure_transfer = 0;
  for (const MigrationPhase& phase : phases) {
    const Cycle phase_start = fabric_->now();
    for (const MigrationMove& mv : phase.moves) {
      // Conversion unit: transforms config/state before transmission.
      fabric_->stats().tile(mv.src_tile).pe_state_words +=
          static_cast<std::uint64_t>(mv.state_words);
      Message msg = fabric_->acquire_message();
      msg.src = mv.src_tile;
      msg.dst = mv.dst_tile;
      msg.tag = kMigrationTag;
      msg.payload.assign(static_cast<std::size_t>(
                             std::max(1, mv.state_words)),
                         0xdead57a7eULL);
      fabric_->send(std::move(msg));
      ++report.moves;
      report.state_flits +=
          static_cast<std::uint64_t>(std::max(1, mv.state_words));
    }
    // Migration packets must be injectable: re-enable only source tiles.
    for (const MigrationMove& mv : phase.moves)
      fabric_->set_injection_enabled(mv.src_tile, true);
    while (!fabric_->idle()) {
      fabric_->step();
      RENOC_CHECK_MSG(fabric_->now() - phase_start < 10'000'000,
                      "migration phase failed to complete");
    }
    for (const MigrationMove& mv : phase.moves)
      fabric_->set_injection_enabled(mv.src_tile, false);
    // Consume the state packets at their destinations. A missing one
    // fails the migration only after the phase's other packets are
    // consumed and the PEs resume on their old tiles, so a caller that
    // handles the error finds a running fabric and the old placement.
    int missing = 0;
    for (const MigrationMove& mv : phase.moves) {
      auto msg = fabric_->try_receive(mv.dst_tile);
      if (!msg.has_value()) {
        ++missing;
        continue;
      }
      RENOC_CHECK_MSG(msg->tag == kMigrationTag,
                      "unexpected traffic during migration");
      fabric_->recycle(std::move(*msg));
    }
    if (missing > 0) {
      for (int n = 0; n < fabric_->node_count(); ++n)
        fabric_->set_injection_enabled(n, true);
      RENOC_FAIL("state packet missing at destination ("
                 << missing << " of " << phase.moves.size() << " in the phase)");
    }
    pure_transfer += fabric_->now() - phase_start;
    // Phase barrier: quiesce detection and configuration commit for this
    // group before the next group starts (control time, no traffic).
    fabric_->run(kPhaseBarrierCycles);
  }
  report.transfer_cycles = pure_transfer;
  report.phases = static_cast<int>(phases.size());

  // 4. Compose the transform into the I/O translator and re-home clusters.
  translator_.apply(transform_);
  for (std::size_t c = 0; c < placement.size(); ++c)
    placement[c] = perm[static_cast<std::size_t>(placement[c])];

  // 5. Resume: global restart handshake, then re-enable injection.
  fabric_->run(kResumeSyncCycles);
  for (int n = 0; n < fabric_->node_count(); ++n)
    fabric_->set_injection_enabled(n, true);

  report.total_cycles = fabric_->now() - start;
  return report;
}

}  // namespace renoc
