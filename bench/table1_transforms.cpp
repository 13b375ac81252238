// Table 1 of the paper: the transformation functions
//
//                  New X Coordinate   New Y Coordinate
//   Rotation       N-1-Y              X
//   X Mirroring    N-1-X              Y
//   X Translation  X + Offset         Y
//
// Prints the table, verifies the implementation against the closed-form
// row formulas exhaustively for N in {4, 5, 8}, and then microbenchmarks
// the migration unit the paper argues is "small, fast, and low power":
// per-address transformation cost, accumulated-map composition, and the
// I/O ingress/egress rewrites. Self-timing via bench_timing.hpp — no
// external benchmark framework.
//
// --smoke / --json: see bench/paper_bench.hpp; emits PAPER_table1.json.
// Timing fields carry the _ms suffix, so the golden diff checks only the
// formula-verification counts and the table text.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_timing.hpp"
#include "core/migration_unit.hpp"
#include "core/transform.hpp"
#include "paper_bench.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace renoc {
namespace {

// Keeps the measured loops from being optimized away.
volatile long long g_sink = 0;

int print_and_verify_table1() {
  Table t({"Function", "New X Coordinate", "New Y Coordinate"});
  t.set_title("Table 1 — Transformation Functions");
  t.add_row({"Rotation", "N-1-Y", "X"});
  t.add_row({"X Mirroring", "N-1-X", "Y"});
  t.add_row({"X Translation", "X + Offset", "Y"});
  t.print(std::cout);

  // Exhaustive check of the implementation against the closed forms.
  int checked = 0;
  for (int n : {4, 5, 8}) {
    const GridDim dim{n, n};
    for (int x = 0; x < n; ++x) {
      for (int y = 0; y < n; ++y) {
        const GridCoord c{x, y};
        const GridCoord rot =
            Transform{TransformKind::kRotation, 0}.apply(c, dim);
        RENOC_CHECK(rot.x == n - 1 - y && rot.y == x);
        const GridCoord mir =
            Transform{TransformKind::kMirrorX, 0}.apply(c, dim);
        RENOC_CHECK(mir.x == n - 1 - x && mir.y == y);
        for (int offset : {1, 2, 3}) {
          const GridCoord sh =
              Transform{TransformKind::kShiftX, offset}.apply(c, dim);
          RENOC_CHECK(sh.x == (x + offset) % n && sh.y == y);
          ++checked;
        }
        checked += 2;
      }
    }
  }
  std::printf("\nverified Table 1 formulas on %d coordinate cases "
              "(N in {4,5,8})\n\n",
              checked);
  return checked;
}

struct MicroRow {
  std::string name;
  long long ops = 0;
  double batch_ms = 0.0;
};

// "only 3-bit operands are required to address up to 64 PEs, resulting in
// fast operation" — the software equivalent is a handful of adds.
MicroRow time_transform_apply(TransformKind kind, double budget_ms) {
  const GridDim dim{8, 8};
  const Transform t{kind, 1};
  constexpr long long kOps = 1 << 16;
  MicroRow row{std::string("apply/") + to_string(kind), kOps, 0.0};
  row.batch_ms = bench::time_ms(budget_ms, [&] {
    long long acc = 0;
    for (long long i = 0; i < kOps; ++i) {
      const GridCoord c{static_cast<int>(i) & 7,
                        (static_cast<int>(i) >> 3) & 7};
      const GridCoord out = t.apply(c, dim);
      acc += out.x + out.y;
    }
    g_sink = acc;
  });
  return row;
}

MicroRow time_permutation_build(int n, double budget_ms) {
  const GridDim dim{n, n};
  const Transform t{TransformKind::kRotation, 0};
  constexpr long long kOps = 1 << 10;
  MicroRow row{"permutation/N=" + std::to_string(n), kOps, 0.0};
  row.batch_ms = bench::time_ms(budget_ms, [&] {
    long long acc = 0;
    for (long long i = 0; i < kOps; ++i) acc += t.permutation(dim).back();
    g_sink = acc;
  });
  return row;
}

MicroRow time_translator_compose(double budget_ms) {
  const GridDim dim{8, 8};
  AddressTranslator tr(dim);
  const Transform t{TransformKind::kRotation, 0};
  constexpr long long kOps = 1 << 12;
  MicroRow row{"translator-compose", kOps, 0.0};
  row.batch_ms = bench::time_ms(budget_ms, [&] {
    long long acc = 0;
    for (long long i = 0; i < kOps; ++i) {
      tr.apply(t);
      acc += tr.map().back();
    }
    g_sink = acc;
  });
  return row;
}

MicroRow time_ingress_rewrite(double budget_ms) {
  const GridDim dim{8, 8};
  AddressTranslator tr(dim);
  tr.apply(Transform{TransformKind::kShiftXY, 1});
  constexpr long long kOps = 1 << 16;
  MicroRow row{"ingress-rewrite", kOps, 0.0};
  row.batch_ms = bench::time_ms(budget_ms, [&] {
    Message msg;
    long long acc = 0;
    for (long long i = 0; i < kOps; ++i) {
      msg.dst = static_cast<int>(i) & 63;
      tr.rewrite_ingress(msg);
      acc += msg.dst;
    }
    g_sink = acc;
  });
  return row;
}

int run(const bench::PaperArgs& args) {
  const int checked = print_and_verify_table1();

  const double budget_ms = args.smoke ? 20.0 : 200.0;
  std::vector<MicroRow> rows;
  for (TransformKind kind : {TransformKind::kRotation, TransformKind::kMirrorX,
                             TransformKind::kShiftX})
    rows.push_back(time_transform_apply(kind, budget_ms));
  for (int n : {4, 5, 8}) rows.push_back(time_permutation_build(n, budget_ms));
  rows.push_back(time_translator_compose(budget_ms));
  rows.push_back(time_ingress_rewrite(budget_ms));

  Table micro({"Operation", "Ops/batch", "Batch (ms)", "ns/op"});
  micro.set_title("Migration-unit microbenchmarks (best-of-N batches)");
  for (const MicroRow& r : rows)
    micro.add_row({r.name, std::to_string(r.ops), Table::num(r.batch_ms, 3),
                   Table::num(r.batch_ms * 1e6 / static_cast<double>(r.ops),
                              2)});
  micro.print(std::cout);

  AtomicFile json_file(args.json_path);
  JsonWriter json(json_file.stream());
  json.begin_object();
  json.key("bench").string("table1_transforms");
  json.key("smoke").boolean(args.smoke);
  json.key("verified_cases").integer(checked);
  json.key("rows").begin_array();
  for (const char* name : {"Rotation", "X Mirroring", "X Translation"})
    json.string(name);
  json.end_array();
  json.key("micro").begin_array();
  for (const MicroRow& r : rows) {
    json.begin_object();
    json.key("name").string(r.name);
    json.key("ops").integer(r.ops);
    json.key("batch_ms").real(r.batch_ms);
    json.key("per_op_ms").real(r.batch_ms / static_cast<double>(r.ops));
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json_file.commit();
  std::cout << "\nwrote " << args.json_path << "\n";
  return 0;
}

}  // namespace
}  // namespace renoc

int main(int argc, char** argv) {
  renoc::bench::PaperArgs args;
  if (const int rc = renoc::bench::parse_paper_args(argc, argv,
                                                    "PAPER_table1.json", args))
    return rc;
  return renoc::run(args);
}
