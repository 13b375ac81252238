// Table 1 of the paper: the transformation functions
//
//                  New X Coordinate   New Y Coordinate
//   Rotation       N-1-Y              X
//   X Mirroring    N-1-X              Y
//   X Translation  X + Offset         Y
//
// Prints the table and verifies the implementation against the
// closed-form row formulas exhaustively for N in {4, 5, 8}. The paper's
// claim that the migration unit is "small, fast, and low power" is about
// hardware; host nanoseconds say nothing about it, so nothing is timed.
//
// --smoke / --json: see bench/paper_bench.hpp; emits PAPER_table1.json
// with the formula-verification count and the row names.
#include <cstdio>
#include <iostream>

#include "core/transform.hpp"
#include "paper_bench.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace renoc {
namespace {

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

int run(const bench::PaperArgs& args) {
  const int checked = print_and_verify_table1();

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
