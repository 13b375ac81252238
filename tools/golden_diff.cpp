// Golden comparison for the paper-results pipeline.
//
// The paper_goldens_test ctest case regenerates every PAPER_*.json record
// with renoc_paper --smoke and runs this tool against the pinned copies
// under goldens/. Comparison rules live in util/json.hpp (diff_json):
// integer-token fields (counts, cycles, phases, flits) must match exactly,
// real-token fields (temperatures, penalties) within
// max(abs_tol, rel_tol * |golden|), and wall-clock keys ("ms", "*_ms") are
// ignored.
//
// Usage: renoc_golden_diff <golden.json> <candidate.json>
//                          [--abs-tol X] [--rel-tol Y]
// A tolerance must parse completely as a finite number >= 0: "5%",
// "banana" and "-1" are usage errors.
// Exit codes: 0 match, 1 diverged, 2 usage/IO/parse error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <golden.json> <candidate.json> "
               "[--abs-tol X] [--rel-tol Y]\n",
               argv0);
  return 2;
}

/// Parses all of `text` as a finite tolerance >= 0.
bool parse_tolerance(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(out) && out >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  renoc::JsonDiffOptions opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--abs-tol") == 0 && i + 1 < argc) {
      if (!parse_tolerance(argv[++i], opt.abs_tol)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--rel-tol") == 0 && i + 1 < argc) {
      if (!parse_tolerance(argv[++i], opt.rel_tol)) return usage(argv[0]);
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (paths.size() != 2) return usage(argv[0]);

  try {
    const renoc::JsonValue golden = renoc::parse_json_file(paths[0]);
    const renoc::JsonValue candidate = renoc::parse_json_file(paths[1]);
    const std::vector<std::string> diffs =
        renoc::diff_json(golden, candidate, opt);
    if (diffs.empty()) {
      std::printf("golden match: %s == %s (abs tol %g, rel tol %g)\n",
                  paths[1].c_str(), paths[0].c_str(), opt.abs_tol,
                  opt.rel_tol);
      return 0;
    }
    std::fprintf(stderr, "GOLDEN DIVERGENCE: %s vs %s (%zu difference%s)\n",
                 paths[1].c_str(), paths[0].c_str(), diffs.size(),
                 diffs.size() == 1 ? "" : "s");
    for (const std::string& d : diffs)
      std::fprintf(stderr, "  %s\n", d.c_str());
    std::fprintf(stderr,
                 "If the new values are intentional, refresh the golden:\n"
                 "  cp %s %s\n",
                 paths[1].c_str(), paths[0].c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "golden_diff: %s\n", e.what());
    return 2;
  }
}
