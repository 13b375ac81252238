// renoc_lint rule engine tests.
//
// Every rule is exercised both ways: a bad fixture that must fire (with
// the expected rule id and line) and a good fixture that must stay quiet.
// Fixtures are in-memory strings passed to lint_source() with synthetic
// repo-relative paths, so path-scoped rules (src-only, engine-dir-only)
// are covered without touching the filesystem; one lint_tree() test runs
// the real directory walk in a temp tree.
//
// All fixture text lives in raw string literals: when renoc_lint scans
// this file itself, string literals are blanked, so the deliberately bad
// snippets below cannot trip the real tree lint.
#include "lint_core.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace renoc::lint {
namespace {

std::vector<std::string> rules_of(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  for (const Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

// --- split_source ----------------------------------------------------------

TEST(SplitSourceTest, PreservesLineStructure) {
  const std::string src = "int a; // note\n/* b\nlines */ int c;\n";
  const SplitSource split = split_source(src);
  EXPECT_EQ(split.code.size(), src.size());
  EXPECT_EQ(split.comments.size(), src.size());
  EXPECT_EQ(std::count(split.code.begin(), split.code.end(), '\n'), 3);
  EXPECT_EQ(std::count(split.comments.begin(), split.comments.end(), '\n'),
            3);
}

TEST(SplitSourceTest, RoutesCommentTextAndBlanksStrings) {
  const SplitSource split =
      split_source("x = \"new int\"; // grow here\nchar c = '%';\n");
  EXPECT_EQ(split.code.find("new"), std::string::npos);
  EXPECT_EQ(split.code.find("grow"), std::string::npos);
  EXPECT_NE(split.comments.find("grow here"), std::string::npos);
  EXPECT_EQ(split.code.find('%'), std::string::npos);
  EXPECT_NE(split.code.find("x ="), std::string::npos);
}

TEST(SplitSourceTest, HandlesRawStringsAndDigitSeparators) {
  const SplitSource split = split_source(
      "auto s = R\"(malloc( // not a comment)\";\nint n = 1'000'000;\n");
  EXPECT_EQ(split.code.find("malloc"), std::string::npos);
  EXPECT_EQ(split.comments.find("not a comment"), std::string::npos);
  EXPECT_NE(split.code.find("1'000'000"), std::string::npos);
}

// --- hot-alloc + hot-region ------------------------------------------------

TEST(HotAllocTest, FiresOnNewAndContainerGrowth) {
  const std::string src = R"cpp(void f(std::vector<int>& v) {
  // renoc-hot-begin
  int* p = new int[4];
  v.push_back(1);
  // renoc-hot-end
  v.push_back(2);
}
)cpp";
  const auto findings = lint_source("src/noc/hotpath.cpp", src);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "hot-alloc");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("new"), std::string::npos);
  EXPECT_EQ(findings[1].rule, "hot-alloc");
  EXPECT_EQ(findings[1].line, 4);  // line 6's push_back is outside the region
}

TEST(HotAllocTest, IgnoresStringsCommentsAndIdentifierSubstrings) {
  const std::string src = R"cpp(void f(Thing& renewal) {
  // renoc-hot-begin
  log("calling new here");  // mentions malloc( too
  renewal.renew_all();
  int news_count = 0;
  // renoc-hot-end
}
)cpp";
  EXPECT_TRUE(lint_source("src/noc/hotpath.cpp", src).empty());
}

TEST(HotAllocTest, SuppressedOnlyWithJustification) {
  const std::string good = R"cpp(void f(std::vector<int>& v) {
  // renoc-hot-begin
  v.push_back(1);  // renoc-lint-allow(hot-alloc): capacity reserved in ctor
  // renoc-hot-end
}
)cpp";
  EXPECT_TRUE(lint_source("src/noc/hotpath.cpp", good).empty());

  const std::string bare = R"cpp(void f(std::vector<int>& v) {
  // renoc-hot-begin
  v.push_back(1);  // renoc-lint-allow(hot-alloc)
  // renoc-hot-end
}
)cpp";
  const auto findings = lint_source("src/noc/hotpath.cpp", bare);
  ASSERT_EQ(findings.size(), 2u);  // malformed marker AND unsuppressed rule
  EXPECT_EQ(findings[0].rule, "bad-allow");
  EXPECT_EQ(findings[1].rule, "hot-alloc");
}

TEST(HotAllocTest, StandaloneAllowCommentCoversTheNextLine) {
  const std::string good = R"cpp(void f(std::vector<int>& v) {
  // renoc-hot-begin
  // renoc-lint-allow(hot-alloc): capacity reserved in the constructor
  v.push_back(1);
  // renoc-hot-end
}
)cpp";
  EXPECT_TRUE(lint_source("src/noc/hotpath.cpp", good).empty());

  // Trailing a code line, the suppression does NOT leak onto the next one.
  const std::string leak = R"cpp(void f(std::vector<int>& v) {
  // renoc-hot-begin
  v.push_back(1);  // renoc-lint-allow(hot-alloc): reserved in ctor
  v.push_back(2);
  // renoc-hot-end
}
)cpp";
  const auto findings = lint_source("src/noc/hotpath.cpp", leak);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "hot-alloc");
  EXPECT_EQ(findings[0].line, 4);
}

TEST(HotRegionTest, ReportsUnbalancedMarkers) {
  const auto stray =
      lint_source("src/noc/a.cpp", "int x;\n// renoc-hot-end\n");
  ASSERT_EQ(stray.size(), 1u);
  EXPECT_EQ(stray[0].rule, "hot-region");
  EXPECT_EQ(stray[0].line, 2);

  const auto open =
      lint_source("src/noc/a.cpp", "// renoc-hot-begin\nint x;\n");
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0].rule, "hot-region");
  EXPECT_EQ(open[0].line, 1);

  const auto nested = lint_source(
      "src/noc/a.cpp",
      "// renoc-hot-begin\n// renoc-hot-begin\n// renoc-hot-end\n");
  ASSERT_EQ(nested.size(), 1u);
  EXPECT_EQ(nested[0].rule, "hot-region");
  EXPECT_EQ(nested[0].line, 2);
}

TEST(HotRegionTest, UnknownRuleInAllowMarkerIsReported) {
  const auto findings = lint_source(
      "src/noc/a.cpp", "int x;  // renoc-lint-allow(no-such-rule): why\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "bad-allow");
}

// --- raw-random ------------------------------------------------------------

TEST(RawRandomTest, FiresOnlyInSrcOutsideUtilRng) {
  const std::string src = R"cpp(int f() {
  std::srand(42);
  std::random_device rd;
  return rand() + static_cast<int>(time(nullptr));
}
)cpp";
  const auto findings = lint_source("src/core/experiment.cpp", src);
  EXPECT_EQ(rules_of(findings),
            (std::vector<std::string>{"raw-random", "raw-random",
                                      "raw-random"}));
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].line, 3);
  EXPECT_EQ(findings[2].line, 4);

  EXPECT_TRUE(lint_source("bench/period_sweep.cpp", src).empty());
  EXPECT_TRUE(lint_source("src/util/rng.cpp", src).empty());
}

TEST(RawRandomTest, WordBoundariesAvoidFalsePositives) {
  const std::string src = R"cpp(double g() {
  const double t = time_ms(budget, op);
  return strand(7) + lifetime(3);
}
)cpp";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

// --- ring-modulo -----------------------------------------------------------

TEST(RingModuloTest, FiresOnCursorWrapByModulo) {
  const std::string src = R"cpp(void push() {
  head = (head + 1) % cap;
  slot = index % dim.width;
}
)cpp";
  const auto findings = lint_source("src/noc/ring.cpp", src);
  ASSERT_EQ(findings.size(), 1u);  // plain index arithmetic stays legal
  EXPECT_EQ(findings[0].rule, "ring-modulo");
  EXPECT_EQ(findings[0].line, 2);

  // No file name is exempt inside src/: the seed oracles live in
  // tests/support.
  const auto oracle = lint_source("src/noc/reference_ring.cpp", src);
  ASSERT_EQ(oracle.size(), 1u);
  EXPECT_EQ(oracle[0].rule, "ring-modulo");
  EXPECT_TRUE(lint_source("tests/ring_test.cpp", src).empty());
}

TEST(RingModuloTest, SuppressibleWithJustification) {
  const std::string src =
      "cold = (head + i) % cap;  "
      "// renoc-lint-allow(ring-modulo): one-off resize copy, not hot\n";
  EXPECT_TRUE(lint_source("src/noc/ring.cpp", src).empty());
}

// --- engine-unordered-map --------------------------------------------------

TEST(EngineUnorderedMapTest, BansHashMapsInFlatEngines) {
  const std::string src = "std::unordered_map<int, int> m;\n";
  const auto noc = lint_source("src/noc/fabric2.hpp", src);
  ASSERT_EQ(noc.size(), 1u);
  EXPECT_EQ(noc[0].rule, "engine-unordered-map");
  EXPECT_EQ(lint_source("src/ldpc/x.cpp", src).size(), 1u);

  EXPECT_TRUE(lint_source("src/thermal/x.cpp", src).empty());
  EXPECT_EQ(rules_of(lint_source("src/noc/reference_fabric2.hpp", src)),
            (std::vector<std::string>{"engine-unordered-map"}));
}

// --- atomic-artifact-write --------------------------------------------------

TEST(AtomicArtifactWriteTest, BansDirectOfstreamInArtifactProducers) {
  const std::string src = "std::ofstream out(args.json_path);\n";
  for (const char* path : {"src/core/experiment_sweep.cpp",
                           "bench/fig1_peak_reduction.cpp",
                           "examples/ber_sweep.cpp"}) {
    const auto findings = lint_source(path, src);
    ASSERT_EQ(findings.size(), 1u) << path;
    EXPECT_EQ(findings[0].rule, "atomic-artifact-write") << path;
    EXPECT_NE(findings[0].message.find("AtomicFile"), std::string::npos);
  }
}

TEST(AtomicArtifactWriteTest, QuietOutsideArtifactScopeAndInJsonImpl) {
  const std::string src = "std::ofstream out(path);\n";
  // tools and tests stage scratch files on purpose; util/json IS the
  // atomic writer, so the underlying ofstream lives there.
  EXPECT_TRUE(lint_source("tools/golden_diff.cpp", src).empty());
  EXPECT_TRUE(lint_source("tests/sweep_test.cpp", src).empty());
  EXPECT_TRUE(lint_source("src/util/json.cpp", src).empty());
  // Mentions that are not the token (comments, strings, other words).
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "// ofstream is banned here\n").empty());
  EXPECT_TRUE(
      lint_source("src/core/x.cpp", "log(\"std::ofstream\");\n").empty());
  EXPECT_TRUE(lint_source("src/core/x.cpp", "int my_ofstream_id;\n").empty());
}

TEST(AtomicArtifactWriteTest, SuppressibleWithJustification) {
  const std::string src =
      "std::ofstream raw(dump_path);  "
      "// renoc-lint-allow(atomic-artifact-write): debug dump, not an "
      "artifact\n";
  EXPECT_TRUE(lint_source("bench/noc_characterization.cpp", src).empty());
}

// --- route-rebuild ---------------------------------------------------------

TEST(RouteRebuildTest, FiresOnTableRebuildInsideHotRegions) {
  const std::string src = R"cpp(void step() {
  // renoc-hot-begin
  build_adaptive_routes(dim, link_up, router_up, table);
  purge_stranded_packets();
  // renoc-hot-end
  build_adaptive_routes(dim, link_up, router_up, table);
}
)cpp";
  const auto findings = lint_source("src/noc/fabric2.cpp", src);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "route-rebuild");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("build_adaptive_routes"),
            std::string::npos);
  EXPECT_EQ(findings[1].rule, "route-rebuild");
  EXPECT_EQ(findings[1].line, 4);  // line 6's call is in the cold path
}

TEST(RouteRebuildTest, IgnoresMentionsThatAreNotCalls) {
  // A comment, a string, or taking the function's name without calling it
  // must stay quiet even inside a hot region.
  const std::string src = R"cpp(void step() {
  // renoc-hot-begin
  // build_adaptive_routes runs per epoch, never here
  auto* fn = &Fabric::purge_stranded_packets;
  // renoc-hot-end
}
)cpp";
  EXPECT_TRUE(lint_source("src/noc/fabric2.cpp", src).empty());
}

TEST(RouteRebuildTest, SuppressibleWithJustification) {
  const std::string src = R"cpp(void step() {
  // renoc-hot-begin
  // renoc-lint-allow(route-rebuild): one-shot rebuild measured cold
  build_adaptive_routes(dim, link_up, router_up, table);
  // renoc-hot-end
}
)cpp";
  EXPECT_TRUE(lint_source("src/noc/fabric2.cpp", src).empty());
}

// --- simd-intrinsics -------------------------------------------------------

TEST(SimdIntrinsicsTest, BansRawIntrinsicsInEveryFile) {
  const std::string src = R"cpp(#include <immintrin.h>
__m256i v = _mm256_set1_epi32(1);
__m128d w;
auto x = _mm_add_pd(w, w);
)cpp";
  const auto findings = lint_source("src/ldpc/decoder.cpp", src);
  EXPECT_EQ(rules_of(findings),
            (std::vector<std::string>{"simd-intrinsics", "simd-intrinsics",
                                      "simd-intrinsics", "simd-intrinsics"}));
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("intrin.h"), std::string::npos);
  EXPECT_EQ(findings[1].line, 2);

  // The rule applies everywhere renoc_lint walks, not only src/, and no
  // path is exempt: util/simd is no home for intrinsics either.
  EXPECT_EQ(lint_source("bench/period_sweep.cpp", src).size(), 4u);
  EXPECT_EQ(lint_source("tests/ldpc_test.cpp", src).size(), 4u);
  EXPECT_EQ(lint_source("src/util/simd.hpp", src).size(), 4u);
  EXPECT_EQ(lint_source("src/util/simd.cpp", src).size(), 4u);
}

TEST(SimdIntrinsicsTest, IgnoresMentionsThatAreNotIntrinsics) {
  const std::string src = R"cpp(// _mm256_add_epi32 named in a comment
auto s = "_mm_add_pd in a string";
int comm_mm_total = 0;
double x86_intrin_help = 0;  // no include, no token
)cpp";
  EXPECT_TRUE(lint_source("src/ldpc/decoder.cpp", src).empty());
}

TEST(SimdIntrinsicsTest, SuppressibleWithJustification) {
  const std::string src =
      "__m256i v;  "
      "// renoc-lint-allow(simd-intrinsics): doc example, never compiled\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

// --- todo-tag --------------------------------------------------------------

TEST(TodoTagTest, RequiresIssueTagOnDeferredWorkMarkers) {
  const auto untagged = lint_source(
      "src/core/x.cpp", "// TODO: make this faster\nint x;\n");
  ASSERT_EQ(untagged.size(), 1u);
  EXPECT_EQ(untagged[0].rule, "todo-tag");
  EXPECT_EQ(untagged[0].line, 1);

  const auto fixme =
      lint_source("bench/x.cpp", "/* FIXME sometime */\n");
  ASSERT_EQ(fixme.size(), 1u);
  EXPECT_EQ(fixme[0].rule, "todo-tag");

  EXPECT_TRUE(
      lint_source("src/core/x.cpp", "// TODO(#42): make this faster\n")
          .empty());
  EXPECT_TRUE(
      lint_source("src/core/x.cpp", "auto s = \"TODO later\";\n").empty());
}

// --- formatting + tree walk ------------------------------------------------

TEST(FormatTest, FindingFormatsAsGreppableLine) {
  const Finding f{"src/noc/a.cpp", 12, "hot-alloc", "msg"};
  EXPECT_EQ(format_finding(f), "src/noc/a.cpp:12: [hot-alloc] msg");
}

TEST(LintTreeTest, WalksFilesAndClassifiesByRelativePath) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(::testing::TempDir()) / "renoc_lint_tree_test";
  fs::create_directories(root / "src" / "noc");
  {
    std::ofstream out(root / "src" / "noc" / "bad.cpp");
    out << "std::unordered_map<int, int> m;\n";
  }
  {
    std::ofstream out(root / "src" / "noc" / "good.cpp");
    out << "int plain = 0;\n";
  }
  {
    std::ofstream out(root / "src" / "noc" / "ignored.txt");
    out << "std::unordered_map<int, int> m;\n";
  }
  const auto findings = lint_tree(root.string(), {"src", "missing_dir"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "engine-unordered-map");
  EXPECT_EQ(findings[0].file, "src/noc/bad.cpp");
  fs::remove_all(root);
}

}  // namespace
}  // namespace renoc::lint
