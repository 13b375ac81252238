// Tests for the shared JSON layer (util/json): the streaming writer the
// bench records are emitted with, the parser, the golden-diff rules CI
// relies on (integer fields exact, reals within tolerance, *_ms timing
// keys skipped), and atomic publication (write_file_atomic, AtomicFile).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "util/check.hpp"
#include "util/json.hpp"

namespace renoc {
namespace {

namespace fs = std::filesystem;

std::string write_sample() {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("bench").string("sample");
  w.key("smoke").boolean(true);
  w.key("count").integer(42);
  w.key("big").uinteger(18446744073709551615ull);
  w.key("peak_c").real(85.4375, 4);
  w.key("rows").begin_array();
  w.begin_object();
  w.key("name").string("a\"b\\c\n");
  w.key("ms").real(1.25, 3);
  w.end_object();
  w.integer(-7);
  w.end_array();
  w.key("empty").begin_array().end_array();
  w.end_object();
  return os.str();
}

TEST(JsonWriterTest, RoundTripsThroughParser) {
  const std::string text = write_sample();
  const JsonValue root = parse_json(text);
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  ASSERT_NE(root.find("bench"), nullptr);
  EXPECT_EQ(root.find("bench")->str_v, "sample");
  EXPECT_TRUE(root.find("smoke")->bool_v);
  EXPECT_EQ(root.find("count")->num_v, 42.0);
  EXPECT_TRUE(root.find("count")->num_is_integer);
  EXPECT_TRUE(root.find("big")->num_is_integer);
  EXPECT_NEAR(root.find("peak_c")->num_v, 85.4375, 1e-12);
  EXPECT_FALSE(root.find("peak_c")->num_is_integer);
  const JsonValue& rows = *root.find("rows");
  ASSERT_EQ(rows.kind, JsonValue::Kind::kArray);
  ASSERT_EQ(rows.items.size(), 2u);
  EXPECT_EQ(rows.items[0].find("name")->str_v, "a\"b\\c\n");
  EXPECT_EQ(rows.items[1].num_v, -7.0);
  EXPECT_EQ(root.find("empty")->items.size(), 0u);
}

TEST(JsonWriterTest, RejectsMalformedSequences) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  EXPECT_THROW(w.integer(1), CheckError);       // object member needs key()
  w.key("k");
  EXPECT_THROW(w.key("k2"), CheckError);        // key() twice
  w.integer(1);
  EXPECT_THROW(w.end_array(), CheckError);      // wrong closer
  w.end_object();
  EXPECT_THROW(w.integer(2), CheckError);       // root already closed
}

TEST(JsonParserTest, RejectsGarbage) {
  EXPECT_THROW(parse_json("{"), CheckError);
  EXPECT_THROW(parse_json("{\"a\": 1,}"), CheckError);
  EXPECT_THROW(parse_json("[1 2]"), CheckError);
  EXPECT_THROW(parse_json("{\"a\": 1} trailing"), CheckError);
  EXPECT_THROW(parse_json("\"unterminated"), CheckError);
}

// Robustness: hostile or damaged input must always surface as a CheckError
// — never UB. These are the shapes a truncated bench artifact, a
// hand-edited golden, or a fuzzer reaches first.
TEST(JsonParserTest, TruncatedDocumentsThrow) {
  EXPECT_THROW(parse_json(""), CheckError);
  EXPECT_THROW(parse_json("   "), CheckError);
  EXPECT_THROW(parse_json("{\"a\":"), CheckError);
  EXPECT_THROW(parse_json("[1, 2"), CheckError);
  EXPECT_THROW(parse_json("{\"a\": 1"), CheckError);
  EXPECT_THROW(parse_json("\"esc\\"), CheckError);
  EXPECT_THROW(parse_json("{\"a\": tru"), CheckError);
  EXPECT_THROW(parse_json("12e"), CheckError);
  EXPECT_THROW(parse_json("-"), CheckError);
}

TEST(JsonParserTest, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  // Well beyond the parser's depth cap; without the cap this would
  // recurse ~200k frames and crash instead of throwing.
  const std::size_t depth = 200000;
  std::string deep_arrays(depth, '[');
  EXPECT_THROW(parse_json(deep_arrays), CheckError);

  std::string deep_objects;
  for (std::size_t i = 0; i < depth; ++i) deep_objects += "{\"k\":";
  EXPECT_THROW(parse_json(deep_objects), CheckError);

  // A balanced document just over the cap also throws (the cap is about
  // nesting, not truncation)...
  std::string balanced = std::string(300, '[') + std::string(300, ']');
  EXPECT_THROW(parse_json(balanced), CheckError);
  // ...while realistic nesting stays comfortably legal.
  std::string legal = std::string(64, '[') + "1" + std::string(64, ']');
  EXPECT_EQ(parse_json(legal).items.size(), 1u);
}

TEST(JsonParserTest, OverflowingNumberLiteralsThrow) {
  EXPECT_THROW(parse_json("1e999"), CheckError);
  EXPECT_THROW(parse_json("-1e999"), CheckError);
  EXPECT_THROW(parse_json("{\"v\": [1e400]}"), CheckError);
  // Near-but-under the double range still parses.
  EXPECT_DOUBLE_EQ(parse_json("1e308").num_v, 1e308);
  // Underflow to zero is representable, not an error.
  EXPECT_DOUBLE_EQ(parse_json("1e-999").num_v, 0.0);
}

TEST(JsonParserTest, BadEscapesAndBadUnicodeThrow) {
  EXPECT_THROW(parse_json("\"\\q\""), CheckError);
  EXPECT_THROW(parse_json("\"\\u12\""), CheckError);
  EXPECT_THROW(parse_json("\"\\uZZZZ\""), CheckError);
  EXPECT_THROW(parse_json("\"\\u00e9\""), CheckError);  // non-ASCII
}

TEST(JsonDiffTest, IdenticalDocumentsMatch) {
  const std::string text = write_sample();
  EXPECT_TRUE(
      diff_json(parse_json(text), parse_json(text), JsonDiffOptions{})
          .empty());
}

TEST(JsonDiffTest, IntegerFieldsCompareExactly) {
  const JsonValue g = parse_json("{\"count\": 42}");
  const JsonValue c = parse_json("{\"count\": 43}");
  EXPECT_FALSE(diff_json(g, c, JsonDiffOptions{}).empty());
}

TEST(JsonDiffTest, RealsWithinToleranceMatch) {
  const JsonValue g = parse_json("{\"peak_c\": 85.440000}");
  // rel tol 5e-4 of 85.44 is ~0.043.
  EXPECT_TRUE(diff_json(g, parse_json("{\"peak_c\": 85.450000}"),
                        JsonDiffOptions{})
                  .empty());
  EXPECT_FALSE(diff_json(g, parse_json("{\"peak_c\": 85.600000}"),
                         JsonDiffOptions{})
                   .empty());
  // Small magnitudes fall back to the absolute tolerance: 1e-6.
  const JsonValue small = parse_json("{\"penalty\": 0.016000}");
  EXPECT_FALSE(diff_json(small, parse_json("{\"penalty\": 0.016100}"),
                         JsonDiffOptions{})
                   .empty());
}

TEST(JsonDiffTest, TimingKeysAreSkipped) {
  const JsonValue g =
      parse_json("{\"solve_ms\": 1.0, \"ms\": 2.0, \"peak_c\": 70.0}");
  const JsonValue c =
      parse_json("{\"solve_ms\": 99.0, \"ms\": 0.5, \"peak_c\": 70.0}");
  EXPECT_TRUE(diff_json(g, c, JsonDiffOptions{}).empty());
  // But a key merely containing "ms" is not timing.
  EXPECT_TRUE(json_key_is_timing("ms"));
  EXPECT_TRUE(json_key_is_timing("batch_ms"));
  EXPECT_FALSE(json_key_is_timing("rooms"));
  EXPECT_FALSE(json_key_is_timing("ms_total"));
}

TEST(JsonDiffTest, MissingAndExtraMembersReported) {
  const JsonValue g = parse_json("{\"a\": 1, \"b\": 2}");
  const JsonValue c = parse_json("{\"a\": 1, \"c\": 3}");
  const auto diffs = diff_json(g, c, JsonDiffOptions{});
  EXPECT_EQ(diffs.size(), 2u);  // b missing, c extra
}

TEST(JsonDiffTest, ArrayLengthMismatchReported) {
  const JsonValue g = parse_json("[1, 2, 3]");
  const JsonValue c = parse_json("[1, 2]");
  EXPECT_FALSE(diff_json(g, c, JsonDiffOptions{}).empty());
}

// --- atomic publication ----------------------------------------------------

/// Scratch directory, unique per test, created empty and removed on
/// destruction.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name)
      : path(fs::temp_directory_path() /
             ("renoc_json_test_" + name + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(AtomicWriteTest, PublishesWholeFilesAndLeavesNoTemp) {
  const ScratchDir dir("atomic");
  const std::string path = (dir.path / "artifact.json").string();
  write_file_atomic(path, "first");
  EXPECT_EQ(slurp(path), "first");
  write_file_atomic(path, "second");  // atomic replace of an existing file
  EXPECT_EQ(slurp(path), "second");
  int entries = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1);  // no .tmp litter
}

TEST(AtomicWriteTest, UncommittedAtomicFileLeavesTargetUntouched) {
  const ScratchDir dir("uncommitted");
  const std::string path = (dir.path / "artifact.json").string();
  write_file_atomic(path, "golden");
  {
    AtomicFile file(path);
    file.stream() << "half-written garbage";
    // No commit: destructor must discard, not publish.
  }
  EXPECT_EQ(slurp(path), "golden");
  AtomicFile file(path);
  file.stream() << "replacement";
  file.commit();
  EXPECT_EQ(slurp(path), "replacement");
  EXPECT_THROW(file.commit(), CheckError);  // commit is once
}

TEST(AtomicWriteTest, AtomicFileJsonParsesBackFromDisk) {
  // The path every paper record takes: a JsonWriter over AtomicFile's
  // stream, committed, then read back by parse_json_file.
  const ScratchDir dir("jsonatomic");
  const std::string path = (dir.path / "doc.json").string();
  {
    AtomicFile out(path);
    {
      JsonWriter w(out.stream());
      w.begin_object();
      w.key("answer").integer(42);
      w.key("peak_c").real(85.4375, 4);
      w.end_object();
    }
    out.commit();
  }
  const JsonValue doc = parse_json_file(path);
  ASSERT_NE(doc.find("answer"), nullptr);
  EXPECT_TRUE(doc.find("answer")->num_is_integer);
  EXPECT_EQ(doc.find("answer")->num_v, 42.0);
  ASSERT_NE(doc.find("peak_c"), nullptr);
  EXPECT_EQ(doc.find("peak_c")->num_v, 85.4375);
  EXPECT_THROW(parse_json_file((dir.path / "missing.json").string()),
               CheckError);
}

}  // namespace
}  // namespace renoc
