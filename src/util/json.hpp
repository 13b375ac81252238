// Machine-readable JSON artifacts: one writer, one parser, one comparator.
//
// renoc_paper publishes one PAPER_*.json record per paper figure/table,
// and paper_goldens_test diffs those records against pinned goldens. Both
// share:
//
//   * JsonWriter   — a streaming pretty-printer with deterministic number
//                    formatting (fixed precision, no locale), so identical
//                    results produce byte-identical files;
//   * parse_json   — a strict recursive-descent parser for the subset the
//                    writer emits (all of standard JSON except \u escapes
//                    beyond ASCII), used by tools/golden_diff and tests;
//   * diff_json    — the golden comparison: integer-token fields compare
//                    exactly (counts, cycles, phases must not drift at
//                    all), real-token fields within max(abs_tol, rel_tol *
//                    |golden|) (temperatures may wobble with libm), and
//                    keys named "ms" or ending in "_ms" are skipped
//                    entirely (wall-clock timing is not a result).
//
// Artifacts are also *published* through this module: write_file_atomic /
// AtomicFile stage the bytes in a temp file, fsync, and rename over the
// target, so a reader (or a crashed writer) never observes a half-written
// JSON file. The renoc_lint rule
// atomic-artifact-write bans direct ofstream writes of artifacts outside
// these helpers.
#pragma once

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace renoc {

/// Streaming JSON emitter with 2-space pretty printing. Usage:
///
///   JsonWriter w(os);
///   w.begin_object();
///   w.key("bench").string("fig1");
///   w.key("rows").begin_array();
///   ...
///   w.end_array();
///   w.end_object();   // every begin must be closed; dtor checks
///
/// Values are typed explicitly (real/integer/boolean/string) so the fixed
/// float precision is always a deliberate choice and integer fields stay
/// integer tokens (which diff_json compares exactly).
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os);
  ~JsonWriter();

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Member key; must be inside an object and followed by exactly one
  /// value (or begin_object/begin_array).
  JsonWriter& key(std::string_view k);

  /// Fixed-precision real ("%.*f"). The value must be finite.
  JsonWriter& real(double v, int precision = 6);
  JsonWriter& integer(long long v);
  JsonWriter& uinteger(unsigned long long v);
  JsonWriter& boolean(bool v);
  JsonWriter& string(std::string_view v);

 private:
  enum class Scope { kRoot, kObject, kArray };
  void begin_value();
  void write_escaped(std::string_view v);

  std::ostream& os_;
  std::vector<Scope> stack_;
  bool first_in_scope_ = true;   ///< no comma before the next value
  bool after_key_ = false;       ///< value continues the current line
  bool done_ = false;            ///< one complete root value written
};

/// Parsed JSON document node.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_v = false;
  double num_v = 0.0;
  bool num_is_integer = false;  ///< token had no '.', 'e', or 'E'
  std::string str_v;
  std::vector<JsonValue> items;                             // kArray
  std::vector<std::pair<std::string, JsonValue>> members;   // kObject, ordered

  /// Object lookup; returns nullptr when absent (or not an object).
  const JsonValue* find(std::string_view k) const;
};

/// Atomically replaces `path` with `content`: the bytes go to a
/// pid-suffixed temp file in the same directory, are fsync'd, and the temp
/// is renamed over the target (then the directory entry is fsync'd). A
/// concurrent reader sees either the old file or the complete new one —
/// never a prefix — and a crash mid-write leaves the old file intact.
/// Throws CheckError on any IO failure.
void write_file_atomic(const std::string& path, std::string_view content);

/// Streaming front end to write_file_atomic: bytes written to stream()
/// are buffered in memory and published atomically by commit(). Without a
/// commit() the destructor discards the buffer and the target is
/// untouched — a bench that dies mid-record leaves no torn artifact.
///
///   AtomicFile out("PAPER_x.json");
///   JsonWriter json(out.stream());
///   ... stream the document ...
///   out.commit();
class AtomicFile {
 public:
  explicit AtomicFile(std::string path) : path_(std::move(path)) {}

  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  std::ostream& stream() { return buffer_; }

  /// Publishes the buffered bytes (write_file_atomic). Call exactly once.
  void commit();

 private:
  std::string path_;
  std::ostringstream buffer_;
  bool committed_ = false;
};

/// Parses a complete JSON document. Throws CheckError on malformed input
/// or trailing garbage.
JsonValue parse_json(std::string_view text);

/// Reads and parses a JSON file. Throws CheckError on IO or parse errors.
JsonValue parse_json_file(const std::string& path);

struct JsonDiffOptions {
  double abs_tol = 1e-6;   ///< real fields: |a-b| <= max(abs_tol, ...)
  double rel_tol = 5e-4;   ///< ... rel_tol * |golden|
};

/// True for keys the golden comparison always ignores ("ms", "*_ms").
bool json_key_is_timing(std::string_view key);

/// Structural comparison of `candidate` against `golden`. Returns one
/// human-readable line per difference (empty = match): kind mismatches,
/// missing/extra members, array length mismatches, exact integer-token
/// mismatches, and real-token values outside tolerance.
std::vector<std::string> diff_json(const JsonValue& golden,
                                   const JsonValue& candidate,
                                   const JsonDiffOptions& opt = {});

}  // namespace renoc
