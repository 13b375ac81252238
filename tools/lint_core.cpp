#include "lint_core.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

namespace renoc::lint {
namespace {

constexpr std::string_view kHotBegin = "renoc-hot-begin";
constexpr std::string_view kHotEnd = "renoc-hot-end";
constexpr std::string_view kAllowMarker = "renoc-lint-allow";

/// Rule ids an inline suppression may name. The two structural rules
/// (hot-region, bad-allow) are deliberately absent: a malformed marker
/// must not be able to waive itself.
const std::set<std::string, std::less<>>& suppressible_rules() {
  static const std::set<std::string, std::less<>> rules = {
      "hot-alloc", "raw-random", "ring-modulo", "engine-unordered-map",
      "route-rebuild", "simd-intrinsics", "todo-tag",
      "atomic-artifact-write"};
  return rules;
}

bool is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True if [pos, pos+len) in `text` is bounded by non-word characters.
bool word_at(std::string_view text, std::size_t pos, std::size_t len) {
  const bool left_ok = pos == 0 || !is_word_char(text[pos - 1]);
  const std::size_t end = pos + len;
  const bool right_ok = end >= text.size() || !is_word_char(text[end]);
  return left_ok && right_ok;
}

bool contains_word(std::string_view text, std::string_view word) {
  for (std::size_t pos = text.find(word); pos != std::string_view::npos;
       pos = text.find(word, pos + 1)) {
    if (word_at(text, pos, word.size())) return true;
  }
  return false;
}

/// Occurrence of `prefix` starting at a word boundary (the right side is
/// free: intrinsic families like _mm256_ are matched as prefixes).
bool contains_word_prefix(std::string_view text, std::string_view prefix) {
  for (std::size_t pos = text.find(prefix); pos != std::string_view::npos;
       pos = text.find(prefix, pos + 1)) {
    if (pos == 0 || !is_word_char(text[pos - 1])) return true;
  }
  return false;
}

/// Word occurrence directly followed (modulo whitespace) by '('.
bool contains_call(std::string_view text, std::string_view name) {
  for (std::size_t pos = text.find(name); pos != std::string_view::npos;
       pos = text.find(name, pos + 1)) {
    if (!word_at(text, pos, name.size())) continue;
    std::size_t j = pos + name.size();
    while (j < text.size() &&
           std::isspace(static_cast<unsigned char>(text[j])) != 0)
      ++j;
    if (j < text.size() && text[j] == '(') return true;
  }
  return false;
}

std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.emplace_back(text.substr(start));
      break;
    }
    lines.emplace_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

bool path_in(std::string_view path, std::string_view dir) {
  if (path.substr(0, dir.size()) == dir) return true;
  std::string needle = "/";
  needle += dir;
  return path.find(needle) != std::string_view::npos;
}

/// Which rule families apply to this path.
struct FileScope {
  bool in_src = false;       ///< shipped library code
  bool rng_impl = false;     ///< util/rng itself: the one home for raw bits
  bool engine_dir = false;   ///< src/noc or src/ldpc flat engines
  bool artifact_scope = false;  ///< ofstream ban: shipped code and benches
};

FileScope classify(std::string_view path) {
  FileScope s;
  s.in_src = path_in(path, "src/");
  s.rng_impl = path.find("util/rng.") != std::string_view::npos;
  s.engine_dir = path_in(path, "src/noc/") || path_in(path, "src/ldpc/");
  // Artifact writes must go through util/json's atomic publisher so a
  // crash never leaves a torn JSON file. util/json itself is the one home
  // for the raw write path; tools and tests (goldens, fixtures) stay
  // exempt.
  s.artifact_scope = (s.in_src || path_in(path, "bench/") ||
                      path_in(path, "examples/")) &&
                     path.find("util/json.") == std::string_view::npos;
  return s;
}

/// Allocation and container-growth tokens banned inside hot regions.
/// `call` tokens must be followed by '('; bare tokens match as words.
struct HotToken {
  std::string_view token;
  bool call;
  std::string_view why;
};
constexpr HotToken kHotTokens[] = {
    {"new", false, "operator new allocates"},
    {"make_unique", true, "allocates"},
    {"make_shared", true, "allocates"},
    {"malloc", true, "allocates"},
    {"calloc", true, "allocates"},
    {"realloc", true, "allocates"},
    {"aligned_alloc", true, "allocates"},
    {"strdup", true, "allocates"},
    {"push_back", true, "may grow the container"},
    {"emplace_back", true, "may grow the container"},
    {"emplace", true, "may grow the container"},
    {"emplace_front", true, "may grow the container"},
    {"push_front", true, "may grow the container"},
    {"resize", true, "may grow the container"},
    {"reserve", true, "may grow the container"},
    {"insert", true, "may grow the container"},
    {"assign", true, "may grow the container"},
    {"append", true, "may grow the container"},
};

/// Ring-buffer vocabulary: a '%' sharing a line with one of these words is
/// almost always a wrap-by-modulo, which costs an integer division per ring
/// operation on the hot path. Use conditional wrap instead.
constexpr std::string_view kRingWords[] = {"head", "tail", "cursor", "ring",
                                           "fifo"};

constexpr std::string_view kRawRandomCalls[] = {"rand", "srand", "time"};

/// Vector-intrinsic vocabulary, banned in every file. Raw intrinsics (and
/// their headers) tie a TU to one instruction set and add a second code
/// path beside the portable one; the library keeps only the portable path
/// unless a vector path wins end to end on perfbench. Families are matched
/// as word-boundary prefixes (_mm256_add_epi32, __m128i, ...).
constexpr std::string_view kIntrinsicPrefixes[] = {
    "_mm_", "_mm256_", "_mm512_", "__m128", "__m256", "__m512"};

/// Topology-change-epoch operations: O(N^2) route-table rebuilds (and the
/// packet purge that follows one). Legal in the cold fault-application
/// path, a per-cycle disaster anywhere inside a hot region.
constexpr std::string_view kRouteRebuildCalls[] = {"build_adaptive_routes",
                                                   "purge_stranded_packets"};

}  // namespace

std::string format_finding(const Finding& f) {
  std::ostringstream out;
  out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message;
  return out.str();
}

SplitSource split_source(std::string_view source) {
  enum class State { kNormal, kLineComment, kBlockComment, kString, kChar,
                     kRawString };
  SplitSource out;
  out.code.reserve(source.size());
  out.comments.reserve(source.size());
  State state = State::kNormal;
  std::string raw_close;  // ")delim\"" terminator of the active raw string
  for (std::size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kNormal;
      out.code += '\n';
      out.comments += '\n';
      continue;
    }
    switch (state) {
      case State::kNormal: {
        const char next = i + 1 < source.size() ? source[i + 1] : '\0';
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out.code += "  ";
          out.comments += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out.code += "  ";
          out.comments += "  ";
          ++i;
        } else if (c == '"' && i > 0 && source[i - 1] == 'R') {
          // R"delim( ... )delim" — scan the delimiter up to '('.
          raw_close = ")";
          std::size_t j = i + 1;
          while (j < source.size() && source[j] != '(' &&
                 source[j] != '\n' && j - i <= 17)
            raw_close += source[j++];
          raw_close += '"';
          state = State::kRawString;
          out.code += ' ';
          out.comments += ' ';
        } else if (c == '"') {
          state = State::kString;
          out.code += ' ';
          out.comments += ' ';
        } else if (c == '\'' && i > 0 &&
                   std::isalnum(static_cast<unsigned char>(source[i - 1]))) {
          // Digit separator (1'000'000): not a character literal.
          out.code += c;
          out.comments += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out.code += ' ';
          out.comments += ' ';
        } else {
          out.code += c;
          out.comments += ' ';
        }
        break;
      }
      case State::kLineComment:
      case State::kBlockComment: {
        const char next = i + 1 < source.size() ? source[i + 1] : '\0';
        if (state == State::kBlockComment && c == '*' && next == '/') {
          state = State::kNormal;
          out.code += "  ";
          out.comments += "  ";
          ++i;
        } else {
          out.code += ' ';
          out.comments += c;
        }
        break;
      }
      case State::kString:
      case State::kChar: {
        if (c == '\\' && i + 1 < source.size() && source[i + 1] != '\n') {
          out.code += "  ";
          out.comments += "  ";
          ++i;
        } else {
          if (c == '"' && state == State::kString) state = State::kNormal;
          if (c == '\'' && state == State::kChar) state = State::kNormal;
          out.code += ' ';
          out.comments += ' ';
        }
        break;
      }
      case State::kRawString: {
        if (c == raw_close.front() &&
            source.substr(i, raw_close.size()) == raw_close) {
          // Blank the terminator (newlines inside it are impossible).
          for (std::size_t k = 0; k < raw_close.size(); ++k) {
            out.code += ' ';
            out.comments += ' ';
          }
          i += raw_close.size() - 1;
          state = State::kNormal;
        } else {
          out.code += ' ';
          out.comments += ' ';
        }
        break;
      }
    }
  }
  return out;
}

std::vector<Finding> lint_source(std::string_view path,
                                 std::string_view source) {
  const FileScope scope = classify(std::string_view(path));
  const SplitSource split = split_source(source);
  const std::vector<std::string> code = split_lines(split.code);
  const std::vector<std::string> comments = split_lines(split.comments);
  std::vector<Finding> findings;
  auto emit = [&](int line, std::string_view rule, std::string message) {
    findings.push_back(
        Finding{std::string(path), line, std::string(rule), std::move(message)});
  };

  // Pass 1: collect inline suppressions (and report malformed ones).
  std::map<int, std::set<std::string, std::less<>>> allowed;
  for (std::size_t li = 0; li < comments.size(); ++li) {
    const std::string& line = comments[li];
    const int lineno = static_cast<int>(li) + 1;
    for (std::size_t pos = line.find(kAllowMarker);
         pos != std::string::npos;
         pos = line.find(kAllowMarker, pos + 1)) {
      std::size_t j = pos + kAllowMarker.size();
      if (j >= line.size() || line[j] != '(') {
        emit(lineno, "bad-allow",
             "suppression marker must be followed by (<rule>)");
        continue;
      }
      const std::size_t close = line.find(')', ++j);
      if (close == std::string::npos) {
        emit(lineno, "bad-allow", "unterminated (<rule>) in suppression");
        continue;
      }
      const std::string rule(trim(std::string_view(line).substr(j, close - j)));
      if (suppressible_rules().count(rule) == 0) {
        emit(lineno, "bad-allow",
             "unknown or non-suppressible rule '" + rule + "'");
        continue;
      }
      std::size_t k = close + 1;
      while (k < line.size() &&
             std::isspace(static_cast<unsigned char>(line[k])) != 0)
        ++k;
      if (k >= line.size() || line[k] != ':' ||
          trim(std::string_view(line).substr(k + 1)).empty()) {
        emit(lineno, "bad-allow",
             "suppression of '" + rule +
                 "' needs a justification: \": <why this line is exempt>\"");
        continue;
      }
      allowed[lineno].insert(rule);
      // A suppression on a comment-only line (no code survives stripping)
      // covers the following line, so 80-column code need not cram the
      // justification onto the statement itself.
      if (li < code.size() && trim(code[li]).empty())
        allowed[lineno + 1].insert(rule);
    }
  }
  auto is_allowed = [&](int lineno, std::string_view rule) {
    const auto it = allowed.find(lineno);
    return it != allowed.end() && it->second.count(std::string(rule)) != 0;
  };

  // Pass 2: hot-region tracking + per-line rules, in line order.
  bool in_hot = false;
  int hot_begin_line = 0;
  for (std::size_t li = 0; li < code.size(); ++li) {
    const int lineno = static_cast<int>(li) + 1;
    const std::string& code_line = code[li];
    const std::string& comment_line =
        li < comments.size() ? comments[li] : code_line;

    const bool has_begin = comment_line.find(kHotBegin) != std::string::npos;
    // A line carrying both markers is treated as a begin: regions are
    // expected to be multi-line, markers on lines of their own.
    const bool has_end =
        !has_begin && comment_line.find(kHotEnd) != std::string::npos;
    if (has_end) {
      if (!in_hot)
        emit(lineno, "hot-region", "hot-region end marker without a begin");
      in_hot = false;
    }

    // hot-alloc: marker lines themselves are exempt; the region spans the
    // lines strictly between begin and end.
    if (in_hot && !is_allowed(lineno, "hot-alloc")) {
      for (const HotToken& t : kHotTokens) {
        const bool hit = t.call ? contains_call(code_line, t.token)
                                : contains_word(code_line, t.token);
        if (hit) {
          emit(lineno, "hot-alloc",
               "'" + std::string(t.token) + "' in a hot region (" +
                   std::string(t.why) +
                   "); hoist it to setup or suppress with a justification");
          break;
        }
      }
    }

    if (in_hot && !is_allowed(lineno, "route-rebuild")) {
      for (const std::string_view call : kRouteRebuildCalls) {
        if (contains_call(code_line, call)) {
          emit(lineno, "route-rebuild",
               "'" + std::string(call) +
                   "' in a hot region: table rebuilds are O(node_count^2) "
                   "and belong in the per-epoch fault-application path");
          break;
        }
      }
    }

    if (scope.in_src && !scope.rng_impl &&
        !is_allowed(lineno, "raw-random")) {
      std::string token;
      for (const std::string_view call : kRawRandomCalls)
        if (contains_call(code_line, call)) token = std::string(call);
      if (contains_word(code_line, "random_device")) token = "random_device";
      if (!token.empty())
        emit(lineno, "raw-random",
             "'" + token +
                 "' bypasses util/rng; all randomness must flow through "
                 "seeded SplitMix64 streams so sweeps replay bit-exactly");
    }

    if (!is_allowed(lineno, "simd-intrinsics")) {
      std::string token;
      if (code_line.find("intrin.h>") != std::string::npos)
        token = "an <*intrin.h> include";
      for (const std::string_view p : kIntrinsicPrefixes)
        if (token.empty() && contains_word_prefix(code_line, p))
          token = "'" + std::string(p) + "...'";
      if (!token.empty())
        emit(lineno, "simd-intrinsics",
             token +
                 ": the library keeps one portable code path; a vector path "
                 "belongs only where it wins end to end on perfbench");
    }

    if (scope.in_src && !is_allowed(lineno, "ring-modulo") &&
        code_line.find('%') != std::string::npos) {
      for (const std::string_view w : kRingWords) {
        if (contains_word(code_line, w)) {
          emit(lineno, "ring-modulo",
               "'%' next to ring-buffer cursor '" + std::string(w) +
                   "': wrap with a conditional instead of an integer "
                   "division per operation");
          break;
        }
      }
    }

    if (scope.artifact_scope && !is_allowed(lineno, "atomic-artifact-write") &&
        contains_word(code_line, "ofstream")) {
      emit(lineno, "atomic-artifact-write",
           "'ofstream' publishes bytes in place — a crash mid-write leaves "
           "a torn artifact; write through util/json's AtomicFile "
           "(temp + fsync + rename) instead");
    }

    if (scope.engine_dir && !is_allowed(lineno, "engine-unordered-map") &&
        contains_word(code_line, "unordered_map")) {
      emit(lineno, "engine-unordered-map",
           "flat noc/ldpc engines index dense arrays, never hash maps");
    }

    if (!is_allowed(lineno, "todo-tag")) {
      for (const std::string_view marker : {std::string_view("TODO"),
                                            std::string_view("FIXME")}) {
        for (std::size_t pos = comment_line.find(marker);
             pos != std::string::npos;
             pos = comment_line.find(marker, pos + 1)) {
          if (!word_at(comment_line, pos, marker.size())) continue;
          const std::size_t j = pos + marker.size();
          bool tagged = j + 2 < comment_line.size() &&
                        comment_line[j] == '(' && comment_line[j + 1] == '#';
          if (tagged) {
            std::size_t k = j + 2;
            while (k < comment_line.size() &&
                   std::isdigit(static_cast<unsigned char>(comment_line[k])))
              ++k;
            tagged = k > j + 2 && k < comment_line.size() &&
                     comment_line[k] == ')';
          }
          if (!tagged) {
            emit(lineno, "todo-tag",
                 std::string(marker) +
                     " without an issue tag; write " + std::string(marker) +
                     "(#<issue>) so deferred work stays trackable");
            break;
          }
        }
      }
    }

    if (has_begin) {
      if (in_hot) {
        emit(lineno, "hot-region",
             "nested hot-region begin (previous begin at line " +
                 std::to_string(hot_begin_line) + ")");
      }
      in_hot = true;
      hot_begin_line = lineno;
    }
  }
  if (in_hot)
    emit(hot_begin_line, "hot-region",
         "hot region opened here is never closed");

  return findings;
}

std::vector<Finding> lint_tree(const std::string& root,
                               const std::vector<std::string>& subdirs) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& sub : subdirs) {
    const fs::path dir = fs::path(root) / sub;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp" && ext != ".h") continue;
      files.push_back(
          fs::relative(entry.path(), root).generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<Finding> findings;
  for (const std::string& file : files) {
    std::ifstream in(fs::path(root) / file, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + file);
    std::ostringstream content;
    content << in.rdbuf();
    const std::vector<Finding> f = lint_source(file, content.str());
    findings.insert(findings.end(), f.begin(), f.end());
  }
  return findings;
}

}  // namespace renoc::lint
