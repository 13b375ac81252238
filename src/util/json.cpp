#include "util/json.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/check.hpp"

namespace renoc {

// ---------------------------------------------------------------------------
// Atomic publication
// ---------------------------------------------------------------------------

namespace {

/// POSIX close that never masks the primary error path.
void close_quietly(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace

void write_file_atomic(const std::string& path, std::string_view content) {
  // Same directory as the target, so the final rename cannot cross a
  // filesystem boundary; pid-suffixed so concurrent writer processes never
  // share a temp.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  RENOC_CHECK_MSG(fd >= 0, "atomic write: cannot create " << tmp << ": "
                                                          << std::strerror(errno));
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n =
        ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      close_quietly(fd);
      ::unlink(tmp.c_str());
      RENOC_FAIL("atomic write: write to " << tmp << " failed: "
                                           << std::strerror(err));
    }
    off += static_cast<std::size_t>(n);
  }
  // Data must be durable *before* the rename publishes the name — rename
  // first and a crash could legally expose an empty file under `path`.
  if (::fsync(fd) != 0) {
    const int err = errno;
    close_quietly(fd);
    ::unlink(tmp.c_str());
    RENOC_FAIL("atomic write: fsync " << tmp << " failed: "
                                      << std::strerror(err));
  }
  close_quietly(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    RENOC_FAIL("atomic write: rename to " << path << " failed: "
                                          << std::strerror(err));
  }
  // Durable directory entry (best effort: some filesystems refuse
  // directory fsync; the rename itself is already atomic for readers).
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : slash == 0 ? "/" : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    close_quietly(dfd);
  }
}

void AtomicFile::commit() {
  RENOC_CHECK_MSG(!committed_, "AtomicFile: double commit of " << path_);
  committed_ = true;
  write_file_atomic(path_, buffer_.str());
}

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

JsonWriter::JsonWriter(std::ostream& os) : os_(os) {}

JsonWriter::~JsonWriter() {
  // A half-written artifact is a bug in the bench, not a recoverable
  // condition — but throwing from a destructor terminates, so just flag
  // the file itself as malformed.
  if (!stack_.empty()) os_ << "\n<unterminated json>\n";
}

void JsonWriter::begin_value() {
  RENOC_CHECK_MSG(!done_, "json: value after the root value closed");
  if (after_key_) {
    after_key_ = false;
    return;  // continue the "key": line
  }
  RENOC_CHECK_MSG(stack_.empty() || stack_.back() != Scope::kObject,
                  "json: object member needs key() first");
  if (!stack_.empty()) {
    if (!first_in_scope_) os_ << ",";
    os_ << "\n";
    for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
  }
  first_in_scope_ = false;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  RENOC_CHECK_MSG(!stack_.empty() && stack_.back() == Scope::kObject,
                  "json: key() outside an object");
  RENOC_CHECK_MSG(!after_key_, "json: key() twice without a value");
  if (!first_in_scope_) os_ << ",";
  os_ << "\n";
  for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
  first_in_scope_ = false;
  write_escaped(k);  // keys share the string escaping
  os_ << ": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  begin_value();
  os_ << "{";
  stack_.push_back(Scope::kObject);
  first_in_scope_ = true;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  RENOC_CHECK_MSG(!stack_.empty() && stack_.back() == Scope::kObject &&
                      !after_key_,
                  "json: unbalanced end_object()");
  stack_.pop_back();
  if (!first_in_scope_) {
    os_ << "\n";
    for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
  }
  os_ << "}";
  first_in_scope_ = false;
  if (stack_.empty()) {
    os_ << "\n";
    done_ = true;
  }
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  begin_value();
  os_ << "[";
  stack_.push_back(Scope::kArray);
  first_in_scope_ = true;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  RENOC_CHECK_MSG(!stack_.empty() && stack_.back() == Scope::kArray,
                  "json: unbalanced end_array()");
  stack_.pop_back();
  if (!first_in_scope_) {
    os_ << "\n";
    for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
  }
  os_ << "]";
  first_in_scope_ = false;
  if (stack_.empty()) {
    os_ << "\n";
    done_ = true;
  }
  return *this;
}

JsonWriter& JsonWriter::real(double v, int precision) {
  RENOC_CHECK_MSG(std::isfinite(v), "json: non-finite real");
  RENOC_CHECK(precision >= 0 && precision <= 17);
  begin_value();
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  os_ << buf;
  return *this;
}

JsonWriter& JsonWriter::integer(long long v) {
  begin_value();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::uinteger(unsigned long long v) {
  begin_value();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::boolean(bool v) {
  begin_value();
  os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::string(std::string_view v) {
  begin_value();
  write_escaped(v);
  return *this;
}

void JsonWriter::write_escaped(std::string_view v) {
  os_ << '"';
  for (char c : v) {
    switch (c) {
      case '"': os_ << "\\\""; break;
      case '\\': os_ << "\\\\"; break;
      case '\n': os_ << "\\n"; break;
      case '\t': os_ << "\\t"; break;
      case '\r': os_ << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os_ << buf;
        } else {
          os_ << c;
        }
    }
  }
  os_ << '"';
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    RENOC_CHECK_MSG(pos_ == text_.size(), "json parse: trailing garbage");
    return v;
  }

 private:
  // Containers nest by recursion, so un-bounded depth turns a hostile (or
  // merely truncated-and-repaired) document into a stack overflow — which
  // no CheckError can catch. 256 is far beyond any record the repo writes
  // (benches nest 4-5 deep) while keeping worst-case stack use trivial.
  static constexpr int kMaxDepth = 256;

  struct DepthGuard {
    explicit DepthGuard(int& depth) : depth_(depth) {
      RENOC_CHECK_MSG(++depth_ <= kMaxDepth,
                      "json parse: nesting deeper than " << kMaxDepth);
    }
    ~DepthGuard() { --depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;

   private:
    int& depth_;
  };

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    RENOC_CHECK_MSG(pos_ < text_.size(), "json parse: unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    RENOC_CHECK_MSG(pos_ < text_.size() && text_[pos_] == c,
                    "json parse: expected '" + std::string(1, c) + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.str_v = parse_string();
        return v;
      }
      case 't': {
        RENOC_CHECK_MSG(consume_literal("true"), "json parse: bad literal");
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.bool_v = true;
        return v;
      }
      case 'f': {
        RENOC_CHECK_MSG(consume_literal("false"), "json parse: bad literal");
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.bool_v = false;
        return v;
      }
      case 'n': {
        RENOC_CHECK_MSG(consume_literal("null"), "json parse: bad literal");
        return JsonValue{};
      }
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    const DepthGuard guard(depth_);
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    const DepthGuard guard(depth_);
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      RENOC_CHECK_MSG(pos_ < text_.size(), "json parse: unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      RENOC_CHECK_MSG(pos_ < text_.size(), "json parse: bad escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          RENOC_CHECK_MSG(pos_ + 4 <= text_.size(), "json parse: bad \\u");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              RENOC_FAIL("json parse: bad \\u digit");
          }
          RENOC_CHECK_MSG(code < 0x80,
                          "json parse: non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default: RENOC_FAIL("json parse: unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool fractional = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E') {
        fractional = true;
        ++pos_;
        if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
          ++pos_;
      } else {
        break;
      }
    }
    RENOC_CHECK_MSG(pos_ > start && text_[start] != '.',
                    "json parse: bad number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.num_is_integer = !fractional;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    v.num_v = std::strtod(token.c_str(), &end);
    RENOC_CHECK_MSG(end != nullptr && *end == '\0',
                    "json parse: bad number token '" + token + "'");
    // strtod turns out-of-range literals (1e999) into ±inf without
    // failing; every consumer assumes finite numbers, so reject here.
    RENOC_CHECK_MSG(std::isfinite(v.num_v),
                    "json parse: number token '" + token +
                        "' overflows double");
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view k) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [key, value] : members)
    if (key == k) return &value;
  return nullptr;
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

JsonValue parse_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  RENOC_CHECK_MSG(in.good(), "cannot read json file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_json(ss.str());
}

// ---------------------------------------------------------------------------
// Golden comparison
// ---------------------------------------------------------------------------

namespace {

const char* kind_name(JsonValue::Kind k) {
  switch (k) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "bool";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray: return "array";
    case JsonValue::Kind::kObject: return "object";
  }
  return "?";
}

void diff_rec(const JsonValue& golden, const JsonValue& candidate,
              const JsonDiffOptions& opt, const std::string& path,
              std::vector<std::string>& out) {
  if (golden.kind != candidate.kind) {
    out.push_back(path + ": kind " + kind_name(candidate.kind) +
                  " != golden " + kind_name(golden.kind));
    return;
  }
  switch (golden.kind) {
    case JsonValue::Kind::kNull:
      return;
    case JsonValue::Kind::kBool:
      if (golden.bool_v != candidate.bool_v)
        out.push_back(path + ": " + (candidate.bool_v ? "true" : "false") +
                      " != golden " + (golden.bool_v ? "true" : "false"));
      return;
    case JsonValue::Kind::kString:
      if (golden.str_v != candidate.str_v)
        out.push_back(path + ": \"" + candidate.str_v + "\" != golden \"" +
                      golden.str_v + "\"");
      return;
    case JsonValue::Kind::kNumber: {
      if (golden.num_is_integer && candidate.num_is_integer) {
        if (golden.num_v != candidate.num_v) {
          char buf[160];
          std::snprintf(buf, sizeof buf,
                        "%s: %.0f != golden %.0f (integer fields compare "
                        "exactly)",
                        path.c_str(), candidate.num_v, golden.num_v);
          out.push_back(buf);
        }
        return;
      }
      const double tol = std::max(opt.abs_tol,
                                  opt.rel_tol * std::fabs(golden.num_v));
      if (!(std::fabs(golden.num_v - candidate.num_v) <= tol)) {
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "%s: %.9g != golden %.9g (|diff| %.3g > tol %.3g)",
                      path.c_str(), candidate.num_v, golden.num_v,
                      std::fabs(golden.num_v - candidate.num_v), tol);
        out.push_back(buf);
      }
      return;
    }
    case JsonValue::Kind::kArray: {
      if (golden.items.size() != candidate.items.size()) {
        out.push_back(path + ": length " +
                      std::to_string(candidate.items.size()) + " != golden " +
                      std::to_string(golden.items.size()));
        return;
      }
      for (std::size_t i = 0; i < golden.items.size(); ++i)
        diff_rec(golden.items[i], candidate.items[i], opt,
                 path + "[" + std::to_string(i) + "]", out);
      return;
    }
    case JsonValue::Kind::kObject: {
      for (const auto& [key, gv] : golden.members) {
        if (json_key_is_timing(key)) continue;
        const JsonValue* cv = candidate.find(key);
        if (cv == nullptr) {
          out.push_back(path + "." + key + ": missing from candidate");
          continue;
        }
        diff_rec(gv, *cv, opt, path + "." + key, out);
      }
      for (const auto& [key, cv] : candidate.members) {
        if (json_key_is_timing(key)) continue;
        if (golden.find(key) == nullptr)
          out.push_back(path + "." + key + ": not in golden");
      }
      return;
    }
  }
}

}  // namespace

bool json_key_is_timing(std::string_view key) {
  if (key == "ms") return true;
  return key.size() > 3 && key.substr(key.size() - 3) == "_ms";
}

std::vector<std::string> diff_json(const JsonValue& golden,
                                   const JsonValue& candidate,
                                   const JsonDiffOptions& opt) {
  std::vector<std::string> out;
  diff_rec(golden, candidate, opt, "$", out);
  return out;
}

}  // namespace renoc
