// Span recorder for the benchmark's traced runs.
//
// Spans are opened by the benchmark around its own calls into the library's
// public functions (never inside the library), kept in memory, and written
// once at the end of the run as Chrome trace-event JSON, which Perfetto
// (ui.perfetto.dev) and chrome://tracing open with nothing to install.
//
// Span names are "<layer>.<call>", where the layer is the src/ module the
// call belongs to (core, ldpc, noc, mapping, thermal, power, util). The
// benchmark's own glue runs inside the root spans "setup" and "pass". A
// span's self time is its duration minus the part of that interval its
// direct children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  Clock::time_point start{};
  Clock::time_point end{};
  std::uint64_t cycles = 0;  ///< simulated fabric cycles the call advanced
  int routers = 0;           ///< routers in the fabric those cycles stepped

  double seconds() const {
    return std::chrono::duration<double>(end - start).count();
  }
};

/// Single-threaded span stack.
class Tracer {
 public:
  Tracer();

  int begin(std::string_view name);
  void end(int id);
  void annotate(int id, std::uint64_t cycles, int routers);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, indexed like spans().
  std::vector<double> self_seconds() const;

  /// Writes the spans as Chrome trace-event JSON; `other_data` fills the
  /// "otherData" object with run metadata.
  void write_chrome_json(
      const std::string& path,
      const std::function<void(renoc::JsonWriter&)>& other_data) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span for the lifetime of the scope.
class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name)
      : tracer_(&tracer), id_(tracer.begin(name)) {}
  ~Scope() { tracer_->end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void cycles(std::uint64_t cycles, int routers) {
    tracer_->annotate(id_, cycles, routers);
  }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
