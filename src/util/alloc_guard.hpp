// Steady-state allocation guard.
//
// The engine contract established by PRs 3–5 is that every warmed hot path
// (Fabric::step, MinSumDecoder::decode_into, MigrationThermalRuntime::run,
// the SparseLdlt solves) performs ZERO heap allocations. This header
// counts heap allocations in a scope so unit tests can pin that invariant
// in every CI configuration (Debug, Release, and all sanitizer builds).
//
// How interposition works: alloc_guard.cpp defines replacement
// operator new/delete — guarded by the RENOC_ALLOC_GUARD build option —
// in the SAME translation unit as totals()/instrumented(). A binary that
// references the guard API therefore pulls the replacement operators out
// of the static library, and a binary that does not is left completely
// untouched. Scalar and array forms are counted; over-aligned forms fall
// through to the default operators and go uncounted (none of the guarded
// paths are over-aligned).
//
// Usage:
//
//   warmed_path();                     // warm caches / high-water marks
//   AllocGuard guard;
//   warmed_path();
//   guard.check_zero("warmed_path");   // throws CheckError on any alloc
//
// When the build option is off, instrumented() returns false, counters
// stay zero, and check_zero() is a no-op — callers that require a real
// measurement should skip.
#pragma once

#include <cstdint>

namespace renoc {

/// Cumulative interposition counters since process start.
struct AllocTotals {
  std::int64_t count = 0;  ///< operator new / new[] calls
  std::int64_t bytes = 0;  ///< bytes requested by those calls
};

namespace alloc_guard {

/// True when the replacement operator new/delete are compiled in
/// (RENOC_ALLOC_GUARD build option) and linked into this binary.
bool instrumented();

/// Current cumulative counters (zero when not instrumented).
AllocTotals totals();

}  // namespace alloc_guard

/// RAII scope recorder: snapshots the counters at construction and reports
/// the allocation count/bytes observed since.
class AllocGuard {
 public:
  AllocGuard();

  /// Allocations observed since construction.
  std::int64_t count() const;
  /// Bytes requested by those allocations.
  std::int64_t bytes() const;

  /// Throws CheckError when the scope allocated and the binary is
  /// instrumented; silently passes otherwise. `what` names the guarded
  /// path in the failure message.
  void check_zero(const char* what) const;

 private:
  AllocTotals start_;
};

}  // namespace renoc
