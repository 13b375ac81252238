// Steady-state allocation guard (test-only).
//
// The engine contract is that every warmed hot path (Fabric::step,
// MinSumDecoder::decode_into, MigrationThermalRuntime::run, the SparseLdlt
// solves) performs ZERO heap allocations. This header counts heap
// allocations in a scope so unit tests can pin that invariant in every CI
// configuration (Debug, Release, and all sanitizer builds).
//
// How interposition works: alloc_guard.cpp defines replacement
// operator new/delete. Any object that allocates leaves operator new
// undefined, so every test binary that links the renoc_test_support
// archive pulls this member, and with it the counting operators; the
// renoc library ships none, so no production binary counts allocations.
// Scalar and array forms are counted; over-aligned forms fall through to
// the default operators and go uncounted (none of the guarded paths are
// over-aligned).
//
// Usage:
//
//   warmed_path();                     // warm caches / high-water marks
//   AllocGuard guard;
//   warmed_path();
//   guard.check_zero("warmed_path");   // throws CheckError on any alloc
#pragma once

#include <cstdint>

namespace renoc {

/// Cumulative interposition counters since process start.
struct AllocTotals {
  std::int64_t count = 0;  ///< operator new / new[] calls
  std::int64_t bytes = 0;  ///< bytes requested by those calls
};

namespace alloc_guard {

/// Current cumulative counters.
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

  /// Throws CheckError when the scope allocated. `what` names the guarded
  /// path in the failure message.
  void check_zero(const char* what) const;

 private:
  AllocTotals start_;
};

}  // namespace renoc
