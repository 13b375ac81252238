#include "util/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>

#include "util/check.hpp"

namespace renoc::sweep {

// ---------------------------------------------------------------------------
// Scenario indexing
// ---------------------------------------------------------------------------

std::int64_t axis_product(const std::vector<std::int64_t>& shape) {
  RENOC_CHECK_MSG(!shape.empty(), "axis shape must have at least one axis");
  std::int64_t total = 1;
  for (const std::int64_t n : shape) {
    RENOC_CHECK_MSG(n >= 1, "axis size must be >= 1, got " << n);
    RENOC_CHECK_MSG(total <= INT64_MAX / n, "axis product overflows int64");
    total *= n;
  }
  return total;
}

void decode_scenario_index(std::int64_t index,
                           const std::vector<std::int64_t>& shape,
                           std::vector<std::int64_t>& digits) {
  RENOC_CHECK_MSG(index >= 0, "scenario index must be >= 0, got " << index);
  digits.resize(shape.size());
  std::int64_t rest = index;
  // Last axis fastest: peel digits from the innermost loop outward, the
  // same order the harnesses' nested loops enumerate.
  for (std::size_t k = shape.size(); k-- > 0;) {
    RENOC_CHECK_MSG(shape[k] >= 1, "axis size must be >= 1, got " << shape[k]);
    digits[k] = rest % shape[k];
    rest /= shape[k];
  }
  RENOC_CHECK_MSG(rest == 0, "scenario index " << index
                                               << " outside the axis shape");
}

// ---------------------------------------------------------------------------
// RNG, validation, worker boilerplate
// ---------------------------------------------------------------------------

Rng scenario_rng(std::uint64_t seed, std::int64_t scenario_index) {
  RENOC_CHECK(scenario_index >= 0);
  return Rng(derive_stream_seed(seed,
                                static_cast<std::uint64_t>(scenario_index)));
}

void require_axis(bool non_empty, const char* axis) {
  RENOC_CHECK_MSG(non_empty, "sweep needs at least one " << axis);
}

void require_threads(int threads) {
  RENOC_CHECK_MSG(threads >= 1,
                  "sweep threads must be >= 1, got " << threads);
}

int clamp_workers(int threads, std::int64_t jobs) {
  require_threads(threads);
  return static_cast<int>(
      std::max<std::int64_t>(1, std::min<std::int64_t>(threads, jobs)));
}

namespace {

/// Runs body(0..workers-1) on `workers` threads (inline when workers == 1,
/// so single-threaded sweeps stay debuggable).
void run_workers(int workers, const std::function<void(int)>& body) {
  RENOC_CHECK(workers >= 1);
  if (workers == 1) {
    body(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back([&body, w] { body(w); });
  for (std::thread& t : pool) t.join();
}

}  // namespace

// ---------------------------------------------------------------------------
// The scenario loop
// ---------------------------------------------------------------------------

void run_scenarios(std::int64_t count, int threads,
                   const std::function<void(int, std::int64_t)>& body) {
  std::atomic<std::int64_t> cursor{0};
  std::atomic<bool> abort{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  run_workers(clamp_workers(threads, count), [&](int worker) {
    while (!abort.load(std::memory_order_relaxed)) {
      const std::int64_t scenario =
          cursor.fetch_add(1, std::memory_order_relaxed);
      if (scenario >= count) break;
      try {
        body(worker, scenario);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        abort.store(true, std::memory_order_relaxed);
        break;
      }
    }
  });
  // The joins order every slot a worker wrote before this return.
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace renoc::sweep
