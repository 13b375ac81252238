#include "support/alloc_guard.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

#include "util/check.hpp"

namespace {

// Relaxed ordering is sufficient: scopes only ever read a snapshot delta
// on the thread that owns the guard, and cross-thread counts are summed
// commutatively. Keeping the counters lock-free also keeps the interposed
// operators safe under ThreadSanitizer.
std::atomic<std::int64_t> g_alloc_count{0};
std::atomic<std::int64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t size) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(static_cast<std::int64_t>(size),
                          std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

}  // namespace

// Replacement global allocation functions, counted into the totals the
// accessors below read.
void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms must be replaced alongside the throwing ones: libstdc++
// reaches them directly (e.g. std::stable_sort's temporary buffer), and
// under ASan a default-operator-new allocation freed by our replacement
// delete would report as an alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace renoc {
namespace alloc_guard {

AllocTotals totals() {
  return AllocTotals{g_alloc_count.load(std::memory_order_relaxed),
                     g_alloc_bytes.load(std::memory_order_relaxed)};
}

}  // namespace alloc_guard

AllocGuard::AllocGuard() : start_(alloc_guard::totals()) {}

std::int64_t AllocGuard::count() const {
  return alloc_guard::totals().count - start_.count;
}

std::int64_t AllocGuard::bytes() const {
  return alloc_guard::totals().bytes - start_.bytes;
}

void AllocGuard::check_zero(const char* what) const {
  const std::int64_t n = count();
  RENOC_CHECK_MSG(n == 0, what << ": " << n << " heap allocation(s) ("
                                << bytes()
                                << " bytes) inside an AllocGuard scope "
                                   "pinned to zero");
}

}  // namespace renoc
