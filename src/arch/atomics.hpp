// Relaxed atomic accessors over plain counter fields (C++20 atomic_ref).
//
// Stats structs (AmEngine::Stats, XferEngine::Stats, ...) keep plain
// std::uint64_t members so existing readers — benches printing fields,
// tests comparing them after a quiesce — stay source-compatible, while
// every *increment* goes through an atomic_ref: with injector threads and
// progress-pool workers bumping the same counters concurrently, plain ++
// would tear and lose counts that tests assert on. Reads via relaxed_load
// are safe at any time; direct field reads remain fine wherever a
// happens-before edge (thread join, barrier) separates them from the last
// increment.
#pragma once

#include <atomic>
#include <cstdint>

namespace arch {

inline void relaxed_inc(std::uint64_t& c) {
  std::atomic_ref<std::uint64_t>(c).fetch_add(1, std::memory_order_relaxed);
}

inline void relaxed_add(std::uint64_t& c, std::uint64_t n) {
  std::atomic_ref<std::uint64_t>(c).fetch_add(n, std::memory_order_relaxed);
}

inline std::uint64_t relaxed_load(const std::uint64_t& c) {
  return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(c))
      .load(std::memory_order_relaxed);
}

// CAS-max for peak trackers (max_inflight, max_outstanding): concurrent
// writers keep the field monotone where a read-compare-store would lose
// peaks.
inline void relaxed_max(std::uint64_t& c, std::uint64_t v) {
  std::atomic_ref<std::uint64_t> r(c);
  std::uint64_t cur = r.load(std::memory_order_relaxed);
  while (cur < v &&
         !r.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace arch
