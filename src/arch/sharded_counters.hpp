// Per-thread sharded counters: single-writer shards, summed at read time.
//
// A counter that many threads bump on one cache line serializes them on
// that line: every increment is a `lock add` that must own it exclusively.
// Here each (thread, ShardedCounters instance) pair owns a cache-line-
// aligned shard — the per-producer ownership moodycamel's ConcurrentQueue
// gives its producer-local blocks — so an increment is a plain load + store
// to a line no other thread writes. The owner is the shard's only writer,
// which is what makes the non-RMW increment exact.
//
// Readers sum every shard under the instance's list lock. While writers
// run, a sum is a monotone snapshot; it is exact once every writer has
// joined (or otherwise synchronized with the reader, e.g. through a
// barrier or a completed future).
//
// A thread finds its shard through a one-entry thread_local cache keyed on
// the instance's process-unique id — never on its address: an instance
// freed and re-created at the same address (one per SPMD launch, say) must
// not inherit a cache entry that points into the old instance's freed
// shards. A miss takes the lock and reuses the shard this thread already
// owns in the instance, or appends a new one, so a thread alternating
// between instances does not grow either list.
//
// Shards are freed with the instance: every writer must be past its last
// increment before the instance is destroyed.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "arch/cacheline.hpp"
#include "arch/spinlock.hpp"

namespace arch {

namespace sharded_detail {

// Process-unique, never-recycled ids for instances and threads (0 = none).
inline std::atomic<std::uint64_t> next_id{1};

inline std::uint64_t fresh_id() {
  return next_id.fetch_add(1, std::memory_order_relaxed);
}

inline constinit thread_local std::uint64_t tls_thread_id = 0;

inline std::uint64_t this_thread_id() {
  if (tls_thread_id == 0) tls_thread_id = fresh_id();
  return tls_thread_id;
}

}  // namespace sharded_detail

// Key: an enum class whose enumerators index the counters, ending in kCount.
template <typename Key>
class alignas(cacheline_size) ShardedCounters {
 public:
  static constexpr std::size_t kCount = static_cast<std::size_t>(Key::kCount);

  struct Snapshot {
    std::array<std::uint64_t, kCount> v{};
    std::uint64_t operator[](Key k) const {
      return v[static_cast<std::size_t>(k)];
    }
  };

  ShardedCounters() = default;
  ~ShardedCounters() {
    for (Shard* s = head_; s;) {
      Shard* next = s->next;
      delete s;
      s = next;
    }
  }
  ShardedCounters(const ShardedCounters&) = delete;
  ShardedCounters& operator=(const ShardedCounters&) = delete;

  void inc(Key k) {
    auto& c = local().v[static_cast<std::size_t>(k)];
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  Snapshot sum() const {
    Snapshot out;
    SpinGuard g(mu_);
    for (const Shard* s = head_; s; s = s->next)
      for (std::size_t i = 0; i < kCount; ++i)
        out.v[i] += s->v[i].load(std::memory_order_relaxed);
    return out;
  }

  // Shards in the list (one per thread that ever incremented).
  std::size_t shards() const {
    SpinGuard g(mu_);
    std::size_t n = 0;
    for (const Shard* s = head_; s; s = s->next) ++n;
    return n;
  }

 private:
  struct alignas(cacheline_size) Shard {
    std::array<std::atomic<std::uint64_t>, kCount> v{};
    std::uint64_t owner = 0;  // sharded_detail::this_thread_id()
    Shard* next = nullptr;
  };
  struct Cache {
    std::uint64_t id;
    Shard* shard;
  };
  static inline constinit thread_local Cache tls_cache{0, nullptr};

  Shard& local() {
    if (tls_cache.id == id_) [[likely]]
      return *tls_cache.shard;
    return attach();
  }

  [[gnu::noinline]] Shard& attach() {
    const std::uint64_t me = sharded_detail::this_thread_id();
    Shard* mine = nullptr;
    {
      SpinGuard g(mu_);
      for (Shard* s = head_; s && !mine; s = s->next)
        if (s->owner == me) mine = s;
      if (!mine) {
        mine = new Shard;
        mine->owner = me;
        mine->next = head_;
        head_ = mine;
      }
    }
    tls_cache = {id_, mine};
    return *mine;
  }

  // Alone on the instance's cache line with the list head: the id is read
  // on every increment, so no frequently written field may share it.
  const std::uint64_t id_ = sharded_detail::fresh_id();
  mutable Spinlock mu_;
  Shard* head_ = nullptr;  // guarded by mu_
};

}  // namespace arch
