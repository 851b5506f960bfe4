// Unit tests for the architecture-support layer: alignment helpers,
// spinlock, MPSC ring, UniqueFunction, PRNG determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "arch/cacheline.hpp"
#include "arch/ring.hpp"
#include "arch/rng.hpp"
#include "arch/sharded_counters.hpp"
#include "arch/small_fn.hpp"
#include "arch/spinlock.hpp"
#include "arch/timer.hpp"

namespace {

TEST(Cacheline, AlignUp) {
  EXPECT_EQ(arch::align_up(0, 8), 0u);
  EXPECT_EQ(arch::align_up(1, 8), 8u);
  EXPECT_EQ(arch::align_up(8, 8), 8u);
  EXPECT_EQ(arch::align_up(9, 8), 16u);
  EXPECT_EQ(arch::align_up(63, 64), 64u);
  EXPECT_EQ(arch::align_up(65, 64), 128u);
}

TEST(Cacheline, IsPow2) {
  EXPECT_FALSE(arch::is_pow2(0));
  EXPECT_TRUE(arch::is_pow2(1));
  EXPECT_TRUE(arch::is_pow2(2));
  EXPECT_FALSE(arch::is_pow2(3));
  EXPECT_TRUE(arch::is_pow2(1ull << 40));
}

TEST(Cacheline, PaddedPreventsFalseSharingLayout) {
  arch::Padded<int> a[2];
  auto d = reinterpret_cast<std::byte*>(&a[1]) -
           reinterpret_cast<std::byte*>(&a[0]);
  EXPECT_GE(static_cast<std::size_t>(d), arch::cacheline_size);
}

TEST(Spinlock, MutualExclusionUnderContention) {
  arch::Spinlock lock;
  long counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        arch::SpinGuard g(lock);
        ++counter;
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(Spinlock, TryLock) {
  arch::Spinlock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

enum class Ctr : std::size_t { a, b, kCount };
using Counters = arch::ShardedCounters<Ctr>;

TEST(ShardedCounters, ExactAfterJoinMonotoneBefore) {
  Counters c;
  constexpr int kThreads = 4;
  constexpr int kIters = 50000;
  std::atomic<int> alive{kThreads};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) c.inc(Ctr::a);
      for (int i = 0; i <= t; ++i) c.inc(Ctr::b);
      alive.fetch_sub(1, std::memory_order_release);
    });
  }
  // A reader racing the writers sees per-counter monotone snapshots.
  std::uint64_t last_a = 0, last_b = 0;
  while (alive.load(std::memory_order_acquire) != 0) {
    const auto s = c.sum();
    EXPECT_GE(s[Ctr::a], last_a);
    EXPECT_GE(s[Ctr::b], last_b);
    last_a = s[Ctr::a];
    last_b = s[Ctr::b];
  }
  for (auto& t : ts) t.join();
  const auto s = c.sum();
  EXPECT_EQ(s[Ctr::a], static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(s[Ctr::b],
            static_cast<std::uint64_t>(kThreads * (kThreads + 1) / 2));
  // One shard per writer; the reader never incremented, so it has none.
  EXPECT_EQ(c.shards(), static_cast<std::size_t>(kThreads));
}

TEST(ShardedCounters, FreshInstanceAtRecycledAddress) {
  // The writer's shard cache is keyed on instance identity, not address:
  // a new instance in the old one's storage starts from zero and counts
  // into its own shards.
  std::optional<Counters> slot;
  slot.emplace();
  const void* addr = &*slot;
  for (int i = 0; i < 5; ++i) slot->inc(Ctr::a);
  EXPECT_EQ(slot->sum()[Ctr::a], 5u);
  slot.reset();
  slot.emplace();
  ASSERT_EQ(static_cast<const void*>(&*slot), addr);
  EXPECT_EQ(slot->sum()[Ctr::a], 0u);
  slot->inc(Ctr::a);
  EXPECT_EQ(slot->sum()[Ctr::a], 1u);
  EXPECT_EQ(slot->shards(), 1u);
}

TEST(ShardedCounters, AlternatingThreadKeepsOneShardPerInstance) {
  Counters x, y;
  for (int i = 0; i < 100; ++i) {
    x.inc(Ctr::a);
    y.inc(Ctr::b);
  }
  EXPECT_EQ(x.sum()[Ctr::a], 100u);
  EXPECT_EQ(y.sum()[Ctr::b], 100u);
  EXPECT_EQ(x.shards(), 1u);
  EXPECT_EQ(y.shards(), 1u);
}

class RingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mem_.resize(arch::MpscByteRing::footprint(kCap));
    ring_ = arch::MpscByteRing::create(mem_.data(), kCap);
  }
  static constexpr std::size_t kCap = 4096;
  std::vector<std::byte> mem_;
  arch::MpscByteRing* ring_ = nullptr;
};

TEST_F(RingTest, EmptyInitially) {
  EXPECT_TRUE(ring_->empty());
  bool consumed = ring_->try_consume([](void*, std::size_t) { FAIL(); });
  EXPECT_FALSE(consumed);
}

TEST_F(RingTest, SingleRoundTrip) {
  const char msg[] = "hello ring";
  auto t = ring_->try_reserve(sizeof(msg));
  ASSERT_NE(t.payload, nullptr);
  std::memcpy(t.payload, msg, sizeof(msg));
  arch::MpscByteRing::commit(t);
  bool got = ring_->try_consume([&](void* p, std::size_t n) {
    EXPECT_EQ(n, sizeof(msg));
    EXPECT_EQ(0, std::memcmp(p, msg, n));
  });
  EXPECT_TRUE(got);
  EXPECT_TRUE(ring_->empty());
}

TEST_F(RingTest, UncommittedRecordBlocksConsumer) {
  auto t1 = ring_->try_reserve(16);
  ASSERT_NE(t1.payload, nullptr);
  auto t2 = ring_->try_reserve(16);
  ASSERT_NE(t2.payload, nullptr);
  std::memset(t2.payload, 0xAB, 16);
  arch::MpscByteRing::commit(t2);
  // t1 precedes t2 and is not committed: nothing may be consumed yet.
  EXPECT_FALSE(ring_->try_consume([](void*, std::size_t) { FAIL(); }));
  arch::MpscByteRing::commit(t1);
  int seen = 0;
  while (ring_->try_consume([&](void*, std::size_t) { ++seen; })) {
  }
  EXPECT_EQ(seen, 2);
}

TEST_F(RingTest, FillsAndReportsFull) {
  // Fill with fixed-size records until reservation fails.
  int count = 0;
  for (;;) {
    auto t = ring_->try_reserve(64);
    if (!t.payload) break;
    arch::MpscByteRing::commit(t);
    ++count;
  }
  EXPECT_GT(count, 10);
  // Drain everything; ring must be usable again.
  int drained = 0;
  while (ring_->try_consume([&](void*, std::size_t n) {
    EXPECT_EQ(n, 64u);
    ++drained;
  })) {
  }
  EXPECT_EQ(drained, count);
  EXPECT_NE(ring_->try_reserve(64).payload, nullptr);
}

TEST_F(RingTest, WrapAroundPreservesFifoAndContents) {
  // Pump enough variable-size records through a small ring to force many
  // wraps, verifying FIFO order and payload integrity.
  arch::Xoshiro256 rng(42);
  std::uint32_t next_send = 0, next_recv = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::size_t n = 4 + rng.next_below(200);
    auto t = ring_->try_reserve(n);
    if (t.payload) {
      auto* p = static_cast<std::uint32_t*>(t.payload);
      *p = next_send++;
      arch::MpscByteRing::commit(t);
    }
    // Randomly interleave consumption.
    if (rng.next_below(2) == 0) {
      ring_->try_consume([&](void* q, std::size_t) {
        EXPECT_EQ(*static_cast<std::uint32_t*>(q), next_recv);
        ++next_recv;
      });
    }
  }
  while (ring_->try_consume([&](void* q, std::size_t) {
    EXPECT_EQ(*static_cast<std::uint32_t*>(q), next_recv);
    ++next_recv;
  })) {
  }
  EXPECT_EQ(next_recv, next_send);
  EXPECT_GT(next_send, 1000u);
}

TEST_F(RingTest, MultiProducerStress) {
  constexpr int kProducers = 6;
  constexpr int kPerProducer = 5000;
  std::atomic<bool> done{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        for (;;) {
          auto t = ring_->try_reserve(8);
          if (t.payload) {
            auto* w = static_cast<std::uint32_t*>(t.payload);
            w[0] = static_cast<std::uint32_t>(p);
            w[1] = static_cast<std::uint32_t>(i);
            arch::MpscByteRing::commit(t);
            break;
          }
          std::this_thread::yield();
        }
      }
    });
  }
  // Single consumer: per-producer sequences must arrive in order.
  std::vector<std::uint32_t> next(kProducers, 0);
  std::uint64_t total = 0;
  while (total < static_cast<std::uint64_t>(kProducers) * kPerProducer) {
    ring_->try_consume([&](void* q, std::size_t n) {
      ASSERT_EQ(n, 8u);
      auto* w = static_cast<std::uint32_t*>(q);
      ASSERT_LT(w[0], static_cast<std::uint32_t>(kProducers));
      EXPECT_EQ(w[1], next[w[0]]);
      ++next[w[0]];
      ++total;
    });
  }
  done.store(true);
  for (auto& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p)
    EXPECT_EQ(next[p], static_cast<std::uint32_t>(kPerProducer));
}

TEST(SmallFn, InlineLambda) {
  int x = 5;
  arch::UniqueFunction<int(int)> f = [x](int y) { return x + y; };
  ASSERT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(3), 8);
}

TEST(SmallFn, MoveOnlyCapture) {
  auto p = std::make_unique<int>(41);
  arch::UniqueFunction<int()> f = [p = std::move(p)] { return *p + 1; };
  EXPECT_EQ(f(), 42);
}

TEST(SmallFn, HeapFallbackForLargeCapture) {
  struct Big {
    char data[256];
  };
  Big big{};
  big.data[0] = 7;
  arch::UniqueFunction<int()> f = [big] { return static_cast<int>(big.data[0]); };
  EXPECT_EQ(f(), 7);
}

TEST(SmallFn, MoveTransfersOwnership) {
  arch::UniqueFunction<int()> f = [] { return 1; };
  arch::UniqueFunction<int()> g = std::move(f);
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(g));
  EXPECT_EQ(g(), 1);
}

TEST(SmallFn, DestructorRunsCapturedState) {
  auto flag = std::make_shared<int>(0);
  {
    arch::UniqueFunction<void()> f = [holder = flag] { (void)holder; };
    EXPECT_EQ(flag.use_count(), 2);
  }
  EXPECT_EQ(flag.use_count(), 1);
}

TEST(Rng, DeterministicAcrossInstances) {
  arch::Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BoundsRespected) {
  arch::Xoshiro256 r(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, RoughlyUniform) {
  arch::Xoshiro256 r(7);
  std::vector<int> buckets(10, 0);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++buckets[r.next_below(10)];
  for (int b : buckets) {
    EXPECT_GT(b, kN / 10 - kN / 50);
    EXPECT_LT(b, kN / 10 + kN / 50);
  }
}

TEST(Timer, MonotonicAndMeasures) {
  auto t0 = arch::now_ns();
  arch::Stopwatch sw;
  sw.start();
  volatile long sink = 0;
  for (long i = 0; i < 1000000; ++i) sink = sink + i;
  sw.stop();
  auto t1 = arch::now_ns();
  EXPECT_GE(t1, t0);
  EXPECT_GT(sw.elapsed_ns(), 0u);
  EXPECT_LE(sw.elapsed_ns(), t1 - t0);
}

}  // namespace
