// AM-wire transport performance layer: credit-based flow control (the
// UPCXX_AM_WINDOW per-target request window with sender-side queueing) and
// ack aggregation (multi-ack records batched per poll, ack piggybacking on
// reverse traffic). These tests drive gex::RmaAmProtocol directly — raw
// polls, no upcxx progress in the measured phases — so record-level
// behavior (exactly one ack record per poll, acks riding a reverse put) is
// observable instead of averaged away.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "gex/rma_am.hpp"
#include "gex/runtime.hpp"
#include "gex/xfer.hpp"
#include "spmd_helpers.hpp"

namespace {

// Raw progress for one rank: inbox + protocol pumps, no upcxx layers.
void pump() {
  gex::am().poll();
  gex::rma_am().poll();
}

std::atomic<int> g_phase{0};
std::atomic<int> g_done{0};

TEST(AmFlowControl, WindowCapsOutstandingPerTarget) {
  g_done = 0;
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 4;
  const int fails = upcxx::run(cfg, [] {
    constexpr int kPuts = 64;
    constexpr std::size_t kBytes = 1024;
    static upcxx::global_ptr<char> remote;
    if (upcxx::rank_me() == 1) remote = upcxx::allocate<char>(kBytes);
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      auto& proto = gex::rma_am();
      EXPECT_EQ(proto.window(), 4u);
      std::vector<char> src(kBytes, 'w');
      for (int i = 0; i < kPuts; ++i)
        proto.put(1, remote.local(), src.data(), kBytes,
                  [] { g_done.fetch_add(1); });
      // The flood exceeded the window: most requests parked sender-side.
      EXPECT_GT(proto.stats().requests_queued, 0u);
      while (g_done.load() < kPuts) pump();
      const auto& st = proto.stats();
      // At no point were more than W requests unacknowledged on the wire.
      EXPECT_LE(st.max_outstanding, 4u);
      EXPECT_EQ(st.puts_sent, static_cast<std::uint64_t>(kPuts));
      EXPECT_EQ(proto.queued(), 0u);
      EXPECT_TRUE(proto.idle());
    } else {
      while (gex::rma_am().stats().puts_handled <
             static_cast<std::uint64_t>(kPuts))
        pump();
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) upcxx::deallocate(remote);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

TEST(AmFlowControl, WindowOneSerializesAndCompletes) {
  g_done = 0;
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 1;
  const int fails = upcxx::run(cfg, [] {
    constexpr int kPuts = 100;
    static upcxx::global_ptr<long> remote;
    if (upcxx::rank_me() == 1) remote = upcxx::new_array<long>(1);
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      for (long i = 0; i < kPuts; ++i)
        gex::rma_am().put(1, remote.local(), &i, sizeof i,
                          [] { g_done.fetch_add(1); });
      while (g_done.load() < kPuts) pump();
      EXPECT_EQ(gex::rma_am().stats().max_outstanding, 1u);
      EXPECT_TRUE(gex::rma_am().idle());
    } else {
      while (gex::rma_am().stats().puts_handled <
             static_cast<std::uint64_t>(kPuts))
        pump();
      // Worst-case serialization still lands every payload in order: the
      // window forces request i+1 behind request i's ack, so the final
      // value is the last put.
      EXPECT_EQ(*remote.local(), static_cast<long>(kPuts - 1));
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) upcxx::delete_array(remote, 1);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

// Both ranks flood each other through a deliberately tiny ring with a tiny
// window: rings fill, windows exhaust, sender queues overflow into the
// bounded-queue stall path — and everything must still drain, because every
// stalled sender keeps polling its own inbox (retiring the peer's credits).
TEST(AmFlowControl, MutualFloodMakesProgress) {
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 2;
  cfg.ring_bytes = 8 << 10;  // the minimum: eager records are scarce
  cfg.rma_async_min = 0;     // every rput is one protocol request
  const int fails = upcxx::run(cfg, [] {
    constexpr int kPuts = 2000;
    constexpr std::size_t kN = 128;  // 1 KB payloads
    const int me = upcxx::rank_me();
    auto mine = upcxx::new_array<long>(kN);
    std::fill_n(mine.local(), kN, -1L);
    upcxx::dist_object<upcxx::global_ptr<long>> dir(mine);
    auto peer = dir.fetch(1 - me).wait();
    upcxx::barrier();
    std::vector<long> src(kN);
    upcxx::promise<> pr;
    for (int i = 0; i < kPuts; ++i) {
      for (std::size_t j = 0; j < kN; ++j)
        src[j] = static_cast<long>(i) * 1000 + static_cast<long>(j);
      upcxx::rput(src.data(), peer, kN,
                  upcxx::operation_cx::as_promise(pr));
      if (!(i % 16)) upcxx::progress();
    }
    pr.finalize().wait();
    const auto& st = gex::rma_am().stats();
    EXPECT_LE(st.max_outstanding, 2u);
    EXPECT_LE(st.queued_peak,
              gex::rma_am().window() + gex::RmaAmProtocol::kQueueSlack);
    upcxx::barrier();
    // Peer's last put landed whole.
    EXPECT_EQ(mine.local()[0], (kPuts - 1) * 1000L);
    EXPECT_EQ(mine.local()[kN - 1],
              (kPuts - 1) * 1000L + static_cast<long>(kN) - 1);
    upcxx::barrier();
    upcxx::delete_array(mine, kN);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

// Ack batching, observed at record granularity: the target handles a burst
// of puts in one inbox poll, then its next protocol poll must emit exactly
// ONE standalone multi-ack record carrying every cookie.
TEST(AmAckAggregation, OneAckRecordPerTargetPerPoll) {
  g_phase = 0;
  g_done = 0;
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 64;
  const int fails = upcxx::run(cfg, [] {
    constexpr int kPuts = 50;
    static upcxx::global_ptr<long> remote;
    static std::atomic<int> s_parked{0};
    if (upcxx::rank_me() == 1) {
      remote = upcxx::new_array<long>(1);
      s_parked = 0;
    }
    upcxx::barrier();
    // The target must be provably outside any polling loop before the
    // burst goes out, or its barrier-exit progress consumes part of it.
    if (upcxx::rank_me() == 1) s_parked.store(1, std::memory_order_release);
    if (upcxx::rank_me() == 0) {
      while (s_parked.load(std::memory_order_acquire) < 1)
        std::this_thread::yield();
      // Burst of eager puts; the window (64) admits all of them at once.
      for (long i = 0; i < kPuts; ++i)
        gex::rma_am().put(1, remote.local(), &i, sizeof i,
                          [] { g_done.fetch_add(1); });
      EXPECT_EQ(gex::rma_am().stats().requests_queued, 0u);
      g_phase.store(1, std::memory_order_release);
      while (g_done.load() < kPuts) pump();
      EXPECT_TRUE(gex::rma_am().idle());
      g_phase.store(2, std::memory_order_release);
    } else {
      // Hold all polling until the full burst is in our ring, so one poll
      // observes it whole (thread backend: statics are shared).
      while (g_phase.load(std::memory_order_acquire) < 1)
        std::this_thread::yield();
      const auto before = gex::rma_am().stats();
      gex::am().poll(/*max_msgs=*/64);  // handles the whole burst
      const auto mid = gex::rma_am().stats();
      EXPECT_EQ(mid.puts_handled - before.puts_handled,
                static_cast<std::uint64_t>(kPuts));
      EXPECT_EQ(mid.acks_sent, before.acks_sent) << "handler injected";
      gex::rma_am().poll();  // one poll -> one multi-ack record
      const auto after = gex::rma_am().stats();
      EXPECT_EQ(after.acks_sent - before.acks_sent, 1u);
      EXPECT_EQ(after.ack_cookies_sent - before.ack_cookies_sent,
                static_cast<std::uint64_t>(kPuts));
      while (g_phase.load(std::memory_order_acquire) < 2) pump();
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) upcxx::delete_array(remote, 1);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

// The idle-poll peeks: flush_acks skips a peer on its lock-free owed count
// and flush_sendq skips an empty queue without the peer lock. They may only
// skip work that is not there — nothing owed sends nothing, an owed ack
// goes out in one record on the next flush, and a request parked behind a
// full window still leaves once its credit returns.
TEST(AmIdlePoll, PeeksSkipOnlyAbsentWork) {
  g_phase = 0;
  g_done = 0;
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 1;
  const int fails = upcxx::run(cfg, [] {
    static upcxx::global_ptr<long> remote;
    if (upcxx::rank_me() == 1) remote = upcxx::new_array<long>(2);
    upcxx::barrier();
    auto& proto = gex::rma_am();
    if (upcxx::rank_me() == 0) {
      const auto s0 = proto.stats();
      EXPECT_EQ(proto.flush_acks(), 0);
      EXPECT_EQ(proto.stats().acks_sent, s0.acks_sent);
      // Window 1: the second put parks behind the first one's credit.
      const long a = 1, b = 2;
      proto.put(1, remote.local(), &a, sizeof a, [] { g_done.fetch_add(1); });
      proto.put(1, remote.local() + 1, &b, sizeof b,
                [] { g_done.fetch_add(1); });
      EXPECT_EQ(proto.queued(), 1u);
      g_phase.store(1, std::memory_order_release);
      while (g_done.load() < 2) pump();
      EXPECT_EQ(proto.queued(), 0u);
      EXPECT_TRUE(proto.idle());
      g_phase.store(2, std::memory_order_release);
    } else {
      while (g_phase.load(std::memory_order_acquire) < 1)
        std::this_thread::yield();
      const auto before = proto.stats();
      while (proto.stats().puts_handled == before.puts_handled)
        gex::am().poll();
      EXPECT_EQ(proto.stats().acks_sent, before.acks_sent);
      EXPECT_EQ(proto.flush_acks(), 1);
      EXPECT_EQ(proto.stats().acks_sent - before.acks_sent, 1u);
      EXPECT_EQ(proto.stats().ack_cookies_sent - before.ack_cookies_sent, 1u);
      // Paid off: the next flush has nothing to send.
      EXPECT_EQ(proto.flush_acks(), 0);
      EXPECT_EQ(proto.stats().acks_sent - before.acks_sent, 1u);
      while (g_phase.load(std::memory_order_acquire) < 2) pump();
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) {
      EXPECT_EQ(remote.local()[0], 1);
      EXPECT_EQ(remote.local()[1], 2);
      upcxx::delete_array(remote, 2);
    }
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

// Ack piggybacking: a target that owes acks and then sends its own request
// in the reverse direction carries those acks on the request record — no
// standalone ack record at all.
TEST(AmAckAggregation, AcksRideReverseTraffic) {
  g_phase = 0;
  g_done = 0;
  static std::atomic<int> s_reverse_done{0};
  s_reverse_done = 0;
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 64;
  const int fails = upcxx::run(cfg, [] {
    constexpr int kPuts = 20;
    static upcxx::global_ptr<long> remote0, remote1;
    static std::atomic<int> s_parked{0};
    if (upcxx::rank_me() == 0) remote0 = upcxx::new_array<long>(1);
    if (upcxx::rank_me() == 1) {
      remote1 = upcxx::new_array<long>(1);
      s_parked = 0;
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) s_parked.store(1, std::memory_order_release);
    if (upcxx::rank_me() == 0) {
      while (s_parked.load(std::memory_order_acquire) < 1)
        std::this_thread::yield();
      for (long i = 0; i < kPuts; ++i)
        gex::rma_am().put(1, remote1.local(), &i, sizeof i,
                          [] { g_done.fetch_add(1); });
      g_phase.store(1, std::memory_order_release);
      // Serve rank 1's reverse put and collect our piggybacked acks; our
      // completions must all fire even though no ack record was sent.
      while (g_done.load() < kPuts) pump();
      EXPECT_TRUE(gex::rma_am().idle());
      g_phase.store(2, std::memory_order_release);
    } else {
      while (g_phase.load(std::memory_order_acquire) < 1)
        std::this_thread::yield();
      gex::am().poll(64);  // handle the burst: now we owe 20 acks
      const auto before = gex::rma_am().stats();
      // Reverse-direction request: the owed acks ride along.
      long v = 4242;
      gex::rma_am().put(0, remote0.local(), &v, sizeof v,
                        [] { s_reverse_done.fetch_add(1); });
      const auto after = gex::rma_am().stats();
      EXPECT_EQ(after.acks_piggybacked - before.acks_piggybacked,
                static_cast<std::uint64_t>(kPuts));
      EXPECT_EQ(after.acks_sent, before.acks_sent)
          << "standalone ack record sent despite reverse traffic";
      while (s_reverse_done.load() == 0) pump();
      while (g_phase.load(std::memory_order_acquire) < 2) pump();
      EXPECT_EQ(*remote1.local(), static_cast<long>(kPuts - 1));
    }
    upcxx::barrier();
    EXPECT_EQ(*remote0.local(), 4242L);
    upcxx::barrier();
    if (upcxx::rank_me() == 0) upcxx::delete_array(remote0, 1);
    if (upcxx::rank_me() == 1) upcxx::delete_array(remote1, 1);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

// The staged-put bounce pool recycles: a long stream of large puts to one
// target allocates at most `window` staging buffers total.
TEST(AmStagingPool, PoolBuffersRecycleAcrossAStream) {
  g_done = 0;
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 4;
  // The bounce pool under test only engages on shared-memory transports
  // (socket ships puts inline), so pin mmap against the CI matrix.
  cfg.am_transport = gex::AmTransport::kMmap;
  const int fails = upcxx::run(cfg, [] {
    constexpr int kPuts = 64;
    constexpr std::size_t kBytes = 32 << 10;  // far beyond eager_max
    static upcxx::global_ptr<char> remote;
    if (upcxx::rank_me() == 1) remote = upcxx::allocate<char>(kBytes);
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      std::vector<char> src(kBytes, 's');
      for (int i = 0; i < kPuts; ++i)
        gex::rma_am().put(1, remote.local(), src.data(), kBytes,
                          [] { g_done.fetch_add(1); });
      while (g_done.load() < kPuts) pump();
      const auto& st = gex::rma_am().stats();
      EXPECT_EQ(st.puts_staged, static_cast<std::uint64_t>(kPuts));
      // Every put beyond the first window reused a recycled buffer.
      EXPECT_LE(st.stage_allocs, 8u);
    } else {
      while (gex::rma_am().stats().puts_handled <
             static_cast<std::uint64_t>(kPuts))
        pump();
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) upcxx::deallocate(remote);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

// The staged-reply pool mirrors the put pool: a long stream of large gets
// from one target stages every reply, recycles the target's reply buffers
// (bounded allocations), and conserves racks on the initiator.
TEST(AmReplyStaging, ReplyPoolRecyclesAcrossAStream) {
  g_done = 0;
  g_phase = 0;
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 4;
  // Reply staging requires shared memory; pin mmap against the CI matrix.
  cfg.am_transport = gex::AmTransport::kMmap;
  const int fails = upcxx::run(cfg, [] {
    constexpr int kGets = 64;
    constexpr std::size_t kBytes = 32 << 10;  // far beyond eager_max
    static upcxx::global_ptr<char> remote;
    if (upcxx::rank_me() == 1) {
      remote = upcxx::allocate<char>(kBytes);
      std::fill_n(remote.local(), kBytes, 'r');
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      std::vector<std::vector<char>> sinks(
          kGets, std::vector<char>(kBytes, 'x'));
      for (int i = 0; i < kGets; ++i)
        gex::rma_am().get(1, sinks[i].data(), remote.local(), kBytes,
                          [] { g_done.fetch_add(1); });
      while (g_done.load() < kGets) pump();
      const auto& st = gex::rma_am().stats();
      // Every reply arrived through the staged path and was consumed here.
      EXPECT_EQ(st.staged_replies_handled,
                static_cast<std::uint64_t>(kGets));
      for (const auto& s : sinks)
        ASSERT_EQ(s[0], 'r');
      // Rack conservation: each consumed staged reply was acknowledged
      // through exactly one channel.
      while (!gex::rma_am().idle()) pump();
      EXPECT_EQ(st.reply_ack_cookies_sent + st.reply_acks_piggybacked,
                st.staged_replies_handled);
      g_phase.store(1, std::memory_order_release);
    } else {
      while (g_phase.load(std::memory_order_acquire) < 1) pump();
      while (!gex::rma_am().idle()) pump();  // last racks may be in flight
      const auto& st = gex::rma_am().stats();
      EXPECT_EQ(st.replies_staged, static_cast<std::uint64_t>(kGets));
      EXPECT_EQ(st.reply_fallbacks, 0u);
      // Every reply beyond the first window reused a recycled buffer.
      EXPECT_LE(st.reply_stage_allocs, 8u);
      EXPECT_GT(st.reply_pool_hits, 0u);
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) upcxx::deallocate(remote);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

// Reply-pool exhaustion falls back to the rendezvous REPLY path: the
// replier runs a private protocol instance whose window (2) is smaller
// than the initiator's (8), so a burst of 8 large gets finds the staged
// bound exhausted after two replies — the rest must still complete through
// the old path, with intact payloads.
TEST(AmReplyStaging, ExhaustedPoolFallsBackToRendezvous) {
  g_done = 0;
  g_phase = 0;
  gex::Config cfg = testutil::test_cfg(2);
  cfg.rma_wire = gex::RmaWire::kAm;
  cfg.am_window = 8;
  // Staged replies and the rendezvous fallback both assume shared
  // memory; pin mmap against the CI matrix.
  cfg.am_transport = gex::AmTransport::kMmap;
  const int fails = upcxx::run(cfg, [] {
    constexpr int kGets = 8;
    constexpr std::size_t kBytes = 32 << 10;
    const int me = upcxx::rank_me();
    static upcxx::global_ptr<char> remote;
    static std::atomic<int> s_parked{0};
    if (me == 1) {
      remote = upcxx::allocate<char>(kBytes);
      std::fill_n(remote.local(), kBytes, 'f');
      s_parked = 0;
    }
    upcxx::barrier();
    // Swap in per-rank protocol instances with mismatched pinned windows;
    // the handlers route through gex::self()->rma_am, so both sides see
    // their own instance.
    gex::RmaAmProtocol proto(gex::self()->am, me == 1 ? 2u : 8u);
    auto* saved = gex::self()->rma_am;
    gex::self()->rma_am = &proto;
    if (me == 1) s_parked.store(1, std::memory_order_release);
    if (me == 0) {
      while (s_parked.load(std::memory_order_acquire) < 1)
        std::this_thread::yield();
      std::vector<std::vector<char>> sinks(
          kGets, std::vector<char>(kBytes, 'x'));
      for (int i = 0; i < kGets; ++i)
        proto.get(1, sinks[i].data(), remote.local(), kBytes,
                  [] { g_done.fetch_add(1); });
      g_phase.store(1, std::memory_order_release);
      while (g_done.load() < kGets) pump();
      const auto& st = proto.stats();
      // A mix: the replier staged up to its window, the rest fell back.
      EXPECT_EQ(st.staged_replies_handled, 2u);
      for (const auto& s : sinks)
        ASSERT_EQ(s[kBytes - 1], 'f');
      while (!proto.idle()) pump();
      g_phase.store(2, std::memory_order_release);
    } else {
      // Hold all polling until the full burst is in our ring, then serve
      // it in one poll: 2 staged replies (the bound), 6 fallbacks.
      while (g_phase.load(std::memory_order_acquire) < 1)
        std::this_thread::yield();
      gex::am().poll(/*max_msgs=*/64);
      proto.poll();
      const auto& st = proto.stats();
      EXPECT_EQ(st.gets_handled, static_cast<std::uint64_t>(kGets));
      EXPECT_EQ(st.replies_sent, static_cast<std::uint64_t>(kGets));
      EXPECT_EQ(st.replies_staged, 2u);
      EXPECT_EQ(st.reply_fallbacks, 6u);
      while (g_phase.load(std::memory_order_acquire) < 2) pump();
      while (!proto.idle()) pump();
    }
    upcxx::barrier();
    gex::self()->rma_am = saved;
    upcxx::barrier();
    if (me == 1) upcxx::deallocate(remote);
    upcxx::barrier();
  });
  EXPECT_EQ(fails, 0);
}

}  // namespace
