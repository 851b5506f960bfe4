// Memory kinds: simulated device segments, kind-carrying global_ptr, and
// upcxx::copy across host/device/rank boundaries (the paper's §VI
// future-work direction; see device_allocator.hpp for the substitution).
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <numeric>
#include <vector>

#include "arch/timer.hpp"
#include "spmd_helpers.hpp"

using testutil::solo;
using testutil::spmd;

namespace {

using dev_ptr = upcxx::global_ptr<double, upcxx::memory_kind::sim_device>;

TEST(MemoryKinds, KindIsPartOfTheType) {
  static_assert(upcxx::global_ptr<int>::kind == upcxx::memory_kind::host);
  static_assert(dev_ptr::kind == upcxx::memory_kind::sim_device);
  static_assert(!std::is_same_v<upcxx::global_ptr<double>, dev_ptr>);
  // Device pointers remain trivially copyable (serializable RPC arguments).
  static_assert(std::is_trivially_copyable_v<dev_ptr>);
}

TEST(MemoryKinds, AllocateAndFreeDeviceMemory) {
  solo([] {
    upcxx::device_allocator<upcxx::sim_device> dev(1 << 20);
    auto a = dev.allocate<double>(128);
    ASSERT_FALSE(a.is_null());
    EXPECT_EQ(a.where(), upcxx::rank_me());
    const std::size_t free_after = dev.bytes_free();
    EXPECT_LT(free_after, dev.segment_bytes());
    dev.deallocate(a);
    EXPECT_GT(dev.bytes_free(), free_after);
  });
}

TEST(MemoryKinds, SegmentExhaustionReturnsNull) {
  solo([] {
    upcxx::device_allocator<upcxx::sim_device> dev(64 << 10);
    auto big = dev.allocate<double>((64 << 10) / sizeof(double));
    EXPECT_TRUE(big.is_null()) << "allocation exceeding segment must fail";
    // A reasonable allocation still succeeds afterwards.
    auto ok = dev.allocate<double>(512);
    EXPECT_FALSE(ok.is_null());
  });
}

TEST(MemoryKinds, OverflowingCountReturnsNull) {
  solo([] {
    // n * sizeof(T) wraps to 8 bytes; both allocators must refuse rather
    // than hand out a block for the wrapped size.
    const std::size_t n = std::numeric_limits<std::size_t>::max() / 8 + 2;
    EXPECT_TRUE(upcxx::allocate<double>(n).is_null());
    upcxx::device_allocator<upcxx::sim_device> dev(64 << 10);
    EXPECT_TRUE(dev.allocate<double>(n).is_null());
  });
}

TEST(MemoryKinds, HostDeviceRoundTripPreservesData) {
  solo([] {
    upcxx::device_allocator<upcxx::sim_device> dev(1 << 20);
    auto d = dev.allocate<double>(256);
    std::vector<double> src(256), back(256, 0.0);
    std::iota(src.begin(), src.end(), 1.0);
    upcxx::copy(src.data(), d, 256).wait();
    upcxx::copy(d, back.data(), 256).wait();
    EXPECT_EQ(src, back);
    dev.deallocate(d);
  });
}

TEST(MemoryKinds, DeviceToDeviceSameRank) {
  solo([] {
    upcxx::device_allocator<upcxx::sim_device> dev(1 << 20);
    auto a = dev.allocate<double>(64);
    auto b = dev.allocate<double>(64);
    std::vector<double> v(64, 3.25);
    upcxx::copy(v.data(), a, 64).wait();
    upcxx::copy(a, b, 64).wait();
    std::vector<double> out(64, 0.0);
    upcxx::copy(b, out.data(), 64).wait();
    EXPECT_EQ(out, v);
  });
}

TEST(MemoryKinds, RemoteDeviceCopyAcrossRanks) {
  // Rank 0 pushes into rank 1's device segment; rank 1 pulls it out of its
  // own device and checks. Device pointers travel by RPC like any
  // trivially-copyable value.
  spmd(2, [] {
    upcxx::device_allocator<upcxx::sim_device> dev(1 << 20);
    static dev_ptr shared_dst;
    if (upcxx::rank_me() == 1) {
      auto mine = dev.allocate<double>(32);
      upcxx::rpc(0, [](dev_ptr p) { shared_dst = p; }, mine).wait();
      upcxx::barrier();  // rank 0 copies here
      upcxx::barrier();
      std::vector<double> got(32, 0.0);
      upcxx::copy(mine, got.data(), 32).wait();
      for (double x : got) EXPECT_DOUBLE_EQ(x, 42.5);
    } else {
      upcxx::barrier();
      std::vector<double> v(32, 42.5);
      upcxx::copy(v.data(), shared_dst, 32).wait();
      upcxx::barrier();
    }
    upcxx::barrier();
  });
}

TEST(MemoryKinds, HostGlobalToDeviceCopy) {
  solo([] {
    upcxx::device_allocator<upcxx::sim_device> dev(1 << 20);
    auto h = upcxx::new_array<double>(100);
    auto d = dev.allocate<double>(100);
    for (int i = 0; i < 100; ++i) h.local()[i] = i * 0.5;
    upcxx::copy(h, d, 100).wait();
    std::vector<double> out(100);
    upcxx::copy(d, out.data(), 100).wait();
    for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(out[i], i * 0.5);
    upcxx::delete_array(h, 100);
  });
}

TEST(MemoryKinds, CopyHonorsPromiseCompletion) {
  solo([] {
    upcxx::device_allocator<upcxx::sim_device> dev(1 << 20);
    auto d = dev.allocate<double>(16);
    std::vector<double> v(16, 1.0);
    upcxx::promise<> pr;
    upcxx::copy(v.data(), d, 16, upcxx::operation_cx::as_promise(pr));
    pr.finalize().wait();
    std::vector<double> out(16, 0.0);
    upcxx::copy(d, out.data(), 16).wait();
    EXPECT_EQ(out, v);
  });
}

TEST(MemoryKinds, SimulatedTransferCostDelaysCompletion) {
  solo([] {
    // 10 µs per device end, no bandwidth term.
    upcxx::experimental::set_sim_device_params(10'000, 0.0);
    upcxx::device_allocator<upcxx::sim_device> dev(1 << 20);
    auto d = dev.allocate<double>(1024);
    std::vector<double> v(1024, 2.0);
    const std::uint64_t t0 = arch::now_ns();
    auto f = upcxx::copy(v.data(), d, 1024);
    EXPECT_FALSE(f.is_ready()) << "costed device copy must not complete "
                                  "synchronously";
    f.wait();
    const std::uint64_t dt = arch::now_ns() - t0;
    EXPECT_GE(dt, 10'000u);
    // Device->device is one DMA: same per-transfer toll.
    auto d2 = dev.allocate<double>(1024);
    const std::uint64_t t1 = arch::now_ns();
    upcxx::copy(d, d2, 1024).wait();
    EXPECT_GE(arch::now_ns() - t1, 10'000u);
    upcxx::experimental::set_sim_device_params(0, 0.0);
  });
}

TEST(MemoryKinds, BandwidthTermScalesWithSize) {
  solo([] {
    // 1 GB/s == 1 ns/byte: 64 KiB ≈ 65.5 µs, measurable; 64 B ≈ 64 ns.
    upcxx::experimental::set_sim_device_params(0, 1.0);
    upcxx::device_allocator<upcxx::sim_device> dev(1 << 20);
    auto d = dev.allocate<double>(8192);
    std::vector<double> v(8192, 1.0);
    const std::uint64_t t0 = arch::now_ns();
    upcxx::copy(v.data(), d, 8192).wait();
    const std::uint64_t dt = arch::now_ns() - t0;
    EXPECT_GE(dt, 65'000u);
    upcxx::experimental::set_sim_device_params(0, 0.0);
  });
}

TEST(MemoryKinds, ZeroCostDeviceCopyCompletesAtInjection) {
  solo([] {
    upcxx::experimental::set_sim_device_params(0, 0.0);
    upcxx::device_allocator<upcxx::sim_device> dev(1 << 20);
    auto d = dev.allocate<double>(8);
    std::vector<double> v(8, 9.0);
    auto f = upcxx::copy(v.data(), d, 8);
    EXPECT_TRUE(f.is_ready()) << "zero-cost local copy uses the "
                                 "synchronous fast path";
  });
}

TEST(MemoryKinds, RemoteCxFiresOnDeviceCopy) {
  static std::atomic<int> landed{0};
  landed = 0;
  spmd(2, [] {
    upcxx::device_allocator<upcxx::sim_device> dev(1 << 20);
    static dev_ptr target_buf;
    if (upcxx::rank_me() == 1) {
      auto mine = dev.allocate<double>(4);
      upcxx::rpc(0, [](dev_ptr p) { target_buf = p; }, mine).wait();
      upcxx::barrier();
      while (landed.load() == 0) upcxx::progress();
    } else {
      upcxx::barrier();
      std::vector<double> v(4, 5.0);
      upcxx::copy(v.data(), target_buf, 4,
                  upcxx::operation_cx::as_future() |
                      upcxx::remote_cx::as_rpc([] { landed.fetch_add(1); }))
          .wait();
      while (landed.load() == 0) upcxx::progress();
    }
    upcxx::barrier();
  });
}

}  // namespace
