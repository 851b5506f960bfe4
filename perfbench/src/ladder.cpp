// The traced run's layer ladder: one 8 B op through each layer's public
// call on an idle pair of thread ranks, per transport and wire. The
// differences between rungs attribute the cost of the am wire and of the
// socket transport layer by layer.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <thread>

#include "arch/ring.hpp"
#include "bench.hpp"
#include "gex/am.hpp"
#include "gex/rma_am.hpp"
#include "gex/runtime.hpp"
#include "upcxx/upcxx.hpp"

namespace pb {

namespace {

constexpr int kBatches = 15;
constexpr std::size_t kOpBytes = 8;

std::atomic<std::uint64_t> g_pongs{0};

void pong_handler(gex::AmContext&) {
  g_pongs.fetch_add(1, std::memory_order_relaxed);
}
void echo_handler(gex::AmContext& cx) {
  cx.engine->send(cx.src, gex::am_handler<&pong_handler>(), cx.data, cx.size);
}

// Median over kBatches batches of the per-call time of fn, in ns, after
// one unrecorded warm-up batch.
template <typename Fn>
double per_op_ns(int batch, Fn&& fn) {
  std::vector<double> v;
  for (int b = -1; b < kBatches; ++b) {
    const std::uint64_t t0 = arch::now_ns();
    for (int i = 0; i < batch; ++i) fn();
    if (b >= 0) v.push_back(static_cast<double>(arch::now_ns() - t0) / batch);
  }
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

double ring_ns() {
  constexpr std::size_t kCap = 1 << 20;
  std::vector<std::byte> mem(arch::MpscByteRing::footprint(kCap));
  auto* ring = arch::MpscByteRing::create(mem.data(), kCap);
  return per_op_ns(1000, [ring] {
    auto t = ring->try_reserve(64);
    arch::MpscByteRing::commit(t);
    ring->try_consume([](void*, std::size_t) {});
  });
}

struct LadderConfig {
  gex::AmTransport transport;
  gex::RmaWire wire;
};

// Runs the rungs that exist on one transport/wire pair; rank 0 measures
// while rank 1 idles in the barrier's progress loop.
void run_pair(const LadderConfig& lc, std::map<std::string, double>& out,
              Tally& t) {
  gex::Config cfg;
  cfg.ranks = 2;
  cfg.am_transport = lc.transport;
  cfg.rma_wire = lc.wire;
  cfg.am_window = gex::kAmWindowForceAuto;
  const bool socket = lc.transport == gex::AmTransport::kSocket;
  const bool am_wire = lc.wire == gex::RmaWire::kAm;
  const std::string tr = socket ? "socket" : "mmap";
  const std::string tw = tr + (am_wire ? "_am" : "_direct");
  const int failed = upcxx::run(cfg, [&] {
    const int me = upcxx::rank_me();
    auto seg = upcxx::allocate<char>(64);
    upcxx::dist_object<upcxx::global_ptr<char>> dir(seg);
    const auto peer = dir.fetch(1 - me).wait();
    char src[kOpBytes] = {1, 2, 3, 4, 5, 6, 7, 8};
    auto rung = [&](const std::string& name, auto&& measure) {
      upcxx::barrier();
      if (me == 0) out[name] = measure();
      upcxx::barrier();
    };
    // The raw AM round trip and the rpc ride the transport, not the wire:
    // measured once per transport, on the direct-wire launch for mmap.
    if (socket || !am_wire) {
      rung("gex.am.rtt_us." + tr, [&] {
        return per_op_ns(100, [&] {
          const std::uint64_t want = g_pongs.load() + 1;
          gex::am().send(1, gex::am_handler<&echo_handler>(), src, kOpBytes);
          while (g_pongs.load(std::memory_order_relaxed) < want) gex::am().poll();
        }) * 1e-3;
      });
      rung("upcxx.op.rpc_us." + tr, [&] {
        std::uint64_t i = 0;
        return per_op_ns(100, [&] {
          ++i;
          const auto r =
              upcxx::rpc(1, [](std::uint64_t x) { return x + 1; }, i).wait();
          t.check(r == i + 1);
        }) * 1e-3;
      });
    }
    if (am_wire) {
      rung("gex.rma_am.put_us." + tr, [&] {
        return per_op_ns(100, [&] {
          bool done = false;
          gex::rma_am().put(1, peer.raw_address(), src, kOpBytes,
                            [&done] { done = true; });
          while (!done) upcxx::progress();
        }) * 1e-3;
      });
    }
    rung("upcxx.op.rput_us." + tw, [&] {
      return per_op_ns(am_wire ? 100 : 1000, [&] {
        upcxx::rput(src, peer, kOpBytes).wait();
      }) * 1e-3;
    });
    rung("upcxx.progress.inject_rput_us." + tw, [&] {
      upcxx::injector inj;
      upcxx::progress_thread pt;
      double us = 0;
      std::thread th([&] {
        try {
          upcxx::injection_scope scope(inj);
          us = per_op_ns(am_wire ? 100 : 1000, [&] {
            upcxx::rput(src, peer, kOpBytes).wait();
          }) * 1e-3;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "ladder injector: %s\n", e.what());
          ++t.failed;
        }
      });
      th.join();
      pt.stop();
      return us;
    });
    upcxx::barrier();
    if (me == 0) {
      char back[kOpBytes];
      upcxx::rget(peer, back, kOpBytes).wait();
      t.check(same_bytes(back, src, kOpBytes));
    }
    upcxx::barrier();
    upcxx::deallocate(seg);
  });
  if (failed != 0) t.failed += static_cast<std::uint64_t>(failed);
}

}  // namespace

std::map<std::string, double> run_ladder(Tally& t) {
  std::map<std::string, double> out;
  out["arch.ring_ns"] = ring_ns();
  const LadderConfig pairs[] = {
      {gex::AmTransport::kMmap, gex::RmaWire::kDirect},
      {gex::AmTransport::kMmap, gex::RmaWire::kAm},
      {gex::AmTransport::kSocket, gex::RmaWire::kAm},
  };
  for (const auto& lc : pairs) run_pair(lc, out, t);
  return out;
}

}  // namespace pb
