// Fig 3b reproduction: flood put bandwidth, UPC++ non-blocking rput tracked
// by a promise vs MPI-3 Put in a passive-target epoch flushed at the end
// (IMB Unidir_put aggregate mode).
//
// Paper setup and code outline (§IV-B): issue many rputs with
// operation_cx::as_promise(p), occasional progress every 10 iterations,
// p.finalize().wait() at the end; bandwidth = volume / elapsed. Paper
// result: comparable at small and large sizes, UPC++ up to 33% ahead in the
// 1KB-256KB midrange (most pronounced at 8KB) where per-op software
// overhead, not wire bandwidth, is the limiter.
#include <cstdio>
#include <vector>

#include "arch/timer.hpp"
#include "bench_util.hpp"
#include "minimpi/minimpi.hpp"
#include "upcxx/upcxx.hpp"

namespace {

double upcxx_flood(upcxx::global_ptr<char> dest, const char* src,
                   std::size_t size, int iters) {
  // Verbatim structure of the paper's code outline.
  upcxx::promise<> p;
  const double t0 = arch::now_s();
  for (int it = 0; it < iters; ++it) {
    upcxx::rput(src, dest, size, upcxx::operation_cx::as_promise(p));
    if (!(it % 10)) upcxx::progress();
  }
  p.finalize().wait();
  const double dt = arch::now_s() - t0;
  return static_cast<double>(size) * iters / dt;  // bytes/s
}

double mpi_flood(minimpi::Win& win, const char* src, std::size_t size,
                 int iters) {
  const double t0 = arch::now_s();
  for (int it = 0; it < iters; ++it) win.put(src, size, 1, 0);
  win.flush(1);
  const double dt = arch::now_s() - t0;
  return static_cast<double>(size) * iters / dt;
}

}  // namespace

int main() {
  std::printf(
      "Fig 3b — Flood Put Bandwidth (higher is better)\n"
      "UPC++ promise-tracked rput flood vs minimpi Put flood + flush, 2 "
      "ranks, best of %d trials\n\n",
      benchutil::reps(10, 3));
  benchutil::ShapeChecks checks;
  struct Row {
    std::size_t size;
    double upcxx_mbs, mpi_mbs;
  };
  static std::vector<Row> rows;

  gex::Config cfg = gex::Config::from_env();
  cfg.ranks = 2;
  // The paper's Fig 3b is a native-conduit (direct-wire) comparison; pin
  // it so a global UPCXX_RMA_WIRE=am doesn't turn the UPC++-vs-MPI claims
  // into a cross-wire mismatch — the am wire has its own series below.
  cfg.rma_wire = gex::RmaWire::kDirect;
  int fails = upcxx::run(cfg, [] {
    const int me = upcxx::rank_me();
    constexpr std::size_t kMax = 4 << 20;
    auto seg = upcxx::allocate<char>(kMax);
    upcxx::dist_object<upcxx::global_ptr<char>> dir(seg);
    auto peer = dir.fetch(1 - me).wait();
    // Quiesce upcxx before minimpi::init(): init spins the raw arena
    // barrier, which serves no upcxx progress — if a peer's fetch reply is
    // still pending when a rank enters it, the pair deadlocks (observed
    // deterministically on single-core hosts).
    upcxx::barrier();
    minimpi::init();
    std::vector<char> exposure(kMax), src(kMax, 'y');
    auto win = minimpi::Win::create(exposure.data(), exposure.size());

    const int trials = benchutil::reps(10, 3);
    for (std::size_t size = 8; size <= kMax; size <<= 2) {
      // Keep per-trial volume roughly constant; BENCH_QUICK shrinks it so
      // smoke runs on one-core hosts finish in seconds per size.
      const auto volume = static_cast<std::size_t>(
          (64u << 20) * benchutil::work_scale());
      const int iters =
          static_cast<int>(std::max<std::size_t>(32, volume / size));
      double best_u = 0, best_m = 0;
      for (int t = 0; t < trials; ++t) {
        if (me == 0)
          best_u = std::max(best_u, upcxx_flood(peer, src.data(), size,
                                                iters));
        upcxx::barrier();
        if (me == 0)
          best_m = std::max(best_m, mpi_flood(win, src.data(), size, iters));
        upcxx::barrier();
      }
      if (me == 0)
        rows.push_back({size, best_u / 1e6, best_m / 1e6});
    }
    win.free();
    minimpi::finalize();
    upcxx::barrier();
    upcxx::deallocate(seg);
  });
  if (fails) return 2;

  std::printf("%10s %14s %14s %12s\n", "size", "UPC++ (MB/s)", "MPI (MB/s)",
              "UPC++/MPI");
  double best_mid_ratio = 0;
  std::size_t best_mid_size = 0;
  for (const auto& r : rows) {
    std::printf("%10s %14.1f %14.1f %11.2fx\n",
                benchutil::human_size(r.size).c_str(), r.upcxx_mbs,
                r.mpi_mbs, r.upcxx_mbs / r.mpi_mbs);
    if (r.size >= 1024 && r.size <= 262144) {
      const double ratio = r.upcxx_mbs / r.mpi_mbs;
      if (ratio > best_mid_ratio) {
        best_mid_ratio = ratio;
        best_mid_size = r.size;
      }
    }
  }
  std::printf(
      "\nPaper: bandwidths comparable at the extremes; UPC++ ahead in the "
      "1KB-256KB midrange (up to 33%% at 8KB).\n");
  std::printf("Measured midrange peak advantage: %.0f%% at %s\n",
              (best_mid_ratio - 1) * 100,
              benchutil::human_size(best_mid_size).c_str());
  checks.expect(best_mid_ratio >= 1.0,
                "UPC++ matches or beats MPI somewhere in the 1KB-256KB "
                "midrange");
  const auto& big = rows.back();
  checks.expect(big.upcxx_mbs / big.mpi_mbs > 0.8 &&
                    big.upcxx_mbs / big.mpi_mbs < 1.25,
                "bandwidths comparable at 4MB (memcpy-bound)");

  // ---- simulated bandwidth cap (UPCXX_SIM_BW_GBPS) -------------------------
  // With the cap set, large rputs ride the asynchronous XferEngine whose
  // virtual wire clock gates operation completion: the flood's reported
  // bandwidth must track the configured cap rather than memcpy speed — a
  // real bandwidth curve instead of a memory benchmark. Small messages stay
  // on the synchronous path and ramp toward the cap from above or below
  // depending on the host's memcpy speed.
  double cap_gbps = 2.0;
  if (const char* e = std::getenv("UPCXX_SIM_BW_GBPS"); e && *e)
    cap_gbps = std::atof(e);
  std::printf("\nSimulated wire cap: UPCXX_SIM_BW_GBPS=%.2f (async engine, "
              "chunked)\n", cap_gbps);
  gex::Config simcfg = gex::Config::from_env();
  simcfg.ranks = 2;
  simcfg.rma_wire = gex::RmaWire::kDirect;
  simcfg.sim_bw_gbps = cap_gbps;
  simcfg.rma_async_min = 64 << 10;
  struct SimRow {
    std::size_t size;
    double gbps;
  };
  static std::vector<SimRow> sim_rows;
  static double s_cap;
  s_cap = cap_gbps;
  fails = upcxx::run(simcfg, [] {
    const int me = upcxx::rank_me();
    constexpr std::size_t kMax = 4 << 20;
    auto seg = upcxx::allocate<char>(kMax);
    upcxx::dist_object<upcxx::global_ptr<char>> dir(seg);
    auto peer = dir.fetch(1 - me).wait();
    static std::vector<char> src;
    if (me == 0) src.assign(kMax, 's');
    const int trials = benchutil::reps(5, 2);
    for (std::size_t size : {std::size_t{256} << 10, std::size_t{1} << 20,
                             kMax}) {
      // ~32 MB per trial: a few tens of ms of virtual wire time.
      const int iters = static_cast<int>(std::max<std::size_t>(
          4, static_cast<std::size_t>((32u << 20) * benchutil::work_scale())
                 / size));
      double best = 0;
      for (int t = 0; t < trials; ++t) {
        if (me == 0)
          best = std::max(best,
                          upcxx_flood(peer, src.data(), size, iters));
        upcxx::barrier();
      }
      if (me == 0) sim_rows.push_back({size, best / 1e9});
    }
    upcxx::barrier();
    upcxx::deallocate(seg);
  });
  if (fails) return 2;

  std::printf("%10s %16s %12s\n", "size", "reported (GB/s)", "of cap");
  for (const auto& r : sim_rows)
    std::printf("%10s %16.3f %11.0f%%\n",
                benchutil::human_size(r.size).c_str(), r.gbps,
                100 * r.gbps / s_cap);
  const double big_frac = sim_rows.back().gbps / s_cap;
  checks.expect(big_frac >= 0.8 && big_frac <= 1.2,
                "reported bandwidth within 20% of the configured cap at "
                "4MB");

  // ---- wire=am flood -------------------------------------------------------
  // The same promise-tracked flood with the RMA wire pinned to the AM
  // protocol: every transfer moves as put requests through the target's
  // inbox (chunked above UPCXX_RMA_ASYNC_MIN), and completion waits for
  // acks. Run twice — once with the window pinned (the fixed-window series
  // CI has always tracked) and once with the adaptive controller forced
  // (`window=auto`, the default since the self-tuning transport landed) —
  // and emitted as wire=am series next to wire=direct in BENCH_JSON.
  struct AmRow {
    std::size_t size;
    double mbs;
  };
  static std::vector<AmRow> am_rows;
  auto am_flood = [&fails](gex::Config amcfg) {
    am_rows.clear();
    fails = upcxx::run(amcfg, [] {
      const int me = upcxx::rank_me();
      constexpr std::size_t kMax = 4 << 20;
      auto seg = upcxx::allocate<char>(kMax);
      upcxx::dist_object<upcxx::global_ptr<char>> dir(seg);
      auto peer = dir.fetch(1 - me).wait();
      static std::vector<char> src;
      if (me == 0) src.assign(kMax, 'a');
      upcxx::barrier();
      // Same treatment as the direct-wire flood above (volume, trial
      // count, and a warm first put): the series are divided into each
      // other below, so asymmetric measurement would misstate the
      // protocol cost.
      const int trials = benchutil::reps(10, 3);
      if (me == 0) upcxx::rput(src.data(), peer, kMax).wait();
      upcxx::barrier();
      for (std::size_t size : {std::size_t{8} << 10, std::size_t{256} << 10,
                               kMax}) {
        const auto volume = static_cast<std::size_t>(
            (64u << 20) * benchutil::work_scale());
        const int iters =
            static_cast<int>(std::max<std::size_t>(8, volume / size));
        double best = 0;
        for (int t = 0; t < trials; ++t) {
          if (me == 0)
            best = std::max(best,
                            upcxx_flood(peer, src.data(), size, iters));
          upcxx::barrier();
        }
        if (me == 0) am_rows.push_back({size, best / 1e6});
      }
      upcxx::barrier();
      upcxx::deallocate(seg);
    });
    return am_rows;
  };

  std::printf(
      "\nAM-wire flood (UPCXX_RMA_WIRE=am: request/ack protocol)\n");
  gex::Config amcfg = gex::Config::from_env();
  amcfg.ranks = 2;
  amcfg.rma_wire = gex::RmaWire::kAm;
  // The fixed-window series: pin the default when the environment would
  // select the adaptive controller, keep an explicit CI pin (am-window-1).
  if (gex::resolve_am_window(amcfg).adaptive)
    amcfg.am_window = gex::kDefaultAmWindow;
  const auto fixed_rows = am_flood(amcfg);
  if (fails) return 2;

  gex::Config autocfg = gex::Config::from_env();
  autocfg.ranks = 2;
  autocfg.rma_wire = gex::RmaWire::kAm;
  autocfg.am_window = gex::kAmWindowForceAuto;  // adaptive even under CI pins
  const auto auto_rows = am_flood(autocfg);
  if (fails) return 2;

  std::printf("%10s %16s %16s\n", "size", "am fixed (MB/s)",
              "am auto (MB/s)");
  for (std::size_t i = 0; i < fixed_rows.size(); ++i)
    std::printf("%10s %16.1f %16.1f\n",
                benchutil::human_size(fixed_rows[i].size).c_str(),
                fixed_rows[i].mbs, auto_rows[i].mbs);
  const double am_vs_direct = fixed_rows.back().mbs / big.upcxx_mbs;
  const double am_auto_vs_direct = auto_rows.back().mbs / big.upcxx_mbs;
  {
    char nbuf[200];
    std::snprintf(nbuf, sizeof nbuf,
                  "am wire reaches %.0f%% (fixed window) / %.0f%% "
                  "(window=auto) of direct-wire bandwidth at 4MB (credit "
                  "window + pooled staging both directions + batched acks; "
                  "the residual is the extra copy)",
                  100 * am_vs_direct, 100 * am_auto_vs_direct);
    checks.note(nbuf);
  }
  // Flow control + hot pooled staging + ack batching keep the request/ack
  // protocol within shouting distance of the direct memcpy wire (was ~35%
  // before the transport performance layer). The floor leaves margin for
  // scheduler noise on oversubscribed single-core hosts; the JSON metrics
  // carry the exact ratios.
  checks.expect(am_vs_direct >= 0.5,
                "am-wire flood reaches at least half of direct-wire "
                "bandwidth at 4MB");
  checks.expect(am_auto_vs_direct >= 0.5,
                "adaptive-window am-wire flood reaches at least half of "
                "direct-wire bandwidth at 4MB");

  // ---- transport=socket flood ----------------------------------------------
  // The same am-wire flood with the records framed onto loopback TCP
  // (UPCXX_AM_TRANSPORT=socket): every chunk rides a kernel socket instead
  // of a shared ring, staging is inline-only, and completion still waits
  // for acks. No pass/fail floor — loopback throughput is host-dependent —
  // but the series lands in BENCH_JSON next to the mmap series.
  std::printf(
      "\nSocket-transport flood (UPCXX_AM_TRANSPORT=socket: records framed "
      "onto loopback TCP)\n");
  gex::Config sockcfg = gex::Config::from_env();
  sockcfg.ranks = 2;
  sockcfg.am_transport = gex::AmTransport::kSocket;
  sockcfg.rma_wire = gex::RmaWire::kAm;
  if (gex::resolve_am_window(sockcfg).adaptive)
    sockcfg.am_window = gex::kDefaultAmWindow;
  const auto socket_rows = am_flood(sockcfg);
  if (fails) return 2;
  std::printf("%10s %16s\n", "size", "socket (MB/s)");
  for (const auto& r : socket_rows)
    std::printf("%10s %16.1f\n", benchutil::human_size(r.size).c_str(),
                r.mbs);
  const double socket_vs_direct = socket_rows.back().mbs / big.upcxx_mbs;
  {
    char nbuf[160];
    std::snprintf(nbuf, sizeof nbuf,
                  "socket transport reaches %.0f%% of direct-wire bandwidth "
                  "at 4MB (loopback TCP + inline-only staging)",
                  100 * socket_vs_direct);
    checks.note(nbuf);
  }

  benchutil::JsonReport json("fig3_rma_bandwidth");
  json.metric("midrange_peak_ratio", best_mid_ratio);
  json.metric("upcxx_4mb_mbs", big.upcxx_mbs);
  json.metric("mpi_4mb_mbs", big.mpi_mbs);
  json.metric("simbw_cap_gbps", s_cap);
  json.metric("simbw_4mb_gbps", sim_rows.back().gbps);
  for (const auto& r : fixed_rows)
    json.metric("am_" + std::to_string(r.size) + "_mbs", r.mbs);
  json.metric("am_4mb_vs_direct", am_vs_direct);
  for (const auto& r : auto_rows)
    json.metric("am_auto_" + std::to_string(r.size) + "_mbs", r.mbs);
  json.metric("am_auto_4mb_vs_direct", am_auto_vs_direct);
  for (const auto& r : socket_rows)
    json.metric("socket_" + std::to_string(r.size) + "_mbs", r.mbs);
  json.metric("socket_4mb_vs_direct", socket_vs_direct);
  json.write();
  return checks.summary("fig3_rma_bandwidth");
}
