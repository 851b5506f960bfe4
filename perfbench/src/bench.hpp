// Shared plumbing of the repo benchmark: options, seeded inputs, the
// closed-loop op recorder (latency samples, throughput windows, trace
// spans), the byte checker and the per-rank layer-counter snapshot.
//
// Every number is measured from outside the layers: the benchmark times
// its own calls into their public functions and takes deltas of their
// public stats() counters.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "arch/rng.hpp"
#include "arch/timer.hpp"
#include "gex/config.hpp"

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Test hook: the checker flips one expected byte on its first
  // comparison, so a correct run must report exactly that failure.
  bool corrupt_expected = false;
  std::string spans_path;  // traced runs write their spans here
  // Throughput window length, set from the workload: ops_per_s and
  // payload_mb_per_s are medians over all windows of all rounds. Short
  // windows keep the median clear of the host's scheduling stalls.
  std::uint64_t window_ns = 2'000'000;
};

// Rounds per run: each round is one fresh SPMD launch (arena, bootstrap,
// preload, warm-up, timed phases, verification). setup_s and the latency
// percentiles are medians over the rounds.
inline constexpr int kRounds = 20;
// Traced phases record the spans of one op in kTraceEvery (prime, so the
// sample does not lock onto inject's period-4 op pattern).
inline constexpr std::uint64_t kTraceEvery = 13;
inline constexpr std::size_t kMaxSpansPerClient = 1 << 18;

// Op kinds. Each op is recorded under one kind; latency-class ops also
// leave a latency sample under it.
enum Kind : int {
  kFind,
  kInsert,
  kErase,
  kOverwrite,
  kPut,
  kGet,
  kInjRput,
  kInjRpc,
  kKinds
};
inline constexpr const char* kKindSpan[kKinds] = {
    "dht.find", "dht.insert",  "dht.erase",   "dht.overwrite",
    "rma.put",  "rma.get",     "inject.rput", "inject.rpc"};
inline constexpr const char* kSpanInitiate = "upcxx.op.initiate";
inline constexpr const char* kSpanWait = "upcxx.op.wait";

struct Span {
  std::uint64_t op;      // spans of one op share this id
  std::int32_t parent;   // index into the client's span vector, -1 = root
  const char* name;
  std::uint64_t t0, t1;  // steady-clock ns
};

// One client's record of one timed phase of one round.
struct ClientPhase {
  std::vector<std::uint64_t> win_ops, win_bytes;
  std::vector<std::uint32_t> lat[kKinds];  // ns, latency-class ops only
  std::vector<Span> spans;
  std::uint64_t ops = 0;  // completed, including any past the deadline
  std::uint64_t end_ns = 0;
  double barrier_wait_s = 0;
  bool budget_hit = false;
};

// Attempted / failed op tally of one client (or one rank's checks).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// Compares `n` received bytes with the bytes the benchmark derived.
bool same_bytes(const void* got, const void* want, std::size_t n);
void arm_corruption();

// Deterministic per-seed randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() { return arch::splitmix64(s_); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  // Log-uniform integer in [lo, hi].
  std::size_t log_uniform(std::size_t lo, std::size_t hi);

 private:
  std::uint64_t s_;
};

inline std::uint64_t mix(std::uint64_t a, std::uint64_t b = 0) {
  std::uint64_t s = a ^ (b * 0xd6e8feb86659fd93ULL);
  return arch::splitmix64(s);
}

// Seed-derived random bytes that values and put payloads are cut from, so
// the expected bytes of any op are a pointer into the tape.
std::vector<char> make_tape(std::uint64_t seed, std::size_t n);

// Times closed-loop ops of one client during one timed phase.
class Recorder {
 public:
  Recorder(ClientPhase& out, std::uint64_t t0, const Options& o, bool traced,
           std::uint64_t budget);

  bool done() const { return ended_ || out_.ops >= budget_; }

  // Initiates the op (init() returns a future), waits for it and records
  // it; returns the future's result.
  template <typename Init>
  auto op(Kind k, bool latency_class, Init&& init) {
    const std::uint64_t a = arch::now_ns();
    auto fut = init();
    const std::uint64_t b = arch::now_ns();
    if constexpr (std::is_void_v<decltype(fut.wait())>) {
      fut.wait();
      finish(k, latency_class, a, b, arch::now_ns());
    } else {
      auto r = fut.wait();
      finish(k, latency_class, a, b, arch::now_ns());
      return r;
    }
  }

  // Useful payload bytes of the op just recorded.
  void add_bytes(std::size_t n) {
    if (last_win_ >= 0) out_.win_bytes[last_win_] += n;
  }

  // Closes the phase: marks the budget and the client's end time.
  void close();

 private:
  void finish(Kind k, bool latency_class, std::uint64_t a, std::uint64_t b,
              std::uint64_t c);

  ClientPhase& out_;
  std::uint64_t t0_, win_ns_, end_;
  bool traced_;
  std::uint64_t budget_;
  bool ended_ = false;
  int last_win_ = -1;
};

// Snapshot of the calling rank's layer counters, read from each layer's
// public stats(). Deltas and sums cover the counts; the peaks are maxima.
enum Count : int {
  kAmEager, kAmRdzv, kAmFrames, kAmStalls,                // AmEngine
  kAggMsgs, kAggFrames, kAggCapacity, kAggExplicit,        // Aggregator
  kRqSent, kRqQueued, kAckCookies, kAckPiggy,              // RmaAmProtocol
  kPutsStaged, kStageAllocs, kRepliesStaged, kReplyHits,
  kWinGrow, kWinShrink,
  kXferSubmitted, kXferChunks,                             // XferEngine
  kTxBatches,                                              // Transport
  kRpcsSent, kLpcsRun,                                     // upcxx op stats
  kCounts
};

struct Counters {
  std::array<std::uint64_t, kCounts> n{};
  std::uint64_t max_outstanding = 0, xfer_max_inflight = 0;  // peaks

  static Counters take();
  Counters delta_from(const Counters& start) const;
  void add(const Counters& o);
  double operator[](Count c) const { return static_cast<double>(n[c]); }
};

// Everything one round (one SPMD launch) reports. Ranks are threads of
// this process, so clients write their own slots directly.
struct Round {
  int index = 0;
  int phases = 1;
  double setup_s = 0;
  std::uint64_t launch_ns = 0;
  std::vector<ClientPhase> phase[2];  // [0] untraced, [1] traced
  std::vector<Tally> tally;           // per client, plus one per rank
  std::vector<Counters> counters;     // per rank, over the timed phases
  std::vector<double> seg_used, live_bytes;  // per rank, end of the round
  int failed_ranks = 0;
};

// Per-workload SPMD bodies and configurations.
struct Workload {
  const char* name;
  int ranks;
  int clients;
  std::uint64_t window_ns;
  gex::Config (*config)(const Options&);
  void (*body)(const Options&, Round&);
};
const Workload* find_workload(const std::string& name);
const std::vector<Workload>& workloads();

// Traced-run ladder: one 8 B op through each layer's public call on an
// idle pair of ranks, per transport. Name -> value.
std::map<std::string, double> run_ladder(Tally& t);

// Length of one timed phase: the run's seconds split over the rounds (and
// the traced run's two phases), rounded down to whole windows.
inline std::uint64_t phase_ns(const Options& o) {
  const double s = static_cast<double>(o.seconds) /
                   (kRounds * (o.trace ? 2 : 1));
  const auto n = static_cast<std::uint64_t>(s * 1e9) / o.window_ns;
  return std::max<std::uint64_t>(1, n) * o.window_ns;
}

// Which phase (0 untraced, 1 traced) runs i-th in round `round`:
// traced runs alternate the order so drift within a round cancels.
inline int phase_at(const Options& o, int round, int i) {
  if (!o.trace) return 0;
  return (round % 2 == 0) ? i : 1 - i;
}

}  // namespace pb
