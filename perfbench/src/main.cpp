// perfbench: the repo benchmark. One closed-loop workload per run, driven
// through the public upcxx API, every result checked.
//
//   perfbench --workload dht|rma_am|rma_socket|inject --seed N
//             --seconds S --trace 0|1 [--spans PATH] [--corrupt-expected]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every check passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>

#include "bench.hpp"
#include "upcxx/upcxx.hpp"

namespace pb {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"ops_per_s", "ops/s"}, {"payload_mb_per_s", "MB/s"},
    {"lat_p50_us", "us"},   {"lat_p99_us", "us"},
    {"setup_s", "s"},
};

const Metric kPerLayer[] = {
    {"arch.ring_ns", "ns"},
    {"gex.transport.frames_per_sendmsg", "ratio"},
    {"gex.am.rtt_us.mmap", "us"},
    {"gex.am.rtt_us.socket", "us"},
    {"gex.am.records_per_op", "ratio"},
    {"gex.am.rdzv_share", "ratio"},
    {"gex.am.send_stalls_per_kop", "1/kop"},
    {"gex.agg.msgs_per_frame", "ratio"},
    {"gex.agg.capacity_flush_share", "ratio"},
    {"gex.rma_am.put_us.mmap", "us"},
    {"gex.rma_am.put_us.socket", "us"},
    {"gex.rma_am.queued_share", "ratio"},
    {"gex.rma_am.ack_piggyback_share", "ratio"},
    {"gex.rma_am.stage_pool_hit_ratio", "ratio"},
    {"gex.rma_am.reply_pool_hit_ratio", "ratio"},
    {"gex.rma_am.window_moves_per_kack", "1/kack"},
    {"gex.rma_am.max_outstanding", "count"},
    {"gex.xfer.chunks_per_submit", "ratio"},
    {"gex.xfer.max_inflight", "count"},
    {"gex.heap.seg_bytes_per_live_byte", "ratio"},
    {"upcxx.op.initiate_us", "us"},
    {"upcxx.op.wait_us", "us"},
    {"upcxx.op.rput_us.mmap_direct", "us"},
    {"upcxx.op.rput_us.mmap_am", "us"},
    {"upcxx.op.rput_us.socket_am", "us"},
    {"upcxx.op.rpc_us.mmap", "us"},
    {"upcxx.op.rpc_us.socket", "us"},
    {"upcxx.op.rpcs_per_op", "ratio"},
    {"upcxx.progress.inject_rput_us.mmap_direct", "us"},
    {"upcxx.progress.inject_rput_us.mmap_am", "us"},
    {"upcxx.progress.inject_rput_us.socket_am", "us"},
    {"upcxx.progress.lpcs_per_op", "ratio"},
    {"upcxx.progress.barrier_wait_ms", "ms"},
    {"apps.dht.find_p50_us", "us"},
    {"apps.dht.insert_p50_us", "us"},
    {"apps.dht.erase_p50_us", "us"},
    {"apps.dht.overwrite_p50_us", "us"},
    {"trace.overhead_share", "ratio"},
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile q in [0, 1] of ns samples, in µs.
double percentile_us(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0;
  std::size_t k = static_cast<std::size_t>(std::ceil(q * v.size()));
  k = std::clamp<std::size_t>(k, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[k] * 1e-3;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

// One phase (0 untraced, 1 traced) over all rounds: throughput per
// window, latency percentiles per round, per-kind samples pooled.
struct PhaseSummary {
  std::vector<double> win_ops_s, win_mb_s, barrier_waits, p50s, p99s;
  std::vector<double> round_ops_s;  // median window of each round
  std::vector<std::uint32_t> lat_kind[kKinds];
  std::uint64_t ops = 0, samples = 0;
  bool budget_hit = false;

  PhaseSummary(const std::vector<Round>& rounds, int p, double win_s) {
    for (const auto& R : rounds) {
      const auto& cps = R.phase[p];
      if (cps.empty()) continue;
      double slowest = 0;
      const std::size_t nwin = cps.front().win_ops.size();
      const std::size_t first_win = win_ops_s.size();
      for (std::size_t w = 0; w < nwin; ++w) {
        double ops_w = 0, bytes_w = 0;
        for (const auto& cp : cps) {
          if (cp.win_ops.empty()) continue;
          ops_w += static_cast<double>(cp.win_ops[w]);
          bytes_w += static_cast<double>(cp.win_bytes[w]);
        }
        win_ops_s.push_back(ops_w / win_s);
        win_mb_s.push_back(bytes_w / win_s * 1e-6);
      }
      round_ops_s.push_back(median(std::vector<double>(
          win_ops_s.begin() + static_cast<std::ptrdiff_t>(first_win),
          win_ops_s.end())));
      std::vector<std::uint32_t> lat;
      for (const auto& cp : cps) {
        ops += cp.ops;
        budget_hit |= cp.budget_hit;
        slowest = std::max(slowest, cp.barrier_wait_s);
        for (int k = 0; k < kKinds; ++k) {
          lat.insert(lat.end(), cp.lat[k].begin(), cp.lat[k].end());
          lat_kind[k].insert(lat_kind[k].end(), cp.lat[k].begin(),
                             cp.lat[k].end());
        }
      }
      barrier_waits.push_back(slowest);
      samples += lat.size();
      p50s.push_back(percentile_us(lat, 0.50));
      p99s.push_back(percentile_us(lat, 0.99));
    }
  }
};

std::string fmt(double v) {
  char b[64];
  std::snprintf(b, sizeof b, "%.17g", std::isfinite(v) ? v : 0.0);
  return b;
}

void print_metric(const char* name, double v, const char* unit,
                  const std::string& note = "") {
  std::printf("  %-42s %14.6g %-6s %s\n", name, v, unit, note.c_str());
}

// Self time per span name (duration minus its children's), medians in µs.
void print_self_times(const std::vector<Round>& rounds) {
  std::unordered_map<std::string, std::vector<double>> dur, self;
  for (const auto& R : rounds)
    for (const auto& cp : R.phase[1]) {
      std::vector<double> child(cp.spans.size(), 0);
      for (const auto& s : cp.spans)
        if (s.parent >= 0) child[s.parent] += static_cast<double>(s.t1 - s.t0);
      for (std::size_t i = 0; i < cp.spans.size(); ++i) {
        const auto& s = cp.spans[i];
        const double d = static_cast<double>(s.t1 - s.t0);
        dur[s.name].push_back(d * 1e-3);
        self[s.name].push_back((d - child[i]) * 1e-3);
      }
    }
  std::printf("span self times (traced phase, 1 op in %llu):\n",
              static_cast<unsigned long long>(kTraceEvery));
  for (auto& [name, d] : dur)
    std::printf("  %-22s n=%-8zu p50 %.3f us, self p50 %.3f us\n",
                name.c_str(), d.size(), median(d), median(self[name]));
}

void write_spans(const std::string& path, const std::vector<Round>& rounds) {
  if (path.empty() || rounds.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "client,op,span,parent,name,start_ns,end_ns\n");
  const auto& R = rounds.back();
  for (std::size_t c = 0; c < R.phase[1].size(); ++c) {
    const auto& sp = R.phase[1][c].spans;
    for (std::size_t i = 0; i < sp.size(); ++i)
      std::fprintf(f, "%zu,%llu,%zu,%d,%s,%llu,%llu\n", c,
                   static_cast<unsigned long long>(sp[i].op), i, sp[i].parent,
                   sp[i].name, static_cast<unsigned long long>(sp[i].t0),
                   static_cast<unsigned long long>(sp[i].t1));
  }
  std::fclose(f);
  std::printf("spans of the last round written to %s\n", path.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload dht|rma_am|rma_socket|inject "
               "--seed N --seconds S --trace 0|1 [--spans PATH] "
               "[--corrupt-expected]\n");
  return 2;
}

int run(Options o) {
  const Workload* w = find_workload(o.workload);
  if (!w) return usage();
  o.window_ns = w->window_ns;
  if (o.corrupt_expected) arm_corruption();
  std::printf("perfbench %s: %d thread ranks, %d closed-loop clients, "
              "seed %llu, %d s measured in %d rounds%s\n",
              w->name, w->ranks, w->clients,
              static_cast<unsigned long long>(o.seed), o.seconds, kRounds,
              o.trace ? ", traced" : "");

  std::vector<Round> rounds(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    Round& R = rounds[r];
    R.index = r;
    R.phases = o.trace ? 2 : 1;
    for (int p = 0; p < R.phases; ++p) R.phase[p].resize(w->clients);
    R.tally.resize(w->clients + w->ranks);
    R.counters.resize(w->ranks);
    R.seg_used.assign(w->ranks, 0);
    R.live_bytes.assign(w->ranks, 0);
    const gex::Config cfg = w->config(o);
    R.launch_ns = arch::now_ns();
    R.failed_ranks = upcxx::run(cfg, [&] {
      try {
        w->body(o, R);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "rank %d: %s\n", upcxx::rank_me(), e.what());
        throw;
      }
    });
    if (R.failed_ranks)
      std::printf("  round %d: %d ranks failed\n", r + 1, R.failed_ranks);
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const auto& R : rounds) {
    for (const auto& t : R.tally) {
      attempted += t.attempted;
      failed += t.failed;
    }
    failed += static_cast<std::uint64_t>(R.failed_ranks);
  }

  const double win_s = static_cast<double>(o.window_ns) * 1e-9;
  PhaseSummary un(rounds, 0, win_s);
  std::vector<double> setups;
  for (const auto& R : rounds) setups.push_back(R.setup_s);
  for (std::size_t r = 0; r < un.p50s.size(); ++r)
    std::printf("  round %zu: setup %.4f s, %.6g ops/s, p50 %.3f us, "
                "p99 %.3f us\n",
                r + 1, setups[r], un.round_ops_s[r], un.p50s[r], un.p99s[r]);

  std::vector<std::pair<std::string, double>> metrics;
  const double ops_s = median(un.win_ops_s);
  if (!o.trace) {
    metrics = {{"ops_per_s", ops_s},
               {"payload_mb_per_s", median(un.win_mb_s)},
               {"lat_p50_us", median(un.p50s)},
               {"lat_p99_us", median(un.p99s)},
               {"setup_s", median(setups)}};
  } else {
    PhaseSummary tr(rounds, 1, win_s);
    Counters c;
    for (const auto& R : rounds)
      for (const auto& rc : R.counters) c.add(rc);
    const double ops = static_cast<double>(un.ops + tr.ops);
    const double records = c[kAmEager] + c[kAmRdzv] + c[kAmFrames];
    const double acks = c[kAckCookies] + c[kAckPiggy];
    double seg = 0, live = 0;
    for (int r = 0; r < w->ranks; ++r) {
      seg += rounds.back().seg_used[r];
      live += rounds.back().live_bytes[r];
    }
    std::vector<std::uint32_t> init_ns, wait_ns;
    for (const auto& R : rounds)
      for (const auto& cp : R.phase[1])
        for (const auto& s : cp.spans) {
          if (s.name == kSpanInitiate)
            init_ns.push_back(static_cast<std::uint32_t>(s.t1 - s.t0));
          else if (s.name == kSpanWait)
            wait_ns.push_back(static_cast<std::uint32_t>(s.t1 - s.t0));
        }
    std::vector<double> waits = un.barrier_waits;
    waits.insert(waits.end(), tr.barrier_waits.begin(), tr.barrier_waits.end());

    Tally lt;
    const auto ladder = run_ladder(lt);
    attempted += lt.attempted;
    failed += lt.failed;
    metrics = {
        {"gex.transport.frames_per_sendmsg", ratio(records, c[kTxBatches])},
        {"gex.am.records_per_op", ratio(records, ops)},
        {"gex.am.rdzv_share", ratio(c[kAmRdzv], records)},
        {"gex.am.send_stalls_per_kop", ratio(1e3 * c[kAmStalls], ops)},
        {"gex.agg.msgs_per_frame", ratio(c[kAggMsgs], c[kAggFrames])},
        {"gex.agg.capacity_flush_share",
         ratio(c[kAggCapacity], c[kAggCapacity] + c[kAggExplicit])},
        {"gex.rma_am.queued_share", ratio(c[kRqQueued], c[kRqSent])},
        {"gex.rma_am.ack_piggyback_share", ratio(c[kAckPiggy], acks)},
        {"gex.rma_am.stage_pool_hit_ratio",
         c[kPutsStaged] > 0 ? 1 - ratio(c[kStageAllocs], c[kPutsStaged]) : 0},
        {"gex.rma_am.reply_pool_hit_ratio",
         ratio(c[kReplyHits], c[kRepliesStaged])},
        {"gex.rma_am.window_moves_per_kack",
         ratio(1e3 * (c[kWinGrow] + c[kWinShrink]), acks)},
        {"gex.rma_am.max_outstanding", static_cast<double>(c.max_outstanding)},
        {"gex.xfer.chunks_per_submit", ratio(c[kXferChunks], c[kXferSubmitted])},
        {"gex.xfer.max_inflight", static_cast<double>(c.xfer_max_inflight)},
        {"gex.heap.seg_bytes_per_live_byte", ratio(seg, live)},
        {"upcxx.op.initiate_us", percentile_us(init_ns, 0.5)},
        {"upcxx.op.wait_us", percentile_us(wait_ns, 0.5)},
        {"upcxx.op.rpcs_per_op", ratio(c[kRpcsSent], ops)},
        {"upcxx.progress.lpcs_per_op", ratio(c[kLpcsRun], ops)},
        {"upcxx.progress.barrier_wait_ms", median(waits) * 1e3},
        {"apps.dht.find_p50_us", percentile_us(un.lat_kind[kFind], 0.5)},
        {"apps.dht.insert_p50_us", percentile_us(un.lat_kind[kInsert], 0.5)},
        {"apps.dht.erase_p50_us", percentile_us(un.lat_kind[kErase], 0.5)},
        {"apps.dht.overwrite_p50_us",
         percentile_us(un.lat_kind[kOverwrite], 0.5)},
        {"trace.overhead_share", 1 - ratio(median(tr.win_ops_s), ops_s)},
    };
    for (const auto& [k, v] : ladder) metrics.emplace_back(k, v);
    std::printf("traced phase: ops_per_s %.6g (untraced %.6g)\n",
                median(tr.win_ops_s), ops_s);
    print_self_times(rounds);
    write_spans(o.spans_path, rounds);
  }

  // Human-readable block first, then the JSON line.
  std::printf("metrics (%s):\n", o.trace ? "per layer" : "end to end");
  std::string json = "{";
  bool first = true;
  auto emit = [&](const Metric& m) {
    auto it = std::find_if(metrics.begin(), metrics.end(),
                           [&](const auto& kv) { return kv.first == m.name; });
    if (it == metrics.end()) {
      std::fprintf(stderr, "perfbench: metric %s missing\n", m.name);
      ++failed;
      return;
    }
    std::string note;
    if (std::string(m.name) == "lat_p99_us")
      note = "(median of " + std::to_string(un.p99s.size()) +
             " rounds; " + std::to_string(un.samples) + " samples, about " +
             std::to_string(un.samples / 100 / std::max<std::size_t>(
                                                  1, un.p99s.size())) +
             " beyond p99 per round)";
    print_metric(m.name, it->second, m.unit, note);
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + fmt(it->second) + ", \"unit\": \"" + m.unit +
            "\"}";
    first = false;
  };
  if (o.trace)
    for (const auto& m : kPerLayer) emit(m);
  else
    for (const auto& m : kEndToEnd) emit(m);
  json += "}";
  if (un.budget_hit)
    std::printf("note: a client reached its op budget before the deadline\n");
  std::printf("checks: %llu failed of %llu ops attempted\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  pb::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
        std::exit(pb::usage());
      }
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atoi(value().c_str());
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--spans") {
      o.spans_path = value();
    } else if (a == "--corrupt-expected") {
      o.corrupt_expected = true;
    } else {
      return pb::usage();
    }
  }
  if (!have_workload || o.seconds < 1) return pb::usage();
  return pb::run(o);
}
