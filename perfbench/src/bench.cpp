#include "bench.hpp"

#include <algorithm>
#include <cmath>

#include "gex/agg.hpp"
#include "gex/am.hpp"
#include "gex/rma_am.hpp"
#include "gex/runtime.hpp"
#include "gex/xfer.hpp"
#include "upcxx/upcxx.hpp"

namespace pb {

namespace {
std::atomic<bool> g_corrupt{false};
}  // namespace

void arm_corruption() { g_corrupt.store(true); }

bool same_bytes(const void* got, const void* want, std::size_t n) {
  if (n != 0 && g_corrupt.exchange(false)) {
    std::vector<char> bad(static_cast<const char*>(want),
                          static_cast<const char*>(want) + n);
    bad[n / 2] = static_cast<char>(bad[n / 2] ^ 0x5a);
    return std::memcmp(got, bad.data(), n) == 0;
  }
  return std::memcmp(got, want, n) == 0;
}

std::size_t Rng::log_uniform(std::size_t lo, std::size_t hi) {
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  const double v = std::exp(std::log(static_cast<double>(lo)) +
                            u * std::log(static_cast<double>(hi) /
                                         static_cast<double>(lo)));
  return std::clamp(static_cast<std::size_t>(v), lo, hi);
}

std::vector<char> make_tape(std::uint64_t seed, std::size_t n) {
  std::vector<char> t(n);
  std::uint64_t s = seed;
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t w = arch::splitmix64(s);
    std::memcpy(t.data() + i, &w, std::min<std::size_t>(8, n - i));
  }
  return t;
}

Recorder::Recorder(ClientPhase& out, std::uint64_t t0, const Options& o,
                   bool traced, std::uint64_t budget)
    : out_(out),
      t0_(t0),
      win_ns_(o.window_ns),
      end_(t0 + phase_ns(o)),
      traced_(traced),
      budget_(budget) {
  out_.win_ops.assign(phase_ns(o) / win_ns_, 0);
  out_.win_bytes.assign(phase_ns(o) / win_ns_, 0);
}

void Recorder::finish(Kind k, bool latency_class, std::uint64_t a,
                      std::uint64_t b, std::uint64_t c) {
  ++out_.ops;
  last_win_ = -1;
  if (c >= end_) {
    ended_ = true;
  } else {
    last_win_ = static_cast<int>((c - t0_) / win_ns_);
    ++out_.win_ops[last_win_];
    if (latency_class)
      out_.lat[k].push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(c - a, UINT32_MAX)));
  }
  if (traced_ && out_.ops % kTraceEvery == 0 &&
      out_.spans.size() + 3 <= kMaxSpansPerClient) {
    const auto root = static_cast<std::int32_t>(out_.spans.size());
    out_.spans.push_back({out_.ops, -1, kKindSpan[k], a, c});
    out_.spans.push_back({out_.ops, root, kSpanInitiate, a, b});
    out_.spans.push_back({out_.ops, root, kSpanWait, b, c});
  }
}

void Recorder::close() {
  out_.budget_hit = !ended_ && out_.ops >= budget_;
  out_.end_ns = arch::now_ns();
}

Counters Counters::take() {
  Counters c;
  auto& n = c.n;
  const auto& am = gex::am().stats();
  n[kAmEager] = am.sent_eager;
  n[kAmRdzv] = am.sent_rendezvous;
  n[kAmFrames] = am.sent_frames;
  n[kAmStalls] = am.send_stalls;
  const auto& ag = gex::agg().stats();
  n[kAggMsgs] = ag.msgs;
  n[kAggFrames] = ag.frames;
  n[kAggCapacity] = ag.flushes_capacity;
  n[kAggExplicit] = ag.flushes_explicit;
  const auto& ra = gex::rma_am().stats();
  n[kRqSent] = ra.puts_sent + ra.gets_sent + ra.frag_puts_sent +
               ra.frag_gets_sent;
  n[kRqQueued] = ra.requests_queued;
  n[kAckCookies] = ra.ack_cookies_sent;
  n[kAckPiggy] = ra.acks_piggybacked;
  n[kPutsStaged] = ra.puts_staged;
  n[kStageAllocs] = ra.stage_allocs;
  n[kRepliesStaged] = ra.replies_staged;
  n[kReplyHits] = ra.reply_pool_hits;
  n[kWinGrow] = ra.window_grow;
  n[kWinShrink] = ra.window_shrink;
  c.max_outstanding = ra.max_outstanding;
  const auto& xs = gex::xfer().stats();
  n[kXferSubmitted] = xs.submitted;
  n[kXferChunks] = xs.chunks_copied;
  c.xfer_max_inflight = xs.max_inflight;
  n[kTxBatches] = gex::am().transport().tx_writev_batches();
  const auto os = upcxx::experimental::stats();
  n[kRpcsSent] = os.rpcs_sent;
  n[kLpcsRun] = os.lpcs_run;
  return c;
}

Counters Counters::delta_from(const Counters& start) const {
  Counters d = *this;
  for (int i = 0; i < kCounts; ++i) d.n[i] -= start.n[i];
  return d;
}

void Counters::add(const Counters& o) {
  for (int i = 0; i < kCounts; ++i) n[i] += o.n[i];
  max_outstanding = std::max(max_outstanding, o.max_outstanding);
  xfer_max_inflight = std::max(xfer_max_inflight, o.xfer_max_inflight);
}

}  // namespace pb
