#include "gex/xfer.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

#include "arch/timer.hpp"

namespace gex {

XferEngine::XferEngine(std::size_t chunk_bytes, double bw_gbps)
    : chunk_bytes_(chunk_bytes ? chunk_bytes : std::size_t{256} << 10),
      bw_gbps_(bw_gbps > 0 ? bw_gbps : 0),
      // 1 GB/s == 1e9 bytes/s == 1 byte/ns, so ns-per-byte is 1/gbps.
      ns_per_byte_(bw_gbps > 0 ? 1.0 / bw_gbps : 0) {}

XferEngine::Channel& XferEngine::channel(int target) {
  for (auto& ch : channels_)
    if (ch->target == target) return *ch;
  channels_.push_back(std::make_unique<Channel>());
  channels_.back()->target = target;
  channels_.back()->ns_per_byte = ns_per_byte_;
  return *channels_.back();
}

void XferEngine::set_link_bw_gbps(int target, double gbps) {
  channel(target).ns_per_byte = gbps > 0 ? 1.0 / gbps : 0;
}

void XferEngine::submit(int target, void* dst, const void* src,
                        std::size_t bytes, Callback on_source,
                        Callback on_landed, bool is_get,
                        std::uint64_t extra_landing_ns) {
  assert((bytes == 0 || (dst && src)) && "null endpoint on a live transfer");
  channel(target).active_.push_back(
      Xfer{static_cast<std::byte*>(dst), static_cast<const std::byte*>(src),
           bytes, 0, is_get, std::move(on_source), std::move(on_landed),
           extra_landing_ns, 0, nullptr});
  ++active_;
  ++inflight_;
  ++stats_.submitted;
  stats_.max_inflight = std::max<std::uint64_t>(stats_.max_inflight,
                                                inflight_);
}

int XferEngine::issue_one_chunk(Channel& ch) {
  Xfer& x = ch.active_.front();
  const std::size_t take = std::min(chunk_bytes_, x.bytes - x.off);
  if (take) {
    if (!wire_) {
      std::memcpy(x.dst + x.off, x.src + x.off, take);
    } else {
      // Each wire chunk carries a pending-ack token; the transfer retires
      // only once every token has been returned. The wire may complete
      // synchronously (done before put_chunk returns), so the counter is
      // bumped first.
      if (!x.unacked) x.unacked = std::make_shared<std::uint32_t>(0);
      ++*x.unacked;
      Callback done = [u = x.unacked] { --*u; };
      if (x.is_get)
        wire_->get_chunk(ch.target, x.dst + x.off, x.src + x.off, take,
                         std::move(done));
      else
        wire_->put_chunk(ch.target, x.dst + x.off, x.src + x.off, take,
                         std::move(done));
    }
    x.off += take;
    stats_.bytes_copied += take;
  }
  ++stats_.chunks_copied;
  if (ch.ns_per_byte > 0) {
    // Virtual wire clock (per link): the wire starts this chunk when it
    // frees up (or now, if it has been idle) and holds it for bytes/bw.
    const std::uint64_t now = arch::now_ns();
    ch.wire_free_ns_ = std::max(ch.wire_free_ns_, now) +
                       static_cast<std::uint64_t>(take * ch.ns_per_byte);
  }
  if (x.off != x.bytes) return 1;
  // Last byte read out of the source: the initiator may reuse it. The
  // transfer is parked on landing_ before on_source fires, so a callback
  // that submits or polls never sees it half-moved.
  Callback on_source = std::move(x.on_source);
  x.landed_due_ns = ch.ns_per_byte > 0 ? ch.wire_free_ns_ : 0;
  if (x.extra_landing_ns)
    x.landed_due_ns =
        std::max(x.landed_due_ns, arch::now_ns()) + x.extra_landing_ns;
  ch.landing_.push_back(std::move(x));
  ch.active_.pop_front();
  --active_;
  if (!on_source) return 1;
  on_source();
  return 2;
}

int XferEngine::retire_landed(Channel& ch) {
  // Due times are monotone per channel (its wire clock only advances) and
  // acks return in chunk-issue order, so the head check suffices. Each
  // callback fires after its transfer left the queue: it may submit new
  // transfers or re-enter poll.
  int fired = 0;
  while (!ch.landing_.empty()) {
    Xfer& head = ch.landing_.front();
    if (head.unacked && *head.unacked != 0) break;
    if (head.landed_due_ns > arch::now_ns()) break;
    Callback cb = std::move(head.on_landed);
    ch.landing_.pop_front();
    --inflight_;
    ++stats_.landed;
    if (cb) cb();
    ++fired;
  }
  return fired;
}

int XferEngine::poll(int chunk_budget) {
  if (inflight_ == 0) return 0;
  int work = 0;
  // Channels created by callbacks during this poll (index >= n) wait for
  // the next one; unique_ptr entries keep the first n valid meanwhile.
  const std::size_t n = channels_.size();
  // Per-poll credit ledger on metered wires (WireOps::credits — the AM
  // wire's free credits): how many more chunks each channel may issue
  // this poll. Both passes deal against the same ledger, so budget a
  // throttled channel cannot use flows to the others rather than being
  // burned on a channel whose window is already full. Unmetered wires
  // (the direct wire) skip the ledger entirely — no allocation on the
  // fast path.
  const bool metered = wire_ && wire_->credits;
  std::vector<int> credit;
  auto credit_of = [&](std::size_t i) -> int {
    if (!metered) return std::numeric_limits<int>::max();
    while (credit.size() <= i)
      credit.push_back(static_cast<int>(std::min<std::uint32_t>(
          wire_->credits(channels_[credit.size()]->target), 1u << 30)));
    return credit[i];
  };
  auto spend_credit = [&](std::size_t i) {
    if (metered) --credit[i];
  };
  // Pass 1 — bandwidth-proportional quotas: each channel with queued work
  // and a ready wire gets a share of the budget scaled by its link
  // bandwidth (minimum one chunk), so a fast link soaks up the budget a
  // clock-bound capped link cannot convert into delivered bytes. Weights
  // are recomputed per poll: completion callbacks change the channel set.
  if (chunk_budget > 0) {
    double total_weight = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Channel& ch = *channels_[i];
      if (!ch.active_.empty() && wire_ready(ch) && credit_of(i) > 0)
        total_weight += link_weight(ch);
    }
    if (total_weight > 0) {
      const int budget0 = chunk_budget;
      for (std::size_t k = 0; k < n && chunk_budget > 0; ++k) {
        const std::size_t i = (rr_ + k) % n;
        Channel& ch = *channels_[i];
        if (ch.active_.empty() || !wire_ready(ch)) continue;
        int quota = std::max(
            1, static_cast<int>(budget0 * (link_weight(ch) / total_weight)));
        quota = std::min({quota, chunk_budget, credit_of(i)});
        // Re-check readiness per chunk: each issued chunk may consume a
        // wire credit (the AM window) and close the channel mid-quota.
        while (quota > 0 && !ch.active_.empty() && wire_ready(ch)) {
          work += issue_one_chunk(ch);
          spend_credit(i);
          --quota;
          --chunk_budget;
        }
      }
    }
  }
  // Pass 2 — leftover budget (quotas rounded down, or their channels ran
  // dry) goes round-robin one chunk at a time, the pre-quota behavior.
  while (chunk_budget > 0) {
    bool any = false;
    for (std::size_t k = 0; k < n && chunk_budget > 0; ++k) {
      const std::size_t i = (rr_ + k) % n;
      Channel& ch = *channels_[i];
      if (ch.active_.empty() || !wire_ready(ch) || credit_of(i) <= 0)
        continue;
      work += issue_one_chunk(ch);
      spend_credit(i);
      --chunk_budget;
      any = true;
    }
    if (!any) break;
  }
  rr_ = (rr_ + 1) % n;
  for (std::size_t i = 0; i < channels_.size(); ++i)
    work += retire_landed(*channels_[i]);
  return work;
}

void XferEngine::drain_copies() {
  // A not-ready wire stops its channel: the chunks must wait for wire
  // credits, which only arrive through the caller's AM polling — the
  // barrier-entry loop in upcxx re-invokes until copies_pending() clears.
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    Channel& ch = *channels_[i];
    while (!ch.active_.empty() && wire_ready(ch)) issue_one_chunk(ch);
    retire_landed(ch);
  }
}

void XferEngine::drain_all() {
  while (!idle()) poll(1 << 20);
}

std::size_t XferEngine::pending_chunks(int target) const {
  for (const auto& ch : channels_) {
    if (ch->target != target) continue;
    std::size_t n = 0;
    for (const auto& x : ch->active_)
      n += (x.bytes - x.off + chunk_bytes_ - 1) / chunk_bytes_;
    return n;
  }
  return 0;
}

}  // namespace gex
