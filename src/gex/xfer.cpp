#include "gex/xfer.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

#include "arch/atomics.hpp"
#include "arch/timer.hpp"

namespace gex {

XferEngine::XferEngine(std::size_t chunk_bytes, double bw_gbps)
    : chunk_bytes_(chunk_bytes ? chunk_bytes : std::size_t{256} << 10),
      bw_gbps_(bw_gbps > 0 ? bw_gbps : 0),
      // 1 GB/s == 1e9 bytes/s == 1 byte/ns, so ns-per-byte is 1/gbps.
      ns_per_byte_(bw_gbps > 0 ? 1.0 / bw_gbps : 0) {}

XferEngine::Channel& XferEngine::channel(int target) {
  arch::SpinGuard g(channels_mu_);
  for (auto& ch : channels_)
    if (ch->target == target) return *ch;
  channels_.push_back(std::make_unique<Channel>());
  channels_.back()->target = target;
  channels_.back()->ns_per_byte = ns_per_byte_;
  return *channels_.back();
}

std::vector<XferEngine::Channel*> XferEngine::snapshot() const {
  arch::SpinGuard g(channels_mu_);
  std::vector<Channel*> v;
  v.reserve(channels_.size());
  for (const auto& ch : channels_) v.push_back(ch.get());
  return v;
}

std::size_t XferEngine::channel_count() const {
  arch::SpinGuard g(channels_mu_);
  return channels_.size();
}

void XferEngine::set_link_bw_gbps(int target, double gbps) {
  Channel& ch = channel(target);
  arch::SpinGuard g(ch.mu);
  ch.ns_per_byte = gbps > 0 ? 1.0 / gbps : 0;
}

void XferEngine::submit(int target, void* dst, const void* src,
                        std::size_t bytes, Callback on_source,
                        Callback on_landed, bool is_get,
                        std::uint64_t extra_landing_ns) {
  assert((bytes == 0 || (dst && src)) && "null endpoint on a live transfer");
  Xfer x{static_cast<std::byte*>(dst), static_cast<const std::byte*>(src),
         bytes, 0, is_get, std::move(on_source), std::move(on_landed),
         extra_landing_ns, 0, nullptr};
  active_count_.fetch_add(1, std::memory_order_relaxed);
  const auto inflight =
      inflight_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  arch::relaxed_inc(stats_.submitted);
  arch::relaxed_max(stats_.max_inflight, inflight);
  // Per-target FIFO: once anything is parked in the deferred queue, every
  // later submit parks behind it, so transfers to one target never
  // reorder around a busy channel.
  if (deferred_submits_.empty()) {
    Channel& ch = channel(target);
    if (ch.mu.try_lock()) {
      ch.active_.push_back(std::move(x));
      ch.active_n.store(ch.active_.size(), std::memory_order_relaxed);
      ch.mu.unlock();
      return;
    }
  }
  deferred_submits_.emplace_back(target, std::move(x));
}

int XferEngine::flush_deferred() {
  if (deferred_submits_.empty()) return 0;
  auto batch = std::move(deferred_submits_);
  deferred_submits_.clear();
  int moved = 0;
  while (!batch.empty()) {
    Channel& ch = channel(batch.front().first);
    if (!ch.mu.try_lock()) break;  // still busy: re-park the rest, in order
    ch.active_.push_back(std::move(batch.front().second));
    ch.active_n.store(ch.active_.size(), std::memory_order_relaxed);
    ch.mu.unlock();
    batch.pop_front();
    ++moved;
  }
  // Unplaced transfers go back to the FRONT: submits that arrived through
  // wire-call recursion while this ran must stay behind them.
  for (auto it = batch.rbegin(); it != batch.rend(); ++it)
    deferred_submits_.push_front(std::move(*it));
  return moved;
}

void XferEngine::issue_one_chunk(Channel& ch,
                                 std::vector<Callback>* sources) {
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
      if (!x.unacked)
        x.unacked = std::make_shared<std::atomic<std::uint32_t>>(0);
      x.unacked->fetch_add(1, std::memory_order_acq_rel);
      Callback done = [u = x.unacked] {
        u->fetch_sub(1, std::memory_order_acq_rel);
      };
      if (x.is_get)
        wire_->get_chunk(ch.target, x.dst + x.off, x.src + x.off, take,
                         std::move(done));
      else
        wire_->put_chunk(ch.target, x.dst + x.off, x.src + x.off, take,
                         std::move(done));
    }
    x.off += take;
    arch::relaxed_add(stats_.bytes_copied, take);
  }
  arch::relaxed_inc(stats_.chunks_copied);
  if (ch.ns_per_byte > 0) {
    // Virtual wire clock (per link): the wire starts this chunk when it
    // frees up (or now, if it has been idle) and holds it for bytes/bw.
    const std::uint64_t now = arch::now_ns();
    ch.wire_free_ns_ = std::max(ch.wire_free_ns_, now) +
                       static_cast<std::uint64_t>(take * ch.ns_per_byte);
  }
  if (x.off == x.bytes) {
    // Last byte read out of the source: the initiator may reuse it. The
    // callback never fires under ch.mu — on the persona path it is handed
    // to the caller (user code may re-enter poll() or submit()); on the
    // helper path (`sources` null) it stays parked on the landing entry
    // for worker 0's retire sweep, so helpers never run user code.
    if (sources && x.on_source)
      sources->push_back(std::move(x.on_source));
    x.landed_due_ns = ch.ns_per_byte > 0 ? ch.wire_free_ns_ : 0;
    if (x.extra_landing_ns)
      x.landed_due_ns = std::max(x.landed_due_ns, arch::now_ns()) +
                        x.extra_landing_ns;
    ch.landing_.push_back(std::move(x));
    ch.active_.pop_front();
    ch.active_n.store(ch.active_.size(), std::memory_order_relaxed);
    active_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

int XferEngine::retire_landed(Channel& ch) {
  if (!ch.mu.try_lock()) return 0;
  std::vector<Callback> sources, landed;
  // Helper-issued transfers parked their on_source here (issue_one_chunk);
  // collect in FIFO order so source still precedes landed per transfer.
  for (auto& x : ch.landing_)
    if (x.on_source) sources.push_back(std::move(x.on_source));
  // Due times are monotone per channel (its wire clock only advances) and
  // acks return in chunk-issue order, so the head check suffices.
  while (!ch.landing_.empty()) {
    Xfer& head = ch.landing_.front();
    if (head.unacked && head.unacked->load(std::memory_order_acquire) != 0)
      break;
    if (head.landed_due_ns > arch::now_ns()) break;
    landed.push_back(std::move(head.on_landed));
    ch.landing_.pop_front();
    inflight_count_.fetch_sub(1, std::memory_order_relaxed);
    arch::relaxed_inc(stats_.landed);
  }
  ch.mu.unlock();
  // Fire outside the lock: callbacks may submit new transfers (deferred
  // queue or another channel) or re-enter poll (try_lock everywhere).
  int fired = 0;
  for (auto& cb : sources) {
    cb();
    ++fired;
  }
  for (auto& cb : landed) {
    if (cb) cb();
    ++fired;
  }
  return fired;
}

int XferEngine::poll(int chunk_budget) {
  // Idle: nothing submitted or in flight, so no channel has work. Submits
  // count into inflight_count_ before they are placed, so a stale zero
  // only defers a concurrent submit to the next poll.
  if (inflight_count_.load(std::memory_order_acquire) == 0 &&
      deferred_submits_.empty())
    return 0;
  int work = flush_deferred();
  const std::vector<Channel*> chans = snapshot();
  if (chans.empty()) return work;
  // Per-poll credit ledger on metered wires (WireOps::credits — the AM
  // wire's adaptive window): how many more chunks each channel may issue
  // this poll. Both passes deal against the same snapshot, so budget a
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
          wire_->credits(chans[credit.size()]->target), 1u << 30)));
    return credit[i];
  };
  auto spend_credit = [&](std::size_t i) {
    if (metered) --credit[i];
  };
  std::vector<Callback> sources;
  auto fire_sources = [&] {
    for (auto& cb : sources) {
      cb();
      ++work;
    }
    sources.clear();
  };
  const std::size_t n = chans.size();
  // Pass 1 — bandwidth-proportional quotas: each channel with queued work
  // and a ready wire gets a share of the budget scaled by its link
  // bandwidth (minimum one chunk), so a fast link soaks up the budget a
  // clock-bound capped link cannot convert into delivered bytes. Weights
  // are recomputed per poll: completion callbacks change the channel set.
  if (chunk_budget > 0) {
    double total_weight = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Channel& ch = *chans[i];
      if (ch.active_n.load(std::memory_order_relaxed) != 0 &&
          wire_ready(ch) && credit_of(i) > 0)
        total_weight += link_weight(ch);
    }
    if (total_weight > 0) {
      const int budget0 = chunk_budget;
      for (std::size_t k = 0; k < n && chunk_budget > 0; ++k) {
        const std::size_t i = (rr_ + k) % n;
        Channel& ch = *chans[i];
        if (ch.active_n.load(std::memory_order_relaxed) == 0 ||
            !wire_ready(ch))
          continue;
        int quota = std::max(
            1, static_cast<int>(budget0 * (link_weight(ch) / total_weight)));
        quota = std::min({quota, chunk_budget, credit_of(i)});
        if (quota <= 0) continue;
        // A helper mid-issue on this channel: skip, it is being served.
        if (!ch.mu.try_lock()) continue;
        // Re-check readiness per chunk: each issued chunk may consume a
        // wire credit (the AM window) and close the channel mid-quota.
        while (quota > 0 && !ch.active_.empty() && wire_ready(ch)) {
          issue_one_chunk(ch, &sources);
          spend_credit(i);
          --quota;
          --chunk_budget;
          ++work;
        }
        ch.mu.unlock();
        fire_sources();
      }
    }
  }
  // Pass 2 — leftover budget (quotas rounded down, or their channels ran
  // dry) goes round-robin one chunk at a time, the pre-quota behavior.
  while (chunk_budget > 0) {
    bool any = false;
    for (std::size_t k = 0; k < n && chunk_budget > 0; ++k) {
      const std::size_t i = (rr_ + k) % n;
      Channel& ch = *chans[i];
      if (ch.active_n.load(std::memory_order_relaxed) == 0 ||
          !wire_ready(ch) || credit_of(i) <= 0)
        continue;
      if (!ch.mu.try_lock()) continue;
      if (!ch.active_.empty() && wire_ready(ch)) {
        issue_one_chunk(ch, &sources);
        spend_credit(i);
        --chunk_budget;
        ++work;
        any = true;
      }
      ch.mu.unlock();
      fire_sources();
    }
    if (!any) break;
  }
  rr_ = (rr_ + 1) % n;
  // Fresh snapshot: issue/retire callbacks may have created new channels.
  for (Channel* ch : snapshot()) work += retire_landed(*ch);
  return work;
}

int XferEngine::issue_pass(int chunk_budget, std::size_t slice,
                           std::size_t nslices) {
  if (active_count_.load(std::memory_order_relaxed) == 0) return 0;
  if (nslices == 0) nslices = 1;
  int work = 0;
  const std::vector<Channel*> chans = snapshot();
  for (std::size_t i = slice % nslices;
       i < chans.size() && chunk_budget > 0; i += nslices) {
    Channel& ch = *chans[i];
    if (ch.active_n.load(std::memory_order_relaxed) == 0 ||
        !wire_ready(ch))
      continue;
    int quota = chunk_budget;
    if (wire_ && wire_->credits)
      quota = std::min(quota, static_cast<int>(std::min<std::uint32_t>(
                                  wire_->credits(ch.target), 1u << 30)));
    if (quota <= 0) continue;
    if (!ch.mu.try_lock()) continue;
    while (quota > 0 && !ch.active_.empty() && wire_ready(ch)) {
      issue_one_chunk(ch, nullptr);  // sources park for worker 0
      --quota;
      --chunk_budget;
      ++work;
    }
    ch.mu.unlock();
  }
  return work;
}

void XferEngine::drain_copies() {
  flush_deferred();
  // A not-ready wire stops its channel: the chunks must wait for wire
  // credits, which only arrive through the caller's AM polling — the
  // barrier-entry loop in upcxx re-invokes until copies_pending() clears.
  // The same loop covers a channel a helper holds mid-issue.
  std::vector<Callback> sources;
  for (Channel* chp : snapshot()) {
    Channel& ch = *chp;
    if (ch.active_n.load(std::memory_order_relaxed) != 0 &&
        ch.mu.try_lock()) {
      while (!ch.active_.empty() && wire_ready(ch))
        issue_one_chunk(ch, &sources);
      ch.mu.unlock();
      for (auto& cb : sources) cb();
      sources.clear();
    }
    retire_landed(ch);
  }
}

void XferEngine::drain_all() {
  while (!idle()) poll(1 << 20);
}

bool XferEngine::idle() const {
  return inflight_count_.load(std::memory_order_acquire) == 0;
}

std::size_t XferEngine::inflight() const {
  return inflight_count_.load(std::memory_order_acquire);
}

bool XferEngine::copies_pending() const {
  return active_count_.load(std::memory_order_acquire) != 0;
}

std::size_t XferEngine::pending_chunks(int target) const {
  for (Channel* chp : snapshot()) {
    if (chp->target != target) continue;
    arch::SpinGuard g(chp->mu);
    std::size_t n = 0;
    for (const auto& x : chp->active_)
      n += (x.bytes - x.off + chunk_bytes_ - 1) / chunk_bytes_;
    return n;
  }
  return 0;
}

}  // namespace gex
