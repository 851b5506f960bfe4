// Asynchronous data-motion engine — the substrate's bulk-transfer path and
// the paper's actQ (§III) made real.
//
// Large RMA transfers are decomposed into pipelined chunks held in
// *per-target channels* and drained by *internal* progress with bounded
// work per poll. The initiating call returns immediately after queueing;
// the actual data motion happens inside later poll() calls made by
// whichever thread holds the rank's master persona — so a dedicated
// progress-thread persona gives true communication/computation overlap on
// multicore, which is the property bench/abl_overlap.cpp measures.
//
// Channels: transfers to one target form a FIFO (chunks of transfer N+1
// never start before transfer N's finish), but *different* targets'
// channels advance independently — poll() deals its chunk budget round-
// robin across channels with queued work, so a saturated or slow link to
// one target never head-of-line-blocks traffic to another. Each channel
// owns its own virtual wire clock (per-link bandwidth: Config::sim_bw_gbps
// is the per-channel default, overridable per target with
// set_link_bw_gbps()).
//
// Wires: the engine decides *when* each chunk moves; a pluggable wire
// decides *how* (WireOps below). The built-in direct wire is an
// initiator-side memcpy into the cross-mapped arena — synchronous,
// zero-allocation, remotely visible on return. The AM wire
// (gex/rma_am.hpp, selected by UPCXX_RMA_WIRE=am) ships each chunk as an
// active-message put/get request and completes it when the target's ack
// arrives; the engine's completion pipeline is identical either way.
//
// Two completion signals per transfer, always in this order:
//   on_source — every byte has been read out of the source buffer (the
//               initiator may reuse it: UPC++ source completion). On the
//               direct wire this means the memcpys happened; on the AM
//               wire it means every chunk's payload was copied into the
//               wire (ring or staging heap).
//   on_landed — every byte is visible at the destination (direct: copied;
//               am: acked by the target) AND the simulated wire has
//               delivered it (see the bandwidth model below). The upcxx
//               layer sends remote_cx notifications and schedules
//               operation completion from this callback, so remote RPCs
//               never observe partially-landed data.
//
// Bandwidth model: with a channel's bw_gbps > 0 the channel maintains a
// virtual wire clock. Each chunk issued at real time t advances the clock
// by chunk_bytes / bw; a transfer "lands" only once the clock entry of its
// last chunk has passed. Copies themselves are never delayed (the memory
// system is the real wire here, exactly as GASNet PSHM), so the model
// caps *reported* bandwidth without serializing the actual data motion —
// fig3_rma_bandwidth uses this to produce a real bandwidth curve.
//
// Threading: single owner. The thread holding the rank's master persona
// (the primordial thread, or a upcxx::progress_thread it handed the
// persona to) is the only one that submits, polls, issues chunks and fires
// callbacks, so the engine's state is plain data. Off-persona injectors
// never reach it directly: their transfers arrive as submit-queue closures
// the owner runs inside progress (upcxx/progress.hpp). Callbacks fire with
// no reference into a queue held across the call, so one that submits a
// new transfer (or re-enters poll) sees consistent channels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "arch/small_fn.hpp"

namespace gex {

class XferEngine {
 public:
  using Callback = arch::UniqueFunction<void()>;

  // Chunks issued per poll() by default: bounds the work one internal
  // progress call performs so injection-heavy loops stay responsive.
  static constexpr int kDefaultChunkBudget = 4;

  // A pluggable chunk mover. Each op transports one chunk to/from `target`
  // and must invoke `done` exactly once when the chunk's data is remotely
  // visible — synchronously (the direct wire) or from a later engine/AM
  // poll (the AM wire, once the target's ack arrives). put_chunk must
  // consume `src` before returning (the engine fires on_source when the
  // last chunk has been issued); get_chunk must have written `dst` by the
  // time it calls done. An optional `ready` predicate lets the wire apply
  // back-pressure: while ready(target) is false the engine holds that
  // channel's chunks (they cost nothing in the engine — the source buffer
  // is pinned until on_source) instead of pushing them into a wire that
  // would have to buffer or block. The AM wire reports false while its
  // credit window to the target is full.
  struct WireOps {
    arch::UniqueFunction<void(int target, void* dst, const void* src,
                              std::size_t bytes, Callback done)>
        put_chunk;
    arch::UniqueFunction<void(int target, void* dst, const void* src,
                              std::size_t bytes, Callback done)>
        get_chunk;
    arch::UniqueFunction<bool(int target)> ready;  // null = always ready
    // Chunks the wire will accept toward `target` right now — the AM
    // wire's *adaptive* credit window (window_now) minus its in-flight
    // requests, rather than any static ceiling. Null = unmetered. poll()
    // deals its per-poll budget against this, so quota a throttled
    // channel cannot convert flows to other channels in the same poll
    // instead of dying with the throttled one.
    arch::UniqueFunction<std::uint32_t(int target)> credits;
  };

  // chunk_bytes: pipelining granularity (Config::xfer_chunk_bytes).
  // bw_gbps: default per-channel simulated wire bandwidth in GB/s;
  // 0 disables the model.
  XferEngine(std::size_t chunk_bytes, double bw_gbps);

  // Installs a wire (replacing the built-in direct memcpy). Must happen
  // before any submit().
  void set_wire(WireOps ops) { wire_.emplace(std::move(ops)); }
  bool wire_is_direct() const { return !wire_.has_value(); }

  // Overrides the simulated bandwidth of the link to `target` (per-link
  // cap; other links keep the engine default).
  void set_link_bw_gbps(int target, double gbps);

  // Queues an asynchronous move of `bytes` between this rank and `target`
  // (is_get: dst is local, src remote; otherwise src is local, dst
  // remote). No data moves inside this call. Both buffers must stay valid
  // until on_source (src) / on_landed (dst) fire. Either callback may be
  // empty. extra_landing_ns adds a fixed toll to the transfer's landing
  // time on top of the wire clock — the simulated-PCIe cost of a
  // device-kind copy() composes with the wire model through it.
  void submit(int target, void* dst, const void* src, std::size_t bytes,
              Callback on_source, Callback on_landed, bool is_get = false,
              std::uint64_t extra_landing_ns = 0);

  // Bounded internal progress: issues at most `chunk_budget` chunks across
  // channels with queued work (per-channel FIFO is preserved), and fires
  // every due completion callback. The budget is dealt in two passes:
  // first bandwidth-proportionally — each eligible channel gets a share
  // scaled by its link bandwidth (minimum one chunk), so a fast link stays
  // saturated while a clock-bound capped link gets just enough to keep its
  // virtual wire busy — then any leftover budget goes round-robin to
  // channels that still have work. Channels whose wire reports not-ready
  // are skipped entirely (see WireOps::ready). Returns the number of
  // chunks issued plus callbacks fired; 0 means there was nothing
  // actionable.
  int poll(int chunk_budget = kDefaultChunkBudget);

  // Issues every queued chunk the wire will currently accept (unbounded,
  // but a not-ready wire stops its channel's drain — the caller must keep
  // polling the wire's ack path and re-invoking until copies_pending() is
  // false; upcxx's barrier entry does). Fires the source callbacks as
  // transfers finish issuing; wire-time and ack gating of on_landed still
  // apply. Used at barrier entry so the pre-engine "data visible once
  // issued before a barrier" ordering survives (on the AM wire the
  // requests are then in the target's inbox ahead of any barrier
  // message), and at teardown.
  void drain_copies();

  // Spins poll() until nothing is in flight (teardown; under the bandwidth
  // model this waits out the virtual wire clock). On the AM wire this only
  // completes if acks keep arriving — drive AmEngine::poll and
  // RmaAmProtocol::poll alongside (upcxx::progress does; run_rank's
  // teardown loop does for raw-gex users).
  void drain_all();

  bool idle() const { return inflight_ == 0; }
  std::size_t inflight() const { return inflight_; }
  // True while chunks remain to be issued (as opposed to issued transfers
  // merely waiting out acks or the virtual wire clock). Progress-thread
  // loops use this to yield instead of hot-spinning when the engine only
  // needs an occasional clock check.
  bool copies_pending() const { return active_ != 0; }

  std::size_t chunk_bytes() const { return chunk_bytes_; }
  double bw_gbps() const { return bw_gbps_; }
  std::size_t channel_count() const { return channels_.size(); }
  // Chunks not yet issued on the link to `target` (budget-scaling tests).
  std::size_t pending_chunks(int target) const;

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t chunks_copied = 0;
    std::uint64_t bytes_copied = 0;
    std::uint64_t landed = 0;
    std::uint64_t max_inflight = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Xfer {
    std::byte* dst;
    const std::byte* src;
    std::size_t bytes;
    std::size_t off;  // bytes issued so far
    bool is_get;
    Callback on_source;
    Callback on_landed;
    std::uint64_t extra_landing_ns;
    std::uint64_t landed_due_ns;  // virtual wire time of the last chunk
    // Chunks issued on a non-direct wire whose done has not fired yet.
    // Null on the direct wire (chunks complete synchronously — the
    // zero-allocation fast path keeps holding). Shared with each chunk's
    // done callback, which may outlive the transfer.
    std::shared_ptr<std::uint32_t> unacked;
  };

  // One target's lane: its own FIFO pair and its own wire clock.
  struct Channel {
    int target = -1;
    double ns_per_byte = 0;  // 0 when the bandwidth model is off
    // Head transfer is being chunked out; the rest wait. Separate landing
    // queue for issued transfers awaiting acks / the virtual wire clock
    // (due times are monotone per channel, so FIFO).
    std::deque<Xfer> active_;
    std::deque<Xfer> landing_;
    std::uint64_t wire_free_ns_ = 0;
  };

  Channel& channel(int target);

  // Weight of an uncapped link in the bandwidth-proportional budget split:
  // effectively "memcpy speed", far above any modeled link, so uncapped
  // channels absorb the budget a clock-bound capped link cannot use.
  static constexpr double kUncappedWeightGbps = 128.0;

  bool wire_ready(const Channel& ch) {
    return !wire_ || !wire_->ready || wire_->ready(ch.target);
  }
  double link_weight(const Channel& ch) const {
    return ch.ns_per_byte > 0 ? 1.0 / ch.ns_per_byte : kUncappedWeightGbps;
  }

  // Issues the next chunk of the channel's head transfer. When the last
  // byte goes out the transfer moves to landing_ and its on_source fires.
  // Returns 1 plus the number of callbacks fired.
  int issue_one_chunk(Channel& ch);
  // Fires on_landed for every landing transfer that is acked and past its
  // wire-clock due time, in FIFO order. Returns callbacks fired.
  int retire_landed(Channel& ch);

  std::size_t chunk_bytes_;
  double bw_gbps_;
  double ns_per_byte_;  // 0 when the bandwidth model is off

  std::optional<WireOps> wire_;
  // Few targets; linear scan. unique_ptr entries so a Channel stays put
  // while completion callbacks grow the set mid-traversal.
  std::vector<std::unique_ptr<Channel>> channels_;
  std::size_t rr_ = 0;  // round-robin start cursor

  // Transfer populations: active = submitted and not yet fully issued;
  // inflight = not yet retired.
  std::size_t active_ = 0;
  std::size_t inflight_ = 0;

  Stats stats_;
};

}  // namespace gex
