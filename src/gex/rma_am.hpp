// Active-message RMA protocol — the `am` wire behind UPCXX_RMA_WIRE.
//
// The direct wire assumes the target's segment is cross-mapped (initiator
// memcpys straight into the target's heap — GASNet PSHM). A conduit without
// that property must move RMA through active messages instead; this file is
// that protocol, shaped like the real GASNet-EX AM-based rput/rget path:
//
//   PUT        [PutHdr{cookie,dst,nacks}][acks][payload]
//                                                 -> memcpy at target, ack
//   PUT_FRAG   [FragHdr{cookie,n,nacks}][acks][n descs][payload]
//                                                 -> scatter at target, ack
//   GET        [GetHdr{cookie,src,bytes,nacks}][acks]
//                                                 -> target gathers, REPLY
//   GET_FRAG   [FragHdr{cookie,n,nacks}][acks][n descs]
//                                                 -> target gathers, REPLY
//   ACK        [AckHdr{nacks}][acks]              -> initiator completions
//   REPLY      [RepHdr{cookie,nacks}][acks][payload]
//                                                 -> initiator scatters,
//                                                    then completes
//
// Requests ride the AmEngine's existing two-protocol split: payloads at or
// below Config::eager_max travel inline through the inbox ring (the eager
// put of small transfers), larger ones are staged in the shared heap with
// only a descriptor in the ring (rendezvous) — the crossover
// bench/abl_am_protocol.cpp reports. Handlers are registered in the gex
// handler registry (gex/handlers.hpp) at static init, so forked ranks agree
// on indices; no code pointer ever rides the wire, and completion cookies
// are opaque initiator-local ids, not addresses.
//
// Flow control (UPCXX_AM_WINDOW): at most `window` unacknowledged requests
// may be in flight to one target; further requests park in the target's
// sender-side queue and go out as acks retire credits, so a flood of puts
// queues locally instead of spin-polling against the target's full ring and
// staging heap. The queue itself is bounded (kQueueSlack beyond the
// window); when it fills, the *injecting* call makes progress — polling our
// own inbox, which retires credits — until a slot frees, which is
// deadlock-free for the same reason the AmEngine's ring-full spin is: every
// stuck sender still drains its own inbox. Replies and acks never consume
// credits (a credit-gated ack would deadlock the very window it retires).
//
// Ack aggregation: every ack this rank owes is batched — all acks owed to
// one target per poll() collapse into a single multi-ack record, and any
// request or reply headed toward a peer carries the acks owed to that peer
// piggybacked after its header. A chunked transfer's ack traffic therefore
// costs a handful of ring transactions instead of one per chunk.
//
// Pooled put staging: a put payload too large to ride inline goes through
// a per-peer pool of recycled shared-heap bounce buffers instead of the
// AmEngine's allocate-per-message rendezvous path. The initiator copies
// into a pool buffer, ships a small inline descriptor record, and gets the
// buffer back when the target's ack arrives (the ack that already drives
// completion — no extra traffic). The pool is bounded by the credit window
// (at most `window` buffers can be in flight), so a steady chunked stream
// cycles through the same few cache-hot buffers with no allocator traffic
// — which is what lets the am wire track the direct wire's bandwidth
// instead of paying a cold DRAM round trip per chunk.
//
// Pooled reply staging (the get-direction mirror): a GET reply too large
// to ride inline goes through the *target's* per-peer pool of recycled
// shared-heap buffers instead of the AmEngine's allocate-per-message
// rendezvous path. The target gathers into a pool buffer, ships a small
// GET_REPLY_STAGED descriptor (wire addresses only, exactly as every
// staged-put buffer), and gets the buffer back when the initiator's
// consumption ack arrives — a second cookie namespace ("racks") batched
// and piggybacked through the very same machinery as request acks, so a
// chunked rget stream recycles the same cache-hot blocks with no extra
// record traffic. At most `window` staged replies may be awaiting
// consumption per peer; past that bound (or on a momentarily exhausted
// heap) the reply falls back to the old inline/rendezvous REPLY path —
// staging is an optimization, never a requirement.
//
// One fixed window for every peer: UPCXX_AM_WINDOW=<n> when set to a
// positive integer, otherwise the transport's default — kDefaultAmWindow
// (8) on mmap, kDefaultSocketAmWindow (5) on socket, whose single byte
// stream per peer puts every in-flight chunk ahead of the next small
// record. The same value gates credits, bounds both staging pools and sets
// the queue cap (DESIGN.md, "One fixed window", has the measurements).
//
// Execution model (the part that differs from the direct wire): data lands
// when the *target* runs the request handler inside its AmEngine::poll —
// i.e. during any internal progress the target makes — not at initiator
// injection. Ring FIFO per rank pair still guarantees the barrier ordering:
// requests issued before a barrier message are handled at the target before
// the barrier message is, so "put, barrier, read" keeps its meaning —
// upcxx's barrier entry drains both the XferEngine's pending chunks and
// this protocol's sender-side queue before contributing to the barrier.
//
// Handler discipline: request handlers only copy bytes and *record* the ack
// or reply to send; nothing is injected from inside a handler (a reply send
// could spin on a full ring and re-enter the inbox ring's try_consume,
// which is not reentrant). poll() — called from the rank's internal
// progress right after AmEngine::poll — performs the deferred sends and
// fires initiator-side completion callbacks.
//
// Threading: a per-rank object with one owner — the thread holding the
// rank's master persona. It injects every request (directly, or as the
// XferEngine's chunk mover), runs AmEngine::poll and therefore every
// handler, and fires every completion, so all protocol state is plain
// data: credits are counters, the per-peer queues and pools are plain
// containers. Off-persona injectors reach the protocol only through the
// submit-queue closures the owner runs (upcxx/progress.hpp).
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "arch/small_fn.hpp"
#include "gex/am.hpp"
#include "gex/xfer.hpp"

namespace gex {

class RmaAmProtocol {
 public:
  using Done = arch::UniqueFunction<void()>;

  // Sender-side queue slots beyond the window before an injecting call
  // blocks (making progress while it waits). Bounds the payload copies a
  // flood can park in private memory.
  static constexpr std::size_t kQueueSlack = 64;

  // A contiguous run in the *remote* rank's address space. In memory this
  // holds the initiator's view of the address (cross-mapped today); on the
  // wire it always travels as a (segment id, offset) pair resolved at the
  // owning rank — see wire_enc/wire_dec below.
  struct Frag {
    std::uint64_t addr;
    std::uint64_t bytes;
  };
  // A contiguous run in the initiator's address space.
  struct LocalFrag {
    void* ptr;
    std::size_t bytes;
  };

  // `window` is the per-peer credit window (gex::resolve_am_window at
  // launch; 0 is treated as 1). Pre-creates one Peer per rank
  // (Config::ranks), so peer() is an index.
  explicit RmaAmProtocol(AmEngine* am,
                         std::uint32_t window = kDefaultAmWindow);

  // Contiguous put: the payload leaves src before this call returns (the
  // initiator may reuse src immediately) — copied into the wire when a
  // credit is available, into the sender-side queue otherwise. `done` fires
  // from a later poll() once the target has memcpy'd the payload and its
  // ack arrived.
  void put(int target, void* dst, const void* src, std::size_t bytes,
           Done done);

  // Contiguous get: `dst` must stay valid until `done` fires (the reply
  // handler scatters into it first).
  void get(int target, void* dst, const void* src, std::size_t bytes,
           Done done);

  // Scatter-put: local fragments are gathered directly into the request
  // payload (or the queue buffer when the window is full); the target
  // scatters into `dsts` in order. Total source and destination bytes must
  // match.
  void put_fragments(int target, const std::vector<Frag>& dsts,
                     const std::vector<LocalFrag>& srcs, Done done);

  // Gather-get: the target gathers `srcs` into one reply; the initiator
  // scatters the payload into `dsts` in order (each must stay valid until
  // `done` fires).
  void get_fragments(int target, const std::vector<Frag>& srcs,
                     std::vector<LocalFrag> dsts, Done done);

  // Fires due completion callbacks (returning their credits and releasing
  // queued requests), sends queued requests as credits allow, and flushes
  // deferred acks/replies — acks owed to one target coalesce into a single
  // multi-ack record per call. Called from internal progress after
  // AmEngine::poll (upcxx::progress does; run_rank's teardown loop does for
  // raw-gex users). Returns the number of actions performed.
  //
  // Equivalent to poll_requests() + flush_acks(). Drivers that issue more
  // protocol traffic between the two (upcxx internal progress runs the
  // XferEngine in between, whose chunk requests are the natural piggyback
  // carriers) call the halves explicitly so owed acks get a chance to ride
  // reverse traffic before a standalone record is spent on them.
  int poll() { return poll_requests() + flush_acks(); }

  // Completions, queued-request release, and deferred replies — everything
  // except standalone ack records.
  int poll_requests();

  // One multi-ack record per target still owed acks after the piggyback
  // opportunities above.
  int flush_acks();

  // No requests awaiting completion (in flight or queued), nothing
  // deferred to send, and no staged reply still awaiting its consumption
  // ack (the buffer is pinned until the rack arrives).
  bool idle() const;
  // Requests not yet completed, whether on the wire or still queued.
  std::size_t outstanding() const { return pending_.size(); }
  // Requests parked sender-side waiting for credits.
  std::size_t queued() const {
    std::size_t n = 0;
    for (const auto& p : peers_) n += p.sendq.size();
    return n;
  }
  // The per-peer credit window: the bound on in-flight requests and on
  // both staging pools, which is what invariant checks compare against.
  std::uint32_t window() const { return window_; }

  // True when a request to `target` would go straight onto the wire (a
  // credit is free and nothing is queued ahead of it). The XferEngine's
  // chunk movers consult this (WireOps::ready) so chunks wait in the
  // engine — where they cost nothing — instead of piling up payload copies
  // in the sender-side queue.
  bool can_accept(int target) const {
    if (target < 0 || static_cast<std::size_t>(target) >= peers_.size())
      return true;
    const Peer& p = peers_[target];
    return p.sendq.empty() && p.outstanding < window_;
  }

  // Teardown giving-up path: a peer (or the whole job) failed, its acks and
  // replies will never arrive. Releases every credit, cancels queued and
  // in-flight requests (their `done` callbacks are destroyed, not fired —
  // the arena error flag is the failure signal), and drops owed acks so no
  // later poll tries to send into a dead rank's possibly-full ring.
  void fail_all_peers();

  // XferEngine chunk movers backed by this protocol — install with
  // XferEngine::set_wire to put the chunked engine on the am wire.
  XferEngine::WireOps wire_ops();

  struct Stats {
    std::uint64_t puts_sent = 0;
    std::uint64_t gets_sent = 0;
    std::uint64_t frag_puts_sent = 0;
    std::uint64_t frag_gets_sent = 0;
    std::uint64_t puts_handled = 0;
    std::uint64_t gets_handled = 0;
    std::uint64_t acks_sent = 0;       // standalone multi-ack records
    std::uint64_t ack_cookies_sent = 0;  // cookies in standalone records
    std::uint64_t acks_piggybacked = 0;  // cookies on reverse traffic
    std::uint64_t replies_sent = 0;
    std::uint64_t requests_queued = 0;   // parked for lack of a credit
    std::uint64_t send_stalls = 0;       // spins waiting for a queue slot
    std::uint64_t max_outstanding = 0;   // peak in-flight to any one target
    std::uint64_t queued_peak = 0;       // peak sender-side queue depth
    std::uint64_t cancelled = 0;         // dropped by fail_all_peers
    std::uint64_t stale_completions = 0;  // acks/replies after a cancel
    std::uint64_t puts_staged = 0;       // puts through the bounce pool
    std::uint64_t stage_allocs = 0;      // pool misses (fresh heap blocks)
    // Pooled reply staging (target side unless noted).
    std::uint64_t replies_staged = 0;    // GET replies through the pool
    std::uint64_t reply_pool_hits = 0;   // stage acquisitions from the pool
    std::uint64_t reply_stage_allocs = 0;  // fresh heap blocks for replies
    std::uint64_t reply_fallbacks = 0;   // bound/heap exhausted -> old path
    std::uint64_t staged_replies_handled = 0;  // initiator: consumed
    std::uint64_t reply_ack_cookies_sent = 0;  // racks in standalone records
    std::uint64_t reply_acks_piggybacked = 0;  // racks on reverse traffic
    // Always 0 since the window is fixed; kept because perfbench reads
    // them (gex.rma_am.window_moves_per_kack).
    std::uint64_t window_grow = 0;
    std::uint64_t window_shrink = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  friend struct RmaAmHandlers;  // the registered AM handlers (rma_am.cpp)

  // A pool bounce buffer (shared-heap block, identical mapping in every
  // rank — the same addressing contract as rendezvous buffers).
  struct StageBuf {
    void* p = nullptr;
    std::size_t cap = 0;
  };
  struct Pending {
    int target;
    Done done;
    std::vector<LocalFrag> scatter;  // gets: local landing runs, wire order
    StageBuf stage;  // staged puts: recycled into the pool on ack
  };
  // A window-blocked request. Puts own their payload (the caller's source
  // buffer is reusable the moment the injecting call returns); gets keep
  // their scatter list in pending_ like every other get.
  struct QueuedReq {
    enum Kind : std::uint8_t { kPut, kGet, kPutFrag, kGetFrag };
    Kind kind;
    std::uint64_t cookie;
    std::vector<Frag> remote;  // put/get: one entry; frags: the desc list
    std::vector<std::byte> payload;  // puts only
  };
  struct QueuedReply {
    int target;
    std::uint64_t cookie;
    std::vector<Frag> gather;  // local (this rank's) source runs
    bool frag;                 // GET_FRAG origin (staged record selection)
  };
  // Per-target sender and receiver state: the credit counter, the queue
  // of window-blocked requests, the acks and reply-consumption acks this
  // rank owes that target, and both staging pools (put bounce buffers as
  // initiator, reply buffers as target). `outstanding` is bounded by
  // window_.
  struct Peer {
    explicit Peer(int t) : target(t) {}
    const int target;
    std::uint32_t outstanding = 0;  // on the wire, not retired
    std::deque<QueuedReq> sendq;
    std::vector<std::uint64_t> acks_owed;
    std::vector<std::uint64_t> racks_owed;  // staged replies consumed here
    std::vector<StageBuf> stage_pool;  // free bounce buffers, ready to reuse
    std::vector<StageBuf> reply_pool;  // free reply buffers, ready to reuse
    // Staged replies sent to this peer, pinned until its rack returns.
    std::unordered_map<std::uint64_t, StageBuf> reply_out;
  };

  // Wire-address translation (gex/segment.hpp): every remote/staged
  // address leaving this rank is packed to (segment id, offset) at record
  // encode, and every address arriving is resolved against this rank's own
  // mapping at decode — no wire byte depends on the peer's virtual-address
  // layout. Both abort on addresses outside the registered segments.
  WireAddr wire_enc(std::uint64_t addr) const;
  std::uint64_t wire_dec(WireAddr wa) const;

  Peer& peer(int target) {
    assert(target >= 0 &&
           static_cast<std::size_t>(target) < peers_.size() &&
           "peer rank outside the configured job size");
    return peers_[static_cast<std::size_t>(target)];
  }
  // Null .p when the job is failing and the heap is exhausted (the blocks
  // may be pinned by a dead peer's unacked requests) — the caller cancels.
  StageBuf acquire_stage(Peer& p, std::size_t bytes);
  void recycle_stage(Peer& p, StageBuf buf);
  // Reply-staging twin of acquire_stage, but *non-blocking*: null .p when
  // the per-peer staged-reply bound is reached or the heap has no block
  // right now — the caller falls back to the rendezvous REPLY path instead
  // of stalling the target's poll loop.
  StageBuf acquire_reply_stage(Peer& p, std::size_t bytes);
  // Initiator's rack arrived: unpin the staged reply buffer `cookie` and
  // recycle it into the peer's reply pool (freed if the pool is at its
  // bound).
  void recycle_reply(Peer& p, std::uint64_t cookie);
  void cancel_sent(Peer& p, std::uint64_t cookie);
  std::uint64_t new_pending(int target, Done done,
                            std::vector<LocalFrag> scatter);
  // Both ack namespaces owed to one target, drained together for embedding
  // in an outgoing record (request acks retire credits at the receiver;
  // reply acks unpin staged reply buffers).
  struct OwedAcks {
    std::vector<std::uint64_t> acks;   // request cookies
    std::vector<std::uint64_t> racks;  // staged-reply cookies
  };
  OwedAcks take_acks(int target);
  // Claims one credit if p.outstanding is below the window; true
  // means the caller must send (or release it via cancel_sent).
  bool claim_outstanding(Peer& p);
  // claim_outstanding, but refused while anything is parked in the sendq:
  // queued requests go first, and only flush_sendq drains those.
  bool try_claim_credit(Peer& p) {
    return p.sendq.empty() && claim_outstanding(p);
  }
  void enqueue(Peer& p, QueuedReq q);
  // Sends queued requests while credits allow; returns actions performed.
  int flush_sendq(Peer& p);

  // Wire writers. Each drains the target's owed acks into the record.
  void send_put(int target, std::uint64_t cookie, const Frag& dst,
                const void* src);
  void send_get(int target, std::uint64_t cookie, const Frag& src);
  void send_put_frag(int target, std::uint64_t cookie,
                     const std::vector<Frag>& dsts, const LocalFrag* srcs,
                     std::size_t nsrcs, std::size_t total);
  void send_get_frag(int target, std::uint64_t cookie,
                     const std::vector<Frag>& srcs);

  AmEngine* am_;
  std::uint32_t window_;  // per-peer credit window
  std::uint64_t next_cookie_ = 1;
  std::unordered_map<std::uint64_t, Pending> pending_;  // initiator side
  // One entry per rank, created up front (indexed by rank id).
  std::vector<Peer> peers_;
  std::vector<QueuedReply> replies_;   // target side, deferred to poll()
  std::vector<std::uint64_t> completed_;  // acked/replied, done not yet run
  Stats stats_;
};

}  // namespace gex
