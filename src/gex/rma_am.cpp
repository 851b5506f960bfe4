#include "gex/rma_am.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <thread>

#include "arch/spinlock.hpp"
#include "gex/handlers.hpp"
#include "gex/runtime.hpp"

namespace gex {

namespace {

// Largest request/reply record the protocol sends inline. On shared-memory
// transports that is the configured eager cap — anything larger goes
// through pooled shared-heap staging. On transports whose peers cannot
// read this rank's memory (socket) staging is meaningless, so everything
// up to the wire-record limit ships inline instead.
std::size_t inline_cutoff(AmEngine* am) {
  return am->transport().shared_memory() ? am->eager_max() : am->inline_max();
}

}  // namespace

namespace {

// Wire record headers. Always memcpy'd to/from the ring (record payloads
// are only 4-byte aligned). Cookies are initiator-local ids; `dst`/`addr`/
// `buf` fields are (segment id, offset) wire addresses (gex/segment.hpp)
// encoded by the sender and resolved against the *receiver's own* mapping
// at decode — no record byte depends on the peer's virtual-address layout,
// which is what lets the socket transport carry these records between
// unrelated mappings. Every header carries
// `nacks` and `nracks`: the counts of piggybacked request-ack cookies and
// staged-reply consumption-ack cookies (u64 each) laid out immediately
// after the header — acks first, then racks — ahead of any descriptors or
// payload, so reverse-direction traffic retires the sender's completions
// and unpins its staged reply buffers for free.
struct PutHdr {
  std::uint64_t cookie;
  std::uint64_t dst;
  std::uint32_t nacks;
  std::uint32_t nracks;
};
struct GetHdr {
  std::uint64_t cookie;
  std::uint64_t src;
  std::uint64_t bytes;
  std::uint32_t nacks;
  std::uint32_t nracks;
};
struct FragHdr {
  std::uint64_t cookie;
  std::uint32_t nfrags;
  std::uint32_t nacks;
  std::uint32_t nracks;
  std::uint32_t reserved;
};
// Pool-staged put: the payload sits in an initiator-owned bounce buffer in
// the shared heap; only this descriptor crosses the ring. The target copies
// and acks; the ack hands the buffer back to the initiator's pool. The
// staged-frag variant packs [nfrags × FragDesc][payload] into the buffer.
struct PutStagedHdr {
  std::uint64_t cookie;
  std::uint64_t dst;
  std::uint64_t buf;
  std::uint64_t bytes;
  std::uint32_t nacks;
  std::uint32_t nracks;
};
struct FragStagedHdr {
  std::uint64_t cookie;
  std::uint64_t buf;
  std::uint64_t payload_bytes;
  std::uint32_t nfrags;
  std::uint32_t nacks;
  std::uint32_t nracks;
  std::uint32_t reserved;
};
struct FragDesc {
  std::uint64_t addr;
  std::uint64_t bytes;
};
// Standalone multi-ack record: every ack (and rack) owed to one target,
// batched per poll into one ring transaction.
struct AckHdr {
  std::uint32_t nacks;
  std::uint32_t nracks;
};
struct RepHdr {
  std::uint64_t cookie;
  std::uint32_t nacks;
  std::uint32_t nracks;
};
// Pool-staged GET reply (contiguous and frag-gather variants share the
// layout; distinct handlers keep the wire self-describing): the gathered
// payload sits in a target-owned reply buffer in the shared heap; only
// this descriptor crosses the ring. The initiator scatters out of the
// buffer and owes a rack for `cookie`; the rack hands the buffer back to
// the target's reply pool.
struct RepStagedHdr {
  std::uint64_t cookie;
  std::uint64_t buf;
  std::uint64_t bytes;
  std::uint32_t nacks;
  std::uint32_t nracks;
};

template <typename H>
H read_hdr(const void* p) {
  H h;
  std::memcpy(&h, p, sizeof h);
  return h;
}

constexpr std::size_t ack_bytes(std::size_t nacks) {
  return nacks * sizeof(std::uint64_t);
}

std::byte* write_acks(std::byte* q, const std::vector<std::uint64_t>& acks) {
  if (!acks.empty()) std::memcpy(q, acks.data(), ack_bytes(acks.size()));
  return q + ack_bytes(acks.size());
}

// Both piggyback namespaces of one drained OwedAcks: total wire bytes, and
// the writer (acks first, then racks — the order every handler consumes).
template <typename OA>
std::size_t oa_bytes(const OA& oa) {
  return ack_bytes(oa.acks.size() + oa.racks.size());
}
template <typename OA>
std::byte* write_oa(std::byte* q, const OA& oa) {
  q = write_acks(q, oa.acks);
  return write_acks(q, oa.racks);
}

RmaAmProtocol& proto() {
  auto* r = self();
  assert(r && r->rma_am && "AM RMA record outside an SPMD region");
  return *r->rma_am;
}

}  // namespace

// Handlers run inside the target's AmEngine::poll: they may copy bytes and
// record work, but must not inject (see header comment). Registered in the
// gex handler registry at static initialization via am_handler<>, so every
// rank — thread or fork — agrees on the indices.
struct RmaAmHandlers {
  // Retires `n` piggybacked ack cookies and returns the cursor past them.
  static const std::byte* consume_acks(RmaAmProtocol& p, const std::byte* q,
                                       std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint64_t cookie;
      std::memcpy(&cookie, q + i * sizeof cookie, sizeof cookie);
      p.completed_.push_back(cookie);
    }
    return q + ack_bytes(n);
  }

  // Retires `n` piggybacked rack cookies from rank `src` — each unpins a
  // staged reply buffer this rank sent to src — and returns the cursor past
  // them. recycle_reply only moves a buffer between local containers (or
  // frees it), so this is handler-safe.
  static const std::byte* consume_racks(RmaAmProtocol& p, int src,
                                        const std::byte* q,
                                        std::uint32_t n) {
    if (n == 0) return q;
    auto& pr = p.peer(src);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint64_t cookie;
      std::memcpy(&cookie, q + i * sizeof cookie, sizeof cookie);
      p.recycle_reply(pr, cookie);
    }
    return q + ack_bytes(n);
  }

  static void on_put(AmContext& cx) {
    auto& p = proto();
    const auto h = read_hdr<PutHdr>(cx.data);
    const auto* q = static_cast<const std::byte*>(cx.data) + sizeof(PutHdr);
    q = consume_acks(p, q, h.nacks);
    q = consume_racks(p, cx.src, q, h.nracks);
    const std::size_t bytes =
        cx.size - sizeof(PutHdr) - ack_bytes(h.nacks) - ack_bytes(h.nracks);
    if (bytes)
      std::memcpy(reinterpret_cast<void*>(
                      static_cast<std::uintptr_t>(p.wire_dec(h.dst))),
                  q, bytes);
    p.peer(cx.src).acks_owed.push_back(h.cookie);
    ++p.stats_.puts_handled;
  }

  static void on_put_staged(AmContext& cx) {
    // h.buf names a bounce buffer in the *initiator's* heap — readable
    // here only because the transport cross-maps it. A staged record
    // arriving over a transport without that property (socket) is a
    // protocol bug: inline_cutoff should have kept the payload inline.
    assert(cx.engine->transport().shared_memory() &&
           "staged put crossed a non-shared-memory transport");
    auto& p = proto();
    const auto h = read_hdr<PutStagedHdr>(cx.data);
    const auto* q = consume_acks(
        p, static_cast<const std::byte*>(cx.data) + sizeof(PutStagedHdr),
        h.nacks);
    consume_racks(p, cx.src, q, h.nracks);
    std::memcpy(
        reinterpret_cast<void*>(
            static_cast<std::uintptr_t>(p.wire_dec(h.dst))),
        reinterpret_cast<const void*>(
            static_cast<std::uintptr_t>(p.wire_dec(h.buf))),
        static_cast<std::size_t>(h.bytes));
    p.peer(cx.src).acks_owed.push_back(h.cookie);
    ++p.stats_.puts_handled;
  }

  static void on_put_frag_staged(AmContext& cx) {
    assert(cx.engine->transport().shared_memory() &&
           "staged frag-put crossed a non-shared-memory transport");
    auto& p = proto();
    const auto h = read_hdr<FragStagedHdr>(cx.data);
    const auto* q = consume_acks(
        p, static_cast<const std::byte*>(cx.data) + sizeof(FragStagedHdr),
        h.nacks);
    consume_racks(p, cx.src, q, h.nracks);
    const auto* descs = reinterpret_cast<const std::byte*>(
        static_cast<std::uintptr_t>(p.wire_dec(h.buf)));
    const auto* payload = descs + h.nfrags * sizeof(FragDesc);
    std::size_t off = 0;
    for (std::uint32_t i = 0; i < h.nfrags; ++i) {
      const auto d = read_hdr<FragDesc>(descs + i * sizeof(FragDesc));
      if (d.bytes)
        std::memcpy(reinterpret_cast<void*>(
                        static_cast<std::uintptr_t>(p.wire_dec(d.addr))),
                    payload + off, static_cast<std::size_t>(d.bytes));
      off += static_cast<std::size_t>(d.bytes);
    }
    assert(off == static_cast<std::size_t>(h.payload_bytes));
    p.peer(cx.src).acks_owed.push_back(h.cookie);
    ++p.stats_.puts_handled;
  }

  static void on_put_frag(AmContext& cx) {
    auto& p = proto();
    const auto h = read_hdr<FragHdr>(cx.data);
    const auto* descs =
        consume_acks(p, static_cast<const std::byte*>(cx.data) +
                            sizeof(FragHdr),
                     h.nacks);
    descs = consume_racks(p, cx.src, descs, h.nracks);
    const auto* payload = descs + h.nfrags * sizeof(FragDesc);
    std::size_t off = 0;
    for (std::uint32_t i = 0; i < h.nfrags; ++i) {
      const auto d = read_hdr<FragDesc>(descs + i * sizeof(FragDesc));
      if (d.bytes)
        std::memcpy(reinterpret_cast<void*>(
                        static_cast<std::uintptr_t>(p.wire_dec(d.addr))),
                    payload + off, static_cast<std::size_t>(d.bytes));
      off += static_cast<std::size_t>(d.bytes);
    }
    assert(sizeof(FragHdr) + ack_bytes(h.nacks) + ack_bytes(h.nracks) +
               h.nfrags * sizeof(FragDesc) + off ==
           cx.size);
    p.peer(cx.src).acks_owed.push_back(h.cookie);
    ++p.stats_.puts_handled;
  }

  static void on_get(AmContext& cx) {
    auto& p = proto();
    const auto h = read_hdr<GetHdr>(cx.data);
    const auto* q = consume_acks(
        p, static_cast<const std::byte*>(cx.data) + sizeof(GetHdr), h.nacks);
    consume_racks(p, cx.src, q, h.nracks);
    // Resolve at decode; the gather list in replies_ holds this rank's own
    // raw addresses from here on.
    p.replies_.push_back(
        {cx.src, h.cookie,
         {RmaAmProtocol::Frag{p.wire_dec(h.src), h.bytes}}, false});
    ++p.stats_.gets_handled;
  }

  static void on_get_frag(AmContext& cx) {
    auto& p = proto();
    const auto h = read_hdr<FragHdr>(cx.data);
    const auto* descs =
        consume_acks(p, static_cast<const std::byte*>(cx.data) +
                            sizeof(FragHdr),
                     h.nacks);
    descs = consume_racks(p, cx.src, descs, h.nracks);
    std::vector<RmaAmProtocol::Frag> gather;
    gather.reserve(h.nfrags);
    for (std::uint32_t i = 0; i < h.nfrags; ++i) {
      const auto d = read_hdr<FragDesc>(descs + i * sizeof(FragDesc));
      gather.push_back({p.wire_dec(d.addr), d.bytes});
    }
    p.replies_.push_back({cx.src, h.cookie, std::move(gather), true});
    ++p.stats_.gets_handled;
  }

  static void on_ack(AmContext& cx) {
    auto& p = proto();
    const auto h = read_hdr<AckHdr>(cx.data);
    const auto* q = consume_acks(
        p, static_cast<const std::byte*>(cx.data) + sizeof(AckHdr), h.nacks);
    consume_racks(p, cx.src, q, h.nracks);
    assert(sizeof(AckHdr) + ack_bytes(h.nacks) + ack_bytes(h.nracks) ==
           cx.size);
  }

  static void on_get_reply(AmContext& cx) {
    auto& p = proto();
    const auto h = read_hdr<RepHdr>(cx.data);
    const auto* payload = consume_acks(
        p, static_cast<const std::byte*>(cx.data) + sizeof(RepHdr), h.nacks);
    payload = consume_racks(p, cx.src, payload, h.nracks);
    auto it = p.pending_.find(h.cookie);
    if (it == p.pending_.end()) {
      // The request was cancelled (fail_all_peers) before this reply
      // arrived; the landing buffers may be gone, so drop the payload.
      ++p.stats_.stale_completions;
      return;
    }
    // Scatter while the payload is alive (eager payloads die with the
    // handler); completion itself is deferred to poll().
    std::size_t off = 0;
    for (const auto& f : it->second.scatter) {
      if (f.bytes) std::memcpy(f.ptr, payload + off, f.bytes);
      off += f.bytes;
    }
    assert(sizeof(RepHdr) + ack_bytes(h.nacks) + ack_bytes(h.nracks) + off ==
           cx.size);
    p.completed_.push_back(h.cookie);
  }

  // Pool-staged reply: scatter straight out of the target's reply buffer
  // (cross-mapped shared heap — the same addressing contract as every
  // staged put), then owe a rack so the target can recycle it. The rack is
  // owed even when the request was cancelled: the buffer must go back
  // regardless of what happens to the payload.
  static void on_reply_staged(AmContext& cx, const RepStagedHdr& h) {
    assert(cx.engine->transport().shared_memory() &&
           "staged reply crossed a non-shared-memory transport");
    auto& p = proto();
    const auto* q = consume_acks(
        p, static_cast<const std::byte*>(cx.data) + sizeof(RepStagedHdr),
        h.nacks);
    consume_racks(p, cx.src, q, h.nracks);
    p.peer(cx.src).racks_owed.push_back(h.cookie);
    auto it = p.pending_.find(h.cookie);
    if (it == p.pending_.end()) {
      ++p.stats_.stale_completions;
      return;
    }
    const auto* payload = reinterpret_cast<const std::byte*>(
        static_cast<std::uintptr_t>(p.wire_dec(h.buf)));
    std::size_t off = 0;
    for (const auto& f : it->second.scatter) {
      if (f.bytes) std::memcpy(f.ptr, payload + off, f.bytes);
      off += f.bytes;
    }
    assert(off == static_cast<std::size_t>(h.bytes));
    p.completed_.push_back(h.cookie);
    ++p.stats_.staged_replies_handled;
  }

  static void on_get_reply_staged(AmContext& cx) {
    on_reply_staged(cx, read_hdr<RepStagedHdr>(cx.data));
  }

  static void on_get_frag_reply_staged(AmContext& cx) {
    on_reply_staged(cx, read_hdr<RepStagedHdr>(cx.data));
  }
};

WireAddr RmaAmProtocol::wire_enc(std::uint64_t addr) const {
  return am_->arena().segmap().encode(
      reinterpret_cast<const void*>(static_cast<std::uintptr_t>(addr)));
}

std::uint64_t RmaAmProtocol::wire_dec(WireAddr wa) const {
  return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(
      am_->arena().segmap().decode(wa)));
}

RmaAmProtocol::RmaAmProtocol(AmEngine* am, std::uint32_t window)
    : am_(am), window_(window ? window : 1) {
  // One peer per rank up front: peer() becomes an index.
  const int n = am_->arena().config().ranks;
  peers_.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) peers_.emplace_back(t);
}

std::uint64_t RmaAmProtocol::new_pending(int target, Done done,
                                         std::vector<LocalFrag> scatter) {
  const std::uint64_t cookie = next_cookie_++;
  pending_.emplace(cookie,
                   Pending{target, std::move(done), std::move(scatter), {}});
  return cookie;
}

bool RmaAmProtocol::claim_outstanding(Peer& p) {
  if (p.outstanding >= window_) return false;
  ++p.outstanding;
  if (p.outstanding > stats_.max_outstanding)
    stats_.max_outstanding = p.outstanding;
  return true;
}

RmaAmProtocol::StageBuf RmaAmProtocol::acquire_stage(Peer& p,
                                                     std::size_t bytes) {
  // Smallest pooled buffer that fits; the pool holds at most `window`
  // entries (one per possible in-flight request), so the scan is short.
  std::size_t best = p.stage_pool.size();
  for (std::size_t i = 0; i < p.stage_pool.size(); ++i) {
    if (p.stage_pool[i].cap < bytes) continue;
    if (best == p.stage_pool.size() ||
        p.stage_pool[i].cap < p.stage_pool[best].cap)
      best = i;
  }
  if (best != p.stage_pool.size()) {
    StageBuf b = p.stage_pool[best];
    p.stage_pool[best] = p.stage_pool.back();
    p.stage_pool.pop_back();
    return b;
  }
  // Pool miss: carve a fresh block, rounded up so a stream of slightly
  // varying sizes converges on one reusable size class. On an exhausted
  // heap spin with poll, like the AmEngine's rendezvous path — but bail
  // out (null buffer; the caller cancels) once the error flag is up: the
  // blocks we are waiting for may be bounce buffers pinned by a dead
  // peer's never-coming acks.
  std::size_t cap = 4096;
  while (cap < bytes) cap <<= 1;
  ++stats_.stage_allocs;
  auto& heap = am_->arena().heap();
  for (;;) {
    if (void* buf = heap.allocate(cap)) return StageBuf{buf, cap};
    if (am_->arena().control().error_flag.value.load(
            std::memory_order_acquire) != 0)
      return StageBuf{};
    if (am_->poll() + poll() == 0) std::this_thread::yield();
    arch::cpu_relax();
  }
}

void RmaAmProtocol::recycle_stage(Peer& p, StageBuf buf) {
  if (!buf.p) return;
  if (p.stage_pool.size() < window_) {
    p.stage_pool.push_back(buf);
    return;
  }
  am_->arena().heap().deallocate(buf.p);
}

RmaAmProtocol::StageBuf RmaAmProtocol::acquire_reply_stage(
    Peer& p, std::size_t bytes) {
  // At most `window` staged replies awaiting consumption per peer: the
  // initiator's own window already bounds how many replies can be awaited,
  // this bound only keeps a failing peer from pinning unbounded heap. Past
  // it the caller falls back to the rendezvous REPLY path — never block
  // here, a reply send runs inside the target's poll loop.
  if (p.reply_out.size() >= window_) return StageBuf{};
  std::size_t best = p.reply_pool.size();
  for (std::size_t i = 0; i < p.reply_pool.size(); ++i) {
    if (p.reply_pool[i].cap < bytes) continue;
    if (best == p.reply_pool.size() ||
        p.reply_pool[i].cap < p.reply_pool[best].cap)
      best = i;
  }
  if (best != p.reply_pool.size()) {
    StageBuf b = p.reply_pool[best];
    p.reply_pool[best] = p.reply_pool.back();
    p.reply_pool.pop_back();
    ++stats_.reply_pool_hits;
    return b;
  }
  // Pool miss: one allocation attempt, same size-class rounding as the put
  // pool. A momentarily exhausted heap is a fallback, not a stall.
  std::size_t cap = 4096;
  while (cap < bytes) cap <<= 1;
  if (void* buf = am_->arena().heap().allocate(cap)) {
    ++stats_.reply_stage_allocs;
    return StageBuf{buf, cap};
  }
  return StageBuf{};
}

void RmaAmProtocol::recycle_reply(Peer& p, std::uint64_t cookie) {
  auto it = p.reply_out.find(cookie);
  if (it == p.reply_out.end()) return;  // freed by fail_all_peers already
  StageBuf b = it->second;
  p.reply_out.erase(it);
  // Pool retention matches the stage bound.
  if (p.reply_pool.size() < window_) {
    p.reply_pool.push_back(b);
    return;
  }
  am_->arena().heap().deallocate(b.p);
}

RmaAmProtocol::OwedAcks RmaAmProtocol::take_acks(int target) {
  // Snapshot-and-clear before any send: the send may spin on a full ring,
  // which polls our own inbox, whose handlers append fresh owed acks —
  // those wait for the next record.
  Peer& p = peer(target);
  OwedAcks oa{std::move(p.acks_owed), std::move(p.racks_owed)};
  p.acks_owed.clear();
  p.racks_owed.clear();
  return oa;
}

void RmaAmProtocol::enqueue(Peer& p, QueuedReq q) {
  ++stats_.requests_queued;
  // Bounded queue: past the slack, the injecting call makes progress until
  // a slot frees. Our own inbox keeps draining (acks retire credits, which
  // sends queued requests), so mutual floods advance in lockstep instead
  // of deadlocking. A set error flag means the acks may never come — park
  // the request regardless; teardown's fail_all_peers() reclaims it.
  const std::size_t cap = window_ + kQueueSlack;
  while (p.sendq.size() >= cap &&
         am_->arena().control().error_flag.value.load(
             std::memory_order_acquire) == 0) {
    ++stats_.send_stalls;
    if (am_->poll() + poll() == 0) std::this_thread::yield();
    arch::cpu_relax();
  }
  p.sendq.push_back(std::move(q));
  stats_.queued_peak =
      std::max<std::uint64_t>(stats_.queued_peak, p.sendq.size());
}

// A staged send found the heap exhausted while the job is failing: the
// request can never be serviced. Cancel it the way fail_all_peers would —
// drop the pending entry (its done callback is destroyed, not fired) and
// return the credit the caller just consumed.
void RmaAmProtocol::cancel_sent(Peer& p, std::uint64_t cookie) {
  pending_.erase(cookie);
  ++stats_.cancelled;
  assert(p.outstanding > 0);
  --p.outstanding;
}

void RmaAmProtocol::send_put(int target, std::uint64_t cookie,
                             const Frag& dst, const void* src) {
  const std::size_t bytes = static_cast<std::size_t>(dst.bytes);
  // The eager-fit decision ignores the (yet untaken) piggyback list: if
  // the acks push an inline record past eager_max, AmEngine::prepare
  // falls back to its rendezvous staging transparently.
  if (sizeof(PutHdr) + bytes <= inline_cutoff(am_)) {
    // Small put: payload inline in the ring record.
    auto oa = take_acks(target);
    auto sb = am_->prepare(target, am_handler<&RmaAmHandlers::on_put>(),
                           sizeof(PutHdr) + oa_bytes(oa) + bytes);
    auto* q = static_cast<std::byte*>(sb.data);
    const PutHdr h{cookie, wire_enc(dst.addr),
                   static_cast<std::uint32_t>(oa.acks.size()),
                   static_cast<std::uint32_t>(oa.racks.size())};
    std::memcpy(q, &h, sizeof h);
    q = write_oa(q + sizeof h, oa);
    if (bytes) std::memcpy(q, src, bytes);
    am_->commit(sb);
    ++stats_.puts_sent;
    stats_.acks_piggybacked += oa.acks.size();
    stats_.reply_acks_piggybacked += oa.racks.size();
    return;
  }
  // Large put: payload through a pooled bounce buffer, descriptor inline.
  Peer& p = peer(target);
  StageBuf stage = acquire_stage(p, bytes);
  if (!stage.p) {
    // Exhausted heap: only while the job is failing.
    cancel_sent(p, cookie);
    return;
  }
  auto oa = take_acks(target);
  std::memcpy(stage.p, src, bytes);
  if (auto it = pending_.find(cookie); it != pending_.end())
    it->second.stage = stage;
  auto sb = am_->prepare(target,
                         am_handler<&RmaAmHandlers::on_put_staged>(),
                         sizeof(PutStagedHdr) + oa_bytes(oa));
  auto* q = static_cast<std::byte*>(sb.data);
  const PutStagedHdr h{cookie, wire_enc(dst.addr),
                       am_->arena().segmap().encode(stage.p),
                       dst.bytes,
                       static_cast<std::uint32_t>(oa.acks.size()),
                       static_cast<std::uint32_t>(oa.racks.size())};
  std::memcpy(q, &h, sizeof h);
  write_oa(q + sizeof h, oa);
  am_->commit(sb);
  ++stats_.puts_sent;
  ++stats_.puts_staged;
  stats_.acks_piggybacked += oa.acks.size();
  stats_.reply_acks_piggybacked += oa.racks.size();
}

void RmaAmProtocol::send_get(int target, std::uint64_t cookie,
                             const Frag& src) {
  auto oa = take_acks(target);
  auto sb = am_->prepare(target, am_handler<&RmaAmHandlers::on_get>(),
                         sizeof(GetHdr) + oa_bytes(oa));
  auto* q = static_cast<std::byte*>(sb.data);
  const GetHdr h{cookie, wire_enc(src.addr), src.bytes,
                 static_cast<std::uint32_t>(oa.acks.size()),
                 static_cast<std::uint32_t>(oa.racks.size())};
  std::memcpy(q, &h, sizeof h);
  write_oa(q + sizeof h, oa);
  am_->commit(sb);
  ++stats_.gets_sent;
  stats_.acks_piggybacked += oa.acks.size();
  stats_.reply_acks_piggybacked += oa.racks.size();
}

void RmaAmProtocol::send_put_frag(int target, std::uint64_t cookie,
                                  const std::vector<Frag>& dsts,
                                  const LocalFrag* srcs, std::size_t nsrcs,
                                  std::size_t total) {
  const std::size_t desc_bytes = dsts.size() * sizeof(FragDesc);
  if (sizeof(FragHdr) + desc_bytes + total <= inline_cutoff(am_)) {
    auto oa = take_acks(target);
    auto sb = am_->prepare(
        target, am_handler<&RmaAmHandlers::on_put_frag>(),
        sizeof(FragHdr) + oa_bytes(oa) + desc_bytes + total);
    auto* q = static_cast<std::byte*>(sb.data);
    const FragHdr h{cookie, static_cast<std::uint32_t>(dsts.size()),
                    static_cast<std::uint32_t>(oa.acks.size()),
                    static_cast<std::uint32_t>(oa.racks.size()), 0};
    std::memcpy(q, &h, sizeof h);
    q = write_oa(q + sizeof h, oa);
    for (const auto& d : dsts) {
      const FragDesc fd{wire_enc(d.addr), d.bytes};
      std::memcpy(q, &fd, sizeof fd);
      q += sizeof fd;
    }
    // Gather the local fragments straight into the wire buffer.
    for (std::size_t i = 0; i < nsrcs; ++i) {
      if (srcs[i].bytes) std::memcpy(q, srcs[i].ptr, srcs[i].bytes);
      q += srcs[i].bytes;
    }
    am_->commit(sb);
    ++stats_.frag_puts_sent;
    stats_.acks_piggybacked += oa.acks.size();
    stats_.reply_acks_piggybacked += oa.racks.size();
    return;
  }
  // Large scatter-put: descriptors and gathered payload go through a
  // pooled bounce buffer; the ring record is just the staged descriptor.
  Peer& p = peer(target);
  StageBuf stage = acquire_stage(p, desc_bytes + total);
  if (!stage.p) {
    cancel_sent(p, cookie);
    return;
  }
  auto oa = take_acks(target);
  auto* q = static_cast<std::byte*>(stage.p);
  // The descriptors inside the staged buffer are wire data too (the target
  // reads them out of the bounce buffer), so they carry wire addresses.
  for (const auto& d : dsts) {
    const FragDesc fd{wire_enc(d.addr), d.bytes};
    std::memcpy(q, &fd, sizeof fd);
    q += sizeof fd;
  }
  for (std::size_t i = 0; i < nsrcs; ++i) {
    if (srcs[i].bytes) std::memcpy(q, srcs[i].ptr, srcs[i].bytes);
    q += srcs[i].bytes;
  }
  if (auto it = pending_.find(cookie); it != pending_.end())
    it->second.stage = stage;
  auto sb = am_->prepare(target,
                         am_handler<&RmaAmHandlers::on_put_frag_staged>(),
                         sizeof(FragStagedHdr) + oa_bytes(oa));
  auto* w = static_cast<std::byte*>(sb.data);
  const FragStagedHdr h{cookie, am_->arena().segmap().encode(stage.p),
                        total, static_cast<std::uint32_t>(dsts.size()),
                        static_cast<std::uint32_t>(oa.acks.size()),
                        static_cast<std::uint32_t>(oa.racks.size()), 0};
  std::memcpy(w, &h, sizeof h);
  write_oa(w + sizeof h, oa);
  am_->commit(sb);
  ++stats_.frag_puts_sent;
  ++stats_.puts_staged;
  stats_.acks_piggybacked += oa.acks.size();
  stats_.reply_acks_piggybacked += oa.racks.size();
}

void RmaAmProtocol::send_get_frag(int target, std::uint64_t cookie,
                                  const std::vector<Frag>& srcs) {
  auto oa = take_acks(target);
  auto sb = am_->prepare(
      target, am_handler<&RmaAmHandlers::on_get_frag>(),
      sizeof(FragHdr) + oa_bytes(oa) + srcs.size() * sizeof(FragDesc));
  auto* q = static_cast<std::byte*>(sb.data);
  const FragHdr h{cookie, static_cast<std::uint32_t>(srcs.size()),
                  static_cast<std::uint32_t>(oa.acks.size()),
                  static_cast<std::uint32_t>(oa.racks.size()), 0};
  std::memcpy(q, &h, sizeof h);
  q = write_oa(q + sizeof h, oa);
  for (const auto& s : srcs) {
    const FragDesc fd{wire_enc(s.addr), s.bytes};
    std::memcpy(q, &fd, sizeof fd);
    q += sizeof fd;
  }
  am_->commit(sb);
  ++stats_.frag_gets_sent;
  stats_.acks_piggybacked += oa.acks.size();
  stats_.reply_acks_piggybacked += oa.racks.size();
}

void RmaAmProtocol::put(int target, void* dst, const void* src,
                        std::size_t bytes, Done done) {
  const std::uint64_t cookie = new_pending(target, std::move(done), {});
  Peer& p = peer(target);
  const Frag d{reinterpret_cast<std::uintptr_t>(dst), bytes};
  if (try_claim_credit(p)) {
    send_put(target, cookie, d, src);
    return;
  }
  // Window full: park the request with an owned payload copy — the caller
  // may reuse src the moment we return, exactly as on the immediate path.
  // (0-byte puts may legally pass a null src; don't form iterators from it.)
  QueuedReq q{QueuedReq::kPut, cookie, {d}, {}};
  if (bytes)
    q.payload.assign(static_cast<const std::byte*>(src),
                     static_cast<const std::byte*>(src) + bytes);
  enqueue(p, std::move(q));
}

void RmaAmProtocol::get(int target, void* dst, const void* src,
                        std::size_t bytes, Done done) {
  const std::uint64_t cookie =
      new_pending(target, std::move(done), {LocalFrag{dst, bytes}});
  Peer& p = peer(target);
  const Frag s{reinterpret_cast<std::uintptr_t>(src), bytes};
  if (try_claim_credit(p)) {
    send_get(target, cookie, s);
    return;
  }
  enqueue(p, QueuedReq{QueuedReq::kGet, cookie, {s}, {}});
}

void RmaAmProtocol::put_fragments(int target, const std::vector<Frag>& dsts,
                                  const std::vector<LocalFrag>& srcs,
                                  Done done) {
  std::size_t total = 0;
  for (const auto& s : srcs) total += s.bytes;
  const std::uint64_t cookie = new_pending(target, std::move(done), {});
  Peer& p = peer(target);
  if (try_claim_credit(p)) {
    send_put_frag(target, cookie, dsts, srcs.data(), srcs.size(), total);
    return;
  }
  QueuedReq q{QueuedReq::kPutFrag, cookie, dsts, {}};
  q.payload.reserve(total);
  for (const auto& s : srcs) {
    const auto* b = static_cast<const std::byte*>(s.ptr);
    q.payload.insert(q.payload.end(), b, b + s.bytes);
  }
  enqueue(p, std::move(q));
}

void RmaAmProtocol::get_fragments(int target, const std::vector<Frag>& srcs,
                                  std::vector<LocalFrag> dsts, Done done) {
  const std::uint64_t cookie =
      new_pending(target, std::move(done), std::move(dsts));
  Peer& p = peer(target);
  if (try_claim_credit(p)) {
    send_get_frag(target, cookie, srcs);
    return;
  }
  enqueue(p, QueuedReq{QueuedReq::kGetFrag, cookie, srcs, {}});
}

int RmaAmProtocol::flush_sendq(Peer& p) {
  // Pop before sending: a send may spin on a full ring and poll, which
  // can re-enter this drain.
  int work = 0;
  while (!p.sendq.empty() && claim_outstanding(p)) {
    QueuedReq q = std::move(p.sendq.front());
    p.sendq.pop_front();
    switch (q.kind) {
      case QueuedReq::kPut:
        send_put(p.target, q.cookie, q.remote[0], q.payload.data());
        break;
      case QueuedReq::kGet:
        send_get(p.target, q.cookie, q.remote[0]);
        break;
      case QueuedReq::kPutFrag: {
        const LocalFrag whole{q.payload.data(), q.payload.size()};
        send_put_frag(p.target, q.cookie, q.remote, &whole, 1,
                      q.payload.size());
        break;
      }
      case QueuedReq::kGetFrag:
        send_get_frag(p.target, q.cookie, q.remote);
        break;
    }
    ++work;
  }
  return work;
}

int RmaAmProtocol::poll_requests() {
  int work = 0;
  // Swap-to-local idiom throughout: every send below may spin on a full
  // ring, which polls our own inbox, whose handlers append to these very
  // queues. Entries arriving mid-drain are picked up next poll.
  //
  // Completions run first so their retired credits release queued requests
  // within the same poll.
  if (!completed_.empty()) {
    auto comp = std::move(completed_);
    completed_.clear();
    for (const std::uint64_t cookie : comp) {
      auto node = pending_.extract(cookie);
      if (node.empty()) {
        // Cancelled by fail_all_peers before the ack arrived.
        ++stats_.stale_completions;
        continue;
      }
      Peer& p = peer(node.mapped().target);
      assert(p.outstanding > 0 && "ack for a request never sent");
      --p.outstanding;
      // The target is done with the bounce buffer once its ack arrived.
      recycle_stage(p, node.mapped().stage);
      // Extracted from the map before firing: the callback may issue new
      // protocol ops.
      Done done = std::move(node.mapped().done);
      if (done) done();
      ++work;
    }
  }
  // Freed credits release window-blocked requests.
  for (std::size_t i = 0; i < peers_.size(); ++i)
    work += flush_sendq(peers_[i]);
  if (!replies_.empty()) {
    auto reps = std::move(replies_);
    replies_.clear();
    for (const auto& r : reps) {
      std::size_t total = 0;
      for (const auto& f : r.gather) total += f.bytes;
      // A reply too large to ride inline goes through the pooled reply
      // stage: gather into a recycled shared-heap buffer, ship only the
      // descriptor, get the buffer back on the initiator's rack. Bound
      // reached or heap empty → the old rendezvous REPLY below (staging
      // is an optimization, never a requirement).
      if (sizeof(RepHdr) + total > inline_cutoff(am_)) {
        Peer& p = peer(r.target);
        StageBuf stage = acquire_reply_stage(p, total);
        if (stage.p) {
          auto* g = static_cast<std::byte*>(stage.p);
          for (const auto& f : r.gather) {
            if (f.bytes)
              std::memcpy(g,
                          reinterpret_cast<const void*>(
                              static_cast<std::uintptr_t>(f.addr)),
                          static_cast<std::size_t>(f.bytes));
            g += f.bytes;
          }
          p.reply_out.emplace(r.cookie, stage);
          auto oa = take_acks(r.target);
          auto sb = am_->prepare(
              r.target,
              r.frag
                  ? am_handler<&RmaAmHandlers::on_get_frag_reply_staged>()
                  : am_handler<&RmaAmHandlers::on_get_reply_staged>(),
              sizeof(RepStagedHdr) + oa_bytes(oa));
          auto* q = static_cast<std::byte*>(sb.data);
          const RepStagedHdr h{
              r.cookie, am_->arena().segmap().encode(stage.p),
              static_cast<std::uint64_t>(total),
              static_cast<std::uint32_t>(oa.acks.size()),
              static_cast<std::uint32_t>(oa.racks.size())};
          std::memcpy(q, &h, sizeof h);
          write_oa(q + sizeof h, oa);
          am_->commit(sb);
          ++stats_.replies_sent;
          ++stats_.replies_staged;
          stats_.acks_piggybacked += oa.acks.size();
          stats_.reply_acks_piggybacked += oa.racks.size();
          ++work;
          continue;
        }
        ++stats_.reply_fallbacks;
      }
      auto oa = take_acks(r.target);
      auto sb = am_->prepare(
          r.target, am_handler<&RmaAmHandlers::on_get_reply>(),
          sizeof(RepHdr) + oa_bytes(oa) + total);
      auto* q = static_cast<std::byte*>(sb.data);
      const RepHdr h{r.cookie, static_cast<std::uint32_t>(oa.acks.size()),
                     static_cast<std::uint32_t>(oa.racks.size())};
      std::memcpy(q, &h, sizeof h);
      q = write_oa(q + sizeof h, oa);
      // Gather this rank's source runs at reply time — the get reads the
      // data as it exists when the target serves it, exactly like a
      // direct-wire rget reads memory at copy time. (Addresses here are
      // local: on_get/on_get_frag resolved them at decode.)
      for (const auto& f : r.gather) {
        if (f.bytes)
          std::memcpy(q,
                      reinterpret_cast<const void*>(
                          static_cast<std::uintptr_t>(f.addr)),
                      static_cast<std::size_t>(f.bytes));
        q += f.bytes;
      }
      am_->commit(sb);
      ++stats_.replies_sent;
      stats_.acks_piggybacked += oa.acks.size();
      stats_.reply_acks_piggybacked += oa.racks.size();
      ++work;
    }
  }
  return work;
}

int RmaAmProtocol::flush_acks() {
  int work = 0;
  // Acks and racks no request or reply carried: one combined multi-ack
  // record per indebted target per flush.
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    Peer& pr = peers_[i];
    if (pr.acks_owed.empty() && pr.racks_owed.empty()) continue;
    const int target = pr.target;
    auto oa = take_acks(target);
    auto sb = am_->prepare(target, am_handler<&RmaAmHandlers::on_ack>(),
                           sizeof(AckHdr) + oa_bytes(oa));
    auto* q = static_cast<std::byte*>(sb.data);
    const AckHdr h{static_cast<std::uint32_t>(oa.acks.size()),
                   static_cast<std::uint32_t>(oa.racks.size())};
    std::memcpy(q, &h, sizeof h);
    write_oa(q + sizeof h, oa);
    am_->commit(sb);
    ++stats_.acks_sent;
    stats_.ack_cookies_sent += oa.acks.size();
    stats_.reply_ack_cookies_sent += oa.racks.size();
    ++work;
  }
  return work;
}

bool RmaAmProtocol::idle() const {
  if (!pending_.empty() || !replies_.empty() || !completed_.empty())
    return false;
  for (const Peer& p : peers_) {
    if (!p.sendq.empty() || !p.acks_owed.empty() || !p.racks_owed.empty() ||
        !p.reply_out.empty())
      return false;
  }
  return true;
}

void RmaAmProtocol::fail_all_peers() {
  // Teardown path. Every request (in flight or queued) has a pending_
  // entry; dropping the map
  // cancels them all — done callbacks are destroyed, never fired, and the
  // arena error flag is the failure signal user code observes. Bounce
  // buffers go back to the shared heap (a dead target may still copy from
  // one, but it reads stale bytes at worst — it can no longer complete
  // anything).
  auto& heap = am_->arena().heap();
  stats_.cancelled += pending_.size();
  for (auto& [cookie, pd] : pending_)
    if (pd.stage.p) heap.deallocate(pd.stage.p);
  pending_.clear();
  completed_.clear();
  replies_.clear();
  for (Peer& p : peers_) {
    p.sendq.clear();
    p.acks_owed.clear();
    p.racks_owed.clear();
    p.outstanding = 0;
    for (auto& b : p.stage_pool) heap.deallocate(b.p);
    p.stage_pool.clear();
    // The reply side mirrors the put side: pooled buffers go back to the
    // heap, and staged replies whose racks will never arrive are unpinned
    // and freed — a dead initiator may still scatter from one, but it
    // reads stale bytes at worst and can no longer complete anything.
    for (auto& b : p.reply_pool) heap.deallocate(b.p);
    p.reply_pool.clear();
    for (auto& [cookie, b] : p.reply_out) heap.deallocate(b.p);
    p.reply_out.clear();
  }
}

XferEngine::WireOps RmaAmProtocol::wire_ops() {
  XferEngine::WireOps ops;
  ops.put_chunk = [this](int target, void* dst, const void* src,
                         std::size_t bytes, XferEngine::Callback done) {
    put(target, dst, src, bytes, std::move(done));
  };
  ops.get_chunk = [this](int target, void* dst, const void* src,
                         std::size_t bytes, XferEngine::Callback done) {
    get(target, dst, src, bytes, std::move(done));
  };
  // Back-pressure: the engine holds chunks (zero-cost — the source buffer
  // is pinned until on_source anyway) while the window to this target is
  // full, instead of piling payload copies into the sender-side queue.
  ops.ready = [this](int target) { return can_accept(target); };
  // Budget metering: how many chunks this target can take right now —
  // the window minus in-flight requests, zero while anything is parked in
  // the sender-side queue. The engine's poll deals its chunk budget
  // against this, so a full window diverts budget to other targets
  // within the same poll instead of consuming it on a closed channel.
  ops.credits = [this](int target) -> std::uint32_t {
    if (target < 0 || static_cast<std::size_t>(target) >= peers_.size())
      return window_;
    const Peer& p = peers_[static_cast<std::size_t>(target)];
    if (!p.sendq.empty()) return 0;
    return p.outstanding < window_ ? window_ - p.outstanding : 0;
  };
  return ops;
}

}  // namespace gex
