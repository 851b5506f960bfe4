// upcxx::progress_thread — a dedicated communication thread per rank.
//
// The paper (§III) is explicit that the runtime spawns no hidden threads;
// the user balances computation against attentiveness. The classic
// resolution is to dedicate one thread to communication by migrating the
// rank's *master persona* to it, while the primordial thread computes and
// hands communication requests over as LPCs. bench/abl_overlap.cpp and
// examples/progress_thread.cpp used to spell that pattern out by hand;
// this helper packages it:
//
//   upcxx::progress_thread pt;                     // master migrates
//   auto fut = pt.lpc([=] { return upcxx::rput(src, dst, n); });
//   heavy_compute();                               // overlaps the drain
//   fut.wait();
//   pt.stop();                                     // master returns here
//
// The progress loop spins hard only while the data-motion engine has
// chunks to move (XferEngine::copies_pending()) or the AM RMA protocol has
// outstanding requests; otherwise it yields, so an oversubscribed host
// keeps feeding the compute thread while the virtual wire clock — which
// advances on wall time, not CPU — runs out.
//
// The constructing thread must hold the master persona (the default state
// inside upcxx::run) and must be the one calling stop(). Between
// construction and stop() it must not initiate communication directly —
// route everything through lpc() or an upcxx::injection_scope
// (upcxx/inject.hpp).
//
// This is the one dedicated-progress helper, and it adds no engine
// sharing: the progress thread becomes the master-persona holder, so it
// alone polls the wire, drains the injection queues, issues XferEngine
// chunks and runs every engine callback. Every engine keeps a single
// owner at any moment; the persona hand-off is what moves that owner.
#pragma once

#include <atomic>
#include <thread>
#include <utility>

#include "gex/rma_am.hpp"
#include "gex/xfer.hpp"
#include "upcxx/persona.hpp"
#include "upcxx/progress.hpp"

namespace upcxx {

class progress_thread {
 public:
  progress_thread() : st_(&detail::persona()) {
    liberate_master_persona();
    thread_ = std::thread([this] {
      persona_scope scope(st_->master);
      while (!stop_.load(std::memory_order_acquire)) {
        progress();
        if (!busy()) std::this_thread::yield();
      }
      // Final drain so late acks and teardown traffic don't linger.
      for (int i = 0; i < 64; ++i) progress();
    });
  }

  ~progress_thread() {
    if (thread_.joinable()) stop();
  }

  progress_thread(const progress_thread&) = delete;
  progress_thread& operator=(const progress_thread&) = delete;

  // The migrated master persona — the address for manual lpc_ff etc.
  persona& master() { return st_->master; }

  // Runs fn on the progress thread (which holds the master persona, hence
  // the right to initiate communication); the returned future is fulfilled
  // back on the calling persona. A future-returning fn is unwrapped on the
  // progress thread first, so `pt.lpc([=]{ return rput(...); }).wait()`
  // waits for the transfer itself.
  template <typename Fn>
  auto lpc(Fn&& fn) {
    return st_->master.lpc(std::forward<Fn>(fn));
  }

  // Joins the communication thread and re-acquires the master persona on
  // the calling thread, which must be the constructing one. The master goes
  // back on top of this thread's persona stack exactly as init_persona put
  // it there, so fini_persona's drop_master pops it at teardown.
  void stop() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
    detail::adopt_master(st_->master, st_);
    detail::bind_rank_context(st_);
  }

 private:
  // Anything in flight that wants a hot progress loop rather than a yield?
  static bool busy() {
    auto* r = gex::self();
    if (r->xfer && r->xfer->copies_pending()) return true;
    if (r->rma_am && r->rma_am->outstanding() != 0) return true;
    return false;
  }

  detail::PersonaState* st_;  // the rank whose master persona migrates
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace upcxx
