// Lock-free multi-producer single-consumer queue (Vyukov's intrusive MPSC
// algorithm, non-intrusive here: one heap node per element).
//
// Push is wait-free for producers — one atomic exchange on the head plus a
// release store linking the previous node — so any number of injector
// threads can enqueue without ever spinning on each other. Pop is
// single-consumer: only the thread draining the queue may call
// try_pop/empty_hint.
//
// The classic subtlety: a producer that has exchanged the head but not yet
// linked its predecessor leaves the chain momentarily broken. try_pop
// detects that state (tail != head but tail->next not yet visible) and
// reports the queue empty; the element becomes visible as soon as the
// producer finishes its second store. Consumers that poll (ours all do)
// simply pick it up next round.
#pragma once

#include <atomic>
#include <cassert>
#include <utility>

namespace arch {

template <typename T>
class MpscQueue {
 public:
  MpscQueue() : head_(&stub_), tail_(&stub_) {}

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  ~MpscQueue() {
    // Single-consumer teardown: drain whatever is linked. A producer still
    // pushing during destruction is a caller bug (threads must be joined
    // or quiesced first).
    Node* n = tail_;
    while (n) {
      Node* next = n->next.load(std::memory_order_relaxed);
      if (n != &stub_) delete n;
      n = next;
    }
  }

  // Producer side: any thread, any time.
  void push(T v) {
    Node* n = new Node(std::move(v));
    push_node(n);
  }

  // Consumer side. Returns false when empty — including the transient
  // mid-push window described above.
  bool try_pop(T& out) {
    Node* tail = tail_;
    Node* next = tail->next.load(std::memory_order_acquire);
    if (tail == &stub_) {
      if (!next) return false;   // genuinely empty
      tail_ = next;              // unhook the stub
      tail = next;
      next = tail->next.load(std::memory_order_acquire);
    }
    if (next) {
      out = std::move(tail->val);
      tail_ = next;
      delete tail;
      return true;
    }
    // tail is the last linked node. If it is also the head, the queue holds
    // exactly one element: re-insert the stub behind it so the element can
    // be unhooked, then complete the pop. If head has moved past tail, a
    // producer is mid-push — treat as empty and let the poller retry.
    Node* head = head_.load(std::memory_order_acquire);
    if (tail != head) return false;
    stub_.next.store(nullptr, std::memory_order_relaxed);
    push_node(&stub_);
    next = tail->next.load(std::memory_order_acquire);
    if (next) {
      out = std::move(tail->val);
      tail_ = next;
      delete tail;
      return true;
    }
    return false;  // another producer slid in between; next poll gets both
  }

  // Cheap consumer-side emptiness probe (no element is popped, no lock is
  // taken): exact "empty" when it returns true at a quiesced queue, may
  // return false transiently while producers are mid-push. Used by the
  // progress loop to skip locked drains on the common idle path.
  bool empty_hint() const {
    return head_.load(std::memory_order_acquire) == tail_ &&
           tail_->next.load(std::memory_order_acquire) == nullptr;
  }

 private:
  struct Node {
    Node() = default;
    explicit Node(T v) : val(std::move(v)) {}
    std::atomic<Node*> next{nullptr};
    T val{};
  };

  void push_node(Node* n) {
    Node* prev = head_.exchange(n, std::memory_order_acq_rel);
    prev->next.store(n, std::memory_order_release);
  }

  std::atomic<Node*> head_;  // most recently pushed node
  Node* tail_;               // consumer's cursor (oldest node / stub)
  Node stub_;
};

}  // namespace arch
