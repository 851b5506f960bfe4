// global_ptr<T> and shared-segment allocation (paper §II).
//
// A global pointer names memory in some rank's shared segment. Reproducing
// the paper's design decisions:
//  * it cannot be dereferenced (`*` is not provided) — all data motion is
//    explicit through rput/rget/RPC/atomics;
//  * it supports pointer arithmetic and passing by value (trivially
//    copyable, hence trivially serializable as an RPC argument);
//  * it converts to/from a raw pointer for the *owning* rank via local() and
//    to_global_ptr(); is_local() reports whether a direct conversion is
//    possible (always true on our single-node arena, the analog of GASNet
//    PSHM cross-mapping).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>

#include "gex/runtime.hpp"
#include "upcxx/future.hpp"

namespace upcxx {

// Memory kinds (paper §VI future work: transfers "to and from other
// memories (such as that of GPUs)"). `host` is ordinary shared-segment
// memory; `sim_device` is the reproduction's simulated accelerator memory —
// host-backed storage that is *not* host-dereferenceable through the type
// system and whose transfers (upcxx::copy) may carry a simulated
// PCIe-style cost (see device_allocator.hpp).
enum class memory_kind : std::uint8_t {
  host = 0,
  sim_device = 1,
};

template <typename T, memory_kind K = memory_kind::host>
class global_ptr {
 public:
  using element_type = T;
  static constexpr memory_kind kind = K;

  constexpr global_ptr() = default;  // null
  constexpr global_ptr(std::nullptr_t) {}  // NOLINT

  static global_ptr from_raw(intrank_t rank, T* p) {
    global_ptr g;
    g.rank_ = rank;
    g.raw_ = p;
    return g;
  }

  bool is_null() const { return raw_ == nullptr; }
  explicit operator bool() const { return raw_ != nullptr; }

  intrank_t where() const { return rank_; }

  // True when the memory can be reached with a raw pointer from this rank.
  // On the shared-memory arena every segment is cross-mapped, so any valid
  // global_ptr is local — same semantics as UPC++ on a PSHM node.
  bool is_local() const { return true; }

  // Raw pointer usable on this rank. UPC++ permits this only when
  // is_local(); calling it on a null pointer is an error. Device-kind
  // pointers are not host-dereferenceable: use upcxx::copy (or the owning
  // device_allocator's backing accessor) instead.
  T* local() const {
    static_assert(K == memory_kind::host,
                  "local() is only available on host-kind global_ptr; "
                  "device memory moves via upcxx::copy");
    assert(raw_ != nullptr);
    return raw_;
  }

  // The raw address in the owner's address space, without the host-kind
  // restriction. Needed by the runtime (copy, hashing); not part of the
  // user-facing dereference surface.
  T* raw_address() const { return raw_; }

  // Pointer arithmetic (element granularity), as in the paper.
  global_ptr operator+(std::ptrdiff_t d) const {
    return from_raw(rank_, raw_ + d);
  }
  global_ptr operator-(std::ptrdiff_t d) const {
    return from_raw(rank_, raw_ - d);
  }
  std::ptrdiff_t operator-(const global_ptr& o) const {
    assert(rank_ == o.rank_);
    return raw_ - o.raw_;
  }
  global_ptr& operator+=(std::ptrdiff_t d) {
    raw_ += d;
    return *this;
  }
  global_ptr& operator-=(std::ptrdiff_t d) {
    raw_ -= d;
    return *this;
  }
  global_ptr& operator++() { ++raw_; return *this; }
  global_ptr& operator--() { --raw_; return *this; }

  friend bool operator==(const global_ptr& a, const global_ptr& b) {
    return a.raw_ == b.raw_ && (a.raw_ == nullptr || a.rank_ == b.rank_);
  }
  friend bool operator!=(const global_ptr& a, const global_ptr& b) {
    return !(a == b);
  }
  friend bool operator<(const global_ptr& a, const global_ptr& b) {
    return a.raw_ < b.raw_;
  }

  // Reinterpretation (element-type cast), mirroring
  // upcxx::reinterpret_pointer_cast. Preserves the memory kind.
  template <typename U>
  global_ptr<U, K> reinterpret() const {
    return global_ptr<U, K>::from_raw(rank_, reinterpret_cast<U*>(raw_));
  }

 private:
  intrank_t rank_ = 0;
  T* raw_ = nullptr;
};

static_assert(std::is_trivially_copyable_v<global_ptr<int>>,
              "global_ptr must remain trivially serializable");

// ------------------------------------------------------ segment allocation

// Allocates n objects of type T (uninitialized) from the calling rank's
// shared segment. Returns null global_ptr on exhaustion, and when n objects
// would not fit in a size_t.
template <typename T>
global_ptr<T> allocate(std::size_t n = 1,
                       std::size_t align = alignof(T)) {
  auto* r = gex::self();
  assert(r && "allocate() outside SPMD region");
  if (n > SIZE_MAX / sizeof(T)) return {};
  void* p = r->arena->segment_heap(r->me).allocate(n * sizeof(T), align);
  if (!p) return {};
  return global_ptr<T>::from_raw(r->me, static_cast<T*>(p));
}

// Frees memory obtained from allocate(). Must be called by the owner.
template <typename T>
void deallocate(global_ptr<T> g) {
  if (g.is_null()) return;
  auto* r = gex::self();
  assert(r && g.where() == r->me &&
         "deallocate() must run on the owning rank");
  r->arena->segment_heap(r->me).deallocate(g.local());
}

// new_/delete_: construct/destroy a T in the shared segment.
template <typename T, typename... Args>
global_ptr<T> new_(Args&&... args) {
  global_ptr<T> g = allocate<T>(1);
  assert(!g.is_null() && "shared segment exhausted");
  ::new (static_cast<void*>(g.local())) T(std::forward<Args>(args)...);
  return g;
}

template <typename T>
void delete_(global_ptr<T> g) {
  if (g.is_null()) return;
  g.local()->~T();
  deallocate(g);
}

// new_array / delete_array, value-initialized as in UPC++.
template <typename T>
global_ptr<T> new_array(std::size_t n) {
  global_ptr<T> g = allocate<T>(n);
  assert(!g.is_null() && "shared segment exhausted");
  for (std::size_t i = 0; i < n; ++i)
    ::new (static_cast<void*>(g.local() + i)) T();
  return g;
}

template <typename T>
void delete_array(global_ptr<T> g, std::size_t n) {
  if (g.is_null()) return;
  for (std::size_t i = 0; i < n; ++i) g.local()[i].~T();
  deallocate(g);
}

// Converts a raw pointer into the calling rank's segment to a global_ptr.
template <typename T>
global_ptr<T> to_global_ptr(T* p) {
  auto* r = gex::self();
  assert(r);
  int owner = r->arena->rank_of(p);
  assert(owner == r->me && "pointer is not into my shared segment");
  return global_ptr<T>::from_raw(owner, p);
}

// Non-asserting variant: null if p is not in any shared segment; otherwise a
// pointer owned by whichever rank's segment contains it.
template <typename T>
global_ptr<T> try_global_ptr(T* p) {
  auto* r = gex::self();
  assert(r);
  int owner = r->arena->rank_of(p);
  if (owner < 0) return {};
  return global_ptr<T>::from_raw(owner, p);
}

}  // namespace upcxx

namespace std {
template <typename T, upcxx::memory_kind K>
struct hash<upcxx::global_ptr<T, K>> {
  size_t operator()(const upcxx::global_ptr<T, K>& g) const {
    return hash<T*>()(g.raw_address());
  }
};
}  // namespace std
