// Two-level segregated-fit allocator over a raw memory region (TLSF:
// Masmano et al., "TLSF: a new dynamic memory allocator for real-time
// systems", ECRTS 2004).
//
// Two uses in the runtime:
//  * the global shared heap (rendezvous buffers for large active messages),
//    where any rank may allocate and any rank may free;
//  * each rank's shared segment (upcxx::allocate), where the owner allocates
//    and frees but remote ranks RMA into the memory. The DHT owner does this
//    on every insert, erase and overwrite, so both calls are constant time.
//
// Free blocks sit in size-class lists: a first level per power of two and
// 16 linear second-level classes within it, each non-empty list marked in a
// bitmap. Allocate rounds the request up to the next class boundary, so the
// head of any list at or above that class fits, found with two
// count-trailing-zeros; when that misses, the request's own class list is
// scanned, so a request fails only if no free block fits. Every block header
// carries its size, a free bit, a prev-free bit and the offset of the block
// physically before it, so deallocate coalesces with both neighbours at once.
//
// All bookkeeping lives inside the managed region itself (offset-linked, no
// pointers), so the allocator works across forked processes. A single
// spinlock guards it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "arch/spinlock.hpp"

namespace gex {

class SharedHeap {
 public:
  // Placement-creates a heap over `region` of `bytes` bytes (which includes
  // the heap header and its class-list table). Returns the heap object,
  // which lives at the start of the region.
  static SharedHeap* create(void* region, std::size_t bytes);

  // Allocates `bytes` (rounded up to 16) with at least 16-byte alignment,
  // or returns nullptr when no block fits (including requests whose size
  // plus header and alignment slack exceeds the region).
  void* allocate(std::size_t bytes, std::size_t align = 16);

  // Returns a block obtained from allocate(). Coalesces with neighbours.
  void deallocate(void* p);

  // Diagnostics. bytes_free() counts whole free blocks, headers included.
  std::size_t bytes_free() const;
  std::size_t bytes_total() const { return total_; }
  std::size_t largest_free_block() const;
  bool contains(const void* p) const {
    auto u = reinterpret_cast<std::uintptr_t>(p);
    auto b = reinterpret_cast<std::uintptr_t>(this);
    return u >= b && u < b + total_;
  }

  SharedHeap(const SharedHeap&) = delete;
  SharedHeap& operator=(const SharedHeap&) = delete;

 private:
  SharedHeap() = default;

  static constexpr unsigned kSlLog2 = 4;  // 16 second-level classes
  static constexpr unsigned kSlCount = 1u << kSlLog2;
  // Block sizes are multiples of 16; below 256 every class is one size.
  static constexpr unsigned kFlShift = kSlLog2 + 4;
  static constexpr unsigned kFlMax = 64 - kFlShift + 1;

  // Header of every block; the payload starts right after `size`, so the
  // word before a live block's payload is its size word, whose free bit is
  // clear (deallocate tells it from an over-aligned redirect marker by that
  // bit). The free-list links occupy the first payload bytes of free blocks.
  struct Block {
    std::uint64_t prev_phys;  // offset of the block physically before, or 0
    std::uint64_t size;       // whole block incl. header | kFree | kPrevFree
    std::uint64_t next_free;  // free blocks only: class-list links (0 ends)
    std::uint64_t prev_free;
  };
  static constexpr std::uint64_t kFree = 1, kPrevFree = 2, kFlags = 15;
  static constexpr std::size_t kHeader = 2 * sizeof(std::uint64_t);

  static std::uint64_t size_of(const Block* b) { return b->size & ~kFlags; }
  // The class list a block of `size` bytes belongs to.
  struct Class {
    unsigned fl, sl;
  };
  static Class class_of(std::uint64_t size);

  std::byte* base() { return reinterpret_cast<std::byte*>(this); }
  const std::byte* base() const {
    return reinterpret_cast<const std::byte*>(this);
  }
  Block* at(std::uint64_t off) {
    return reinterpret_cast<Block*>(base() + off);
  }
  const Block* at(std::uint64_t off) const {
    return reinterpret_cast<const Block*>(base() + off);
  }
  // Class-list heads (block offsets, 0 = empty), fl_count_ x kSlCount,
  // stored in the region right after this object.
  std::uint64_t* heads() {
    return reinterpret_cast<std::uint64_t*>(base() + sizeof(SharedHeap));
  }
  const std::uint64_t* heads() const {
    return reinterpret_cast<const std::uint64_t*>(base() + sizeof(SharedHeap));
  }
  std::uint64_t& head(unsigned fl, unsigned sl) {
    return heads()[fl * kSlCount + sl];
  }

  void insert_free(std::uint64_t off);
  void remove_free(std::uint64_t off);
  // Offset of a free block of at least `want` bytes, or 0.
  std::uint64_t find_free(std::size_t want);

  mutable arch::Spinlock lock_;
  std::size_t total_ = 0;
  std::size_t free_bytes_ = 0;  // sum of free block sizes
  unsigned fl_count_ = 0;
  std::uint64_t fl_bitmap_ = 0;
  std::uint32_t sl_bitmap_[kFlMax] = {};
};

}  // namespace gex
