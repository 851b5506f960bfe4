#include "gex/shared_heap.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <new>

#include "arch/cacheline.hpp"

namespace gex {

namespace {
constexpr std::size_t kMinBlock = 32;  // header + the two free-list links
}

SharedHeap::Class SharedHeap::class_of(std::uint64_t size) {
  if (size < (std::uint64_t{1} << kFlShift))
    return {0, static_cast<unsigned>(size >> 4)};
  const unsigned f = static_cast<unsigned>(std::bit_width(size)) - 1;
  return {f - (kFlShift - 1),
          static_cast<unsigned>((size >> (f - kSlLog2)) ^ kSlCount)};
}

SharedHeap* SharedHeap::create(void* region, std::size_t bytes) {
  auto* h = ::new (region) SharedHeap();
  h->total_ = bytes;
  h->fl_count_ = class_of(bytes).fl + 1;
  const std::size_t table = h->fl_count_ * kSlCount * sizeof(std::uint64_t);
  std::memset(h->heads(), 0, table);
  // One free block spans the region up to a used zero-size sentinel header
  // at the end, so every block has a physical successor to flag.
  const std::uint64_t first = arch::align_up(sizeof(SharedHeap) + table, 16);
  const std::uint64_t end = (bytes & ~std::uint64_t{15}) - kHeader;
  assert(bytes > first + kHeader + kMinBlock);
  Block* b = h->at(first);
  b->prev_phys = 0;
  b->size = (end - first) | kFree;
  Block* s = h->at(end);
  s->prev_phys = first;
  s->size = kPrevFree;
  h->free_bytes_ = end - first;
  h->insert_free(first);
  return h;
}

void SharedHeap::insert_free(std::uint64_t off) {
  Block* b = at(off);
  const auto [fl, sl] = class_of(size_of(b));
  std::uint64_t& h = head(fl, sl);
  b->next_free = h;
  b->prev_free = 0;
  if (h) at(h)->prev_free = off;
  h = off;
  fl_bitmap_ |= std::uint64_t{1} << fl;
  sl_bitmap_[fl] |= 1u << sl;
}

void SharedHeap::remove_free(std::uint64_t off) {
  Block* b = at(off);
  if (b->next_free) at(b->next_free)->prev_free = b->prev_free;
  if (b->prev_free) {
    at(b->prev_free)->next_free = b->next_free;
    return;
  }
  const auto [fl, sl] = class_of(size_of(b));
  head(fl, sl) = b->next_free;
  if (b->next_free) return;
  sl_bitmap_[fl] &= ~(1u << sl);
  if (!sl_bitmap_[fl]) fl_bitmap_ &= ~(std::uint64_t{1} << fl);
}

std::uint64_t SharedHeap::find_free(std::size_t want) {
  // Round up to the next class boundary: the head of that class, or of any
  // class above it, fits.
  std::uint64_t up = want;
  if (want >= (std::uint64_t{1} << kFlShift))
    up += (std::uint64_t{1} << (std::bit_width(want) - 1 - kSlLog2)) - 1;
  auto [fl, sl] = class_of(up);
  if (fl < fl_count_) {
    std::uint32_t sm = sl_bitmap_[fl] & (~0u << sl);
    if (!sm) {
      const std::uint64_t fm = fl_bitmap_ & (~std::uint64_t{0} << (fl + 1));
      if (fm) {
        fl = static_cast<unsigned>(std::countr_zero(fm));
        sm = sl_bitmap_[fl];
      }
    }
    if (sm) return head(fl, static_cast<unsigned>(std::countr_zero(sm)));
  }
  // Only the request's own class may still hold a block that fits.
  const auto [efl, esl] = class_of(want);
  if (efl >= fl_count_) return 0;
  for (std::uint64_t off = head(efl, esl); off; off = at(off)->next_free)
    if (size_of(at(off)) >= want) return off;
  return 0;
}

void* SharedHeap::allocate(std::size_t bytes, std::size_t align) {
  if (align < 16) align = 16;
  // Payload begins right after the header; the header is 16 bytes and blocks
  // are 16-aligned, so alignments above 16 need slack we carve off the front.
  const std::size_t slack = align > 16 ? align : 0;
  // Refuse what cannot fit before the sum below can wrap.
  if (bytes > total_ || slack > total_ - bytes) return nullptr;
  const std::size_t want =
      std::max(arch::align_up(kHeader + bytes + slack, 16), kMinBlock);
  arch::SpinGuard g(lock_);
  const std::uint64_t off = find_free(want);
  if (!off) return nullptr;
  remove_free(off);
  Block* b = at(off);
  const std::uint64_t size = size_of(b);
  if (size - want >= kMinBlock) {
    // Split; the free tail keeps the successor's prev-free flag set.
    const std::uint64_t rest = off + want;
    Block* r = at(rest);
    r->prev_phys = off;
    r->size = (size - want) | kFree;
    at(off + size)->prev_phys = rest;
    insert_free(rest);
    b->size = want;
  } else {
    b->size = size;
    at(off + size)->size &= ~kPrevFree;
  }
  free_bytes_ -= size_of(b);
  std::byte* payload = base() + off + kHeader;
  if (align > 16) {
    auto up = reinterpret_cast<std::uintptr_t>(payload);
    auto aligned = arch::align_up(up, align);
    if (aligned != up) {
      // Stash the real block offset just before the aligned payload so
      // deallocate can find the header. (When aligned == up the word
      // before the payload is the header's size word — leave it.)
      auto* back = reinterpret_cast<std::uint64_t*>(aligned) - 1;
      *back = off | 1ull;  // tag: low bit marks "offset redirect"
    }
    return reinterpret_cast<void*>(aligned);
  }
  return payload;
}

void SharedHeap::deallocate(void* p) {
  if (!p) return;
  assert(contains(p));
  auto addr = reinterpret_cast<std::uintptr_t>(p);
  std::uint64_t off;
  // Under the lock: a regular payload's preceding word is its size word,
  // whose prev-free bit a neighbour's allocate or deallocate flips.
  arch::SpinGuard g(lock_);
  // Detect redirected (over-aligned) payloads: the word before carries the
  // tagged block offset. Regular payloads sit right after their header's
  // size word, whose free bit (bit 0) is clear while the block is live.
  const std::uint64_t marker = *(reinterpret_cast<std::uint64_t*>(addr) - 1);
  if (marker & kFree) {
    off = marker & ~std::uint64_t{1};
  } else {
    off = static_cast<std::uint64_t>(addr -
                                     reinterpret_cast<std::uintptr_t>(base())) -
          kHeader;
  }
  assert(off < total_ && !(at(off)->size & kFree) &&
         "double free or invalid pointer");
  std::uint64_t size = size_of(at(off));
  free_bytes_ += size;
  // A free neighbour on either side is merged in; two free blocks are never
  // adjacent, so the merged block's own predecessor is in use.
  if (at(off)->size & kPrevFree) {
    const std::uint64_t prev = at(off)->prev_phys;
    remove_free(prev);
    size += size_of(at(prev));
    off = prev;
  }
  if (at(off + size)->size & kFree) {
    remove_free(off + size);
    size += size_of(at(off + size));
  }
  at(off)->size = size | kFree;
  Block* next = at(off + size);
  next->prev_phys = off;
  next->size |= kPrevFree;
  insert_free(off);
}

std::size_t SharedHeap::bytes_free() const {
  arch::SpinGuard g(lock_);
  return free_bytes_;
}

std::size_t SharedHeap::largest_free_block() const {
  arch::SpinGuard g(lock_);
  if (!fl_bitmap_) return 0;
  // The highest non-empty class holds the largest block; its members span
  // one class width, so compare them.
  const unsigned fl = static_cast<unsigned>(std::bit_width(fl_bitmap_)) - 1;
  const unsigned sl =
      static_cast<unsigned>(std::bit_width(sl_bitmap_[fl])) - 1;
  std::size_t best = 0;
  for (std::uint64_t off = heads()[fl * kSlCount + sl]; off;
       off = at(off)->next_free)
    best = std::max<std::size_t>(best, size_of(at(off)));
  return best;
}

}  // namespace gex
