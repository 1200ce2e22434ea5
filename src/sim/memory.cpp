#include "sim/memory.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <new>

namespace hwsec::sim {

namespace {

std::size_t bitmap_words(std::uint32_t pages) { return (pages + 63) / 64; }

bool page_is_zero(const std::uint8_t* page) {
  for (std::uint32_t i = 0; i < kPageSize; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, page + i, 8);
    if (w != 0) {
      return false;
    }
  }
  return true;
}

/// Sets the bit of every page in [0, pages).
void set_all_pages(std::vector<std::uint64_t>& bits, std::uint32_t pages) {
  std::fill(bits.begin(), bits.end(), ~0ull);
  if (pages % 64 != 0) {
    bits.back() = (1ull << (pages % 64)) - 1;
  }
}

/// Calls f(page) for every set bit of `bits`, in ascending page order.
template <typename F>
void for_each_page(const std::vector<std::uint64_t>& bits, F f) {
  for (std::size_t word = 0; word < bits.size(); ++word) {
    for (std::uint64_t b = bits[word]; b != 0; b &= b - 1) {
      f(static_cast<std::uint32_t>(word * 64 + std::countr_zero(b)));
    }
  }
}

}  // namespace

void PhysicalMemory::Unmap::operator()(std::uint8_t* p) const { ::munmap(p, bytes); }

PhysicalMemory::PhysicalMemory(std::uint32_t bytes)
    : size_((bytes + kPageSize - 1) & ~kPageOffsetMask),
      dirty_(bitmap_words(page_count()), 0),
      nonzero_(bitmap_words(page_count()), 0) {
  if (size_ == 0) {
    return;
  }
  // Anonymous private pages read as zero and cost nothing until written.
  void* p = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    throw std::bad_alloc();
  }
  data_ = {static_cast<std::uint8_t*>(p), Unmap{size_}};
}

std::uint8_t PhysicalMemory::read8(PhysAddr addr) const {
  assert(contains(addr));
  return data_.get()[addr];
}

void PhysicalMemory::write8(PhysAddr addr, std::uint8_t value) {
  assert(contains(addr));
  mark_dirty(addr, 1);
  data_.get()[addr] = value;
}

Word PhysicalMemory::read32(PhysAddr addr) const {
  assert(contains(addr, 4));
  const std::uint8_t* d = data_.get() + addr;
  return static_cast<Word>(d[0]) | static_cast<Word>(d[1]) << 8 |
         static_cast<Word>(d[2]) << 16 | static_cast<Word>(d[3]) << 24;
}

void PhysicalMemory::write32(PhysAddr addr, Word value) {
  assert(contains(addr, 4));
  mark_dirty(addr, 4);
  std::uint8_t* d = data_.get() + addr;
  d[0] = static_cast<std::uint8_t>(value);
  d[1] = static_cast<std::uint8_t>(value >> 8);
  d[2] = static_cast<std::uint8_t>(value >> 16);
  d[3] = static_cast<std::uint8_t>(value >> 24);
}

void PhysicalMemory::read_block(PhysAddr addr, std::span<std::uint8_t> out) const {
  assert(contains(addr, static_cast<std::uint32_t>(out.size())));
  std::copy_n(data_.get() + addr, out.size(), out.begin());
}

void PhysicalMemory::write_block(PhysAddr addr, std::span<const std::uint8_t> in) {
  assert(contains(addr, static_cast<std::uint32_t>(in.size())));
  if (!in.empty()) {
    mark_dirty(addr, static_cast<std::uint32_t>(in.size()));
  }
  std::copy(in.begin(), in.end(), data_.get() + addr);
}

void PhysicalMemory::fill(PhysAddr addr, std::uint32_t len, std::uint8_t value) {
  assert(contains(addr, len));
  if (len == 0) {
    return;
  }
  if (value != 0 || raw_dirty_) {
    mark_dirty(addr, len);
    std::memset(data_.get() + addr, value, len);
    return;
  }
  // Zeroing a page outside the written-page set is a no-op: its bytes are
  // already zero. Skipping the write also keeps the page out of the dirty
  // set (so the next restore() skips it) and out of resident memory. This
  // makes the allocator's zero-fill of freshly mapped frames (the bulk of
  // per-trial setup writes) nearly free.
  const std::uint32_t first = addr >> kPageShift;
  const std::uint32_t last = (addr + len - 1) >> kPageShift;
  for (std::uint32_t p = first; p <= last; ++p) {
    if (!written(p)) {
      continue;
    }
    const PhysAddr page_base = p << kPageShift;
    const PhysAddr lo = std::max(addr, page_base);
    const PhysAddr hi = static_cast<PhysAddr>(
        std::min<std::uint64_t>(static_cast<std::uint64_t>(addr) + len, page_base + kPageSize));
    mark_dirty(lo, hi - lo);
    std::memset(data_.get() + lo, 0, hi - lo);
  }
}

PhysicalMemory::Snapshot PhysicalMemory::snapshot() {
  Snapshot snap;
  snap.slot_.assign(page_count(), Snapshot::kZeroPage);
  // Visit the written-page set, or every page if a mutable raw() span
  // may have written anywhere.
  if (raw_dirty_) {
    set_all_pages(dirty_, page_count());
  } else {
    for (std::size_t w = 0; w < dirty_.size(); ++w) {
      dirty_[w] |= nonzero_[w];
    }
  }
  std::fill(nonzero_.begin(), nonzero_.end(), 0);
  for_each_page(dirty_, [&](std::uint32_t page) {
    const std::uint8_t* src = page_ptr(page);
    if (page_is_zero(src)) {
      return;
    }
    snap.slot_[page] = snap.stored_pages();
    snap.pages_.insert(snap.pages_.end(), src, src + kPageSize);
    nonzero_[page >> 6] |= 1ull << (page & 63);
  });
  std::fill(dirty_.begin(), dirty_.end(), 0);
  raw_dirty_ = false;
  return snap;
}

void PhysicalMemory::restore(const Snapshot& snap) {
  assert(snap.slot_.size() == page_count());
  if (raw_dirty_) {
    // The fast path was poisoned by a mutable raw() span: any page may
    // differ from the image, so rewrite them all.
    set_all_pages(dirty_, page_count());
  }
  // nonzero_ already matches the image: it was set from it by snapshot(),
  // and only pages in dirty_ have changed since.
  for_each_page(dirty_, [&](std::uint32_t page) {
    std::uint8_t* dst = page_ptr(page);
    const std::uint32_t slot = snap.slot_[page];
    if (slot == Snapshot::kZeroPage) {
      std::memset(dst, 0, kPageSize);
    } else {
      std::memcpy(dst, snap.pages_.data() + (static_cast<std::size_t>(slot) << kPageShift),
                  kPageSize);
    }
  });
  std::fill(dirty_.begin(), dirty_.end(), 0);
  raw_dirty_ = false;
}

std::uint32_t PhysicalMemory::dirty_page_count() const {
  std::uint32_t count = 0;
  for (const std::uint64_t word : dirty_) {
    count += static_cast<std::uint32_t>(std::popcount(word));
  }
  return count;
}

}  // namespace hwsec::sim
