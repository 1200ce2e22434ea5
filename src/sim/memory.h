// Physical DRAM model.
//
// A flat byte array with word accessors. DRAM has no security semantics of
// its own; access control lives in the MMU/MPU (per-architecture) and in
// the bus (DMA filtering). Memory contents persist across enclave
// creation/teardown, which is exactly why SGX-class designs add a memory
// encryption engine (modeled in src/arch/sgx.*).
//
// Cost model: a machine costs what it writes, not its DRAM size. The
// backing store is an anonymous kernel-zeroed mapping that construction
// never touches, so untouched DRAM costs neither time nor resident memory.
// Every write path marks its pages in a dirty bitmap (one bit per 4 KiB
// page); together with the pages non-zero in the latest snapshot's image
// this gives the written-page set, a superset of the non-zero pages.
// snapshot() visits only written pages and stores the non-zero ones
// packed, so a snapshot costs the pages written so far, not DRAM size.
// restore() rewrites only pages dirtied since the snapshot, so resetting a
// machine between campaign trials scales with the trial's write
// footprint. The snapshot/reset layer in sim/machine.h builds on this.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/types.h"

namespace hwsec::sim {

class PhysicalMemory {
 public:
  /// Creates DRAM of `bytes` size (rounded up to a whole page), zeroed.
  /// Pages are materialized by the kernel on first write.
  explicit PhysicalMemory(std::uint32_t bytes);

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  std::uint32_t size() const { return size_; }

  bool contains(PhysAddr addr, std::uint32_t len = 1) const {
    return addr < size() && static_cast<std::uint64_t>(addr) + len <= size();
  }

  /// Byte accessors. Out-of-range accesses are a programming error and
  /// abort via assert in debug builds; callers must bounds-check with
  /// contains() first (the bus does).
  std::uint8_t read8(PhysAddr addr) const;
  void write8(PhysAddr addr, std::uint8_t value);

  /// Little-endian 32-bit word accessors. No alignment requirement at the
  /// DRAM level; alignment faults are raised by the CPU.
  Word read32(PhysAddr addr) const;
  void write32(PhysAddr addr, Word value);

  /// Bulk copy helpers, used by loaders, DMA and the SGX paging model.
  void read_block(PhysAddr addr, std::span<std::uint8_t> out) const;
  void write_block(PhysAddr addr, std::span<const std::uint8_t> in);

  /// Fills [addr, addr+len) with `value`.
  void fill(PhysAddr addr, std::uint32_t len, std::uint8_t value);

  // -- snapshot / dirty-page restore ------------------------------------
  /// Sparse DRAM image: one slot per page, naming either a packed copy of
  /// the page or "all zero".
  class Snapshot {
   public:
    /// Pages held as copies; every other page is zero in the image.
    std::uint32_t stored_pages() const {
      return static_cast<std::uint32_t>(pages_.size() / kPageSize);
    }

   private:
    friend class PhysicalMemory;
    static constexpr std::uint32_t kZeroPage = ~0u;
    std::vector<std::uint32_t> slot_;  ///< per page: index into pages_, or kZeroPage.
    std::vector<std::uint8_t> pages_;  ///< the non-zero pages, packed.
  };

  /// Captures the current contents, visiting only written pages (every
  /// page if a mutable raw() span was handed out since the last
  /// snapshot/restore), and restarts dirty tracking from a clean slate.
  Snapshot snapshot();

  /// Restores the image of this memory's latest snapshot(), rewriting only
  /// pages dirtied since snapshot() (every page if tracking was bypassed
  /// via mutable raw()). Tracking restarts with a clean slate, so a
  /// machine can be restored repeatedly from the same snapshot. The
  /// snapshot's size is asserted.
  void restore(const Snapshot& snap);

  /// Dirty pages since the last snapshot()/restore(), for tests and for
  /// reasoning about restore cost.
  std::uint32_t dirty_page_count() const;

  /// Direct access to the backing store, for checkpointing in tests. The
  /// mutable overload bypasses dirty tracking, so it poisons the
  /// written-page set until the next snapshot()/restore(): that snapshot
  /// scans every page, that restore rewrites every page, and zero fills
  /// write unconditionally (correct, just slower).
  std::span<const std::uint8_t> raw() const { return {data_.get(), size_}; }
  std::span<std::uint8_t> raw() {
    raw_dirty_ = true;
    return {data_.get(), size_};
  }

 private:
  struct Unmap {
    std::size_t bytes;
    void operator()(std::uint8_t* p) const;
  };

  std::uint32_t page_count() const { return size_ >> kPageShift; }
  std::uint8_t* page_ptr(std::uint32_t page) {
    return data_.get() + (static_cast<std::size_t>(page) << kPageShift);
  }
  /// True if the page is in the written-page set, i.e. may be non-zero:
  /// dirtied since the last snapshot/restore, or non-zero in the image.
  bool written(std::uint32_t page) const {
    return ((dirty_[page >> 6] | nonzero_[page >> 6]) >> (page & 63)) & 1;
  }

  void mark_dirty(PhysAddr addr, std::uint32_t len) {
    const std::uint32_t first = addr >> kPageShift;
    const std::uint32_t last = (addr + len - 1) >> kPageShift;
    for (std::uint32_t p = first; p <= last; ++p) {
      dirty_[p >> 6] |= 1ull << (p & 63);
    }
  }

  std::unique_ptr<std::uint8_t, Unmap> data_;
  std::uint32_t size_ = 0;
  /// Pages written since the last snapshot()/restore() (since construction
  /// before the first snapshot), one bit per page.
  std::vector<std::uint64_t> dirty_;
  /// Pages non-zero in the latest snapshot's image (none before the first
  /// snapshot); restore() returns every page to that image, so it holds
  /// across restores. dirty_ | nonzero_ is the written-page set.
  std::vector<std::uint64_t> nonzero_;
  bool raw_dirty_ = false;  ///< mutable raw() handed out since snapshot/restore.
};

}  // namespace hwsec::sim
