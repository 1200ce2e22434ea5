// Physical DRAM model.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <algorithm>
#include <vector>

#include "sim/memory.h"

namespace sim = hwsec::sim;

namespace {

TEST(Memory, SizeRoundsUpToPage) {
  sim::PhysicalMemory mem(sim::kPageSize + 1);
  EXPECT_EQ(mem.size(), 2 * sim::kPageSize);
}

TEST(Memory, ZeroInitialized) {
  sim::PhysicalMemory mem(sim::kPageSize);
  for (sim::PhysAddr a = 0; a < sim::kPageSize; a += 512) {
    EXPECT_EQ(mem.read8(a), 0u);
  }
}

TEST(Memory, ByteAndWordRoundTrip) {
  sim::PhysicalMemory mem(sim::kPageSize);
  mem.write32(0x100, 0x11223344);
  EXPECT_EQ(mem.read32(0x100), 0x11223344u);
  // Little-endian byte order.
  EXPECT_EQ(mem.read8(0x100), 0x44u);
  EXPECT_EQ(mem.read8(0x103), 0x11u);
  mem.write8(0x101, 0xAB);
  EXPECT_EQ(mem.read32(0x100), 0x1122AB44u);
}

TEST(Memory, BlockCopyAndFill) {
  sim::PhysicalMemory mem(sim::kPageSize);
  const std::vector<std::uint8_t> data = {1, 2, 3, 4, 5};
  mem.write_block(0x10, data);
  std::vector<std::uint8_t> out(5);
  mem.read_block(0x10, out);
  EXPECT_EQ(out, data);
  mem.fill(0x10, 5, 0xEE);
  mem.read_block(0x10, out);
  EXPECT_EQ(out, std::vector<std::uint8_t>(5, 0xEE));
}

TEST(Memory, ContainsBoundsChecks) {
  sim::PhysicalMemory mem(sim::kPageSize);
  EXPECT_TRUE(mem.contains(0));
  EXPECT_TRUE(mem.contains(sim::kPageSize - 4, 4));
  EXPECT_FALSE(mem.contains(sim::kPageSize - 3, 4));
  EXPECT_FALSE(mem.contains(sim::kPageSize));
}

// ---- snapshot/restore against a flat reference model ------------------
//
// A multi-page memory and a plain byte vector take the same seeded random
// sequence of writes, fills (zero and non-zero, over written and
// never-written pages), raw-span writes, snapshots and restores. The
// memory must read back exactly like the model after every step, and
// every restore must return it to the snapshot-time model with a clean
// dirty set.

constexpr std::uint32_t kModelPages = 24;
constexpr std::uint32_t kModelBytes = kModelPages * sim::kPageSize;

std::vector<std::uint8_t> contents(const sim::PhysicalMemory& mem) {
  const auto raw = mem.raw();
  return {raw.begin(), raw.end()};
}

void run_model(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](std::uint32_t n) {
    return static_cast<std::uint32_t>(rng() % n);
  };
  // Ranges start anywhere and span up to three pages, so they straddle
  // page boundaries and reach pages nothing has written yet.
  const auto pick_range = [&](std::uint32_t& addr, std::uint32_t& len) {
    addr = pick(kModelBytes);
    len = std::min(1 + pick(3 * sim::kPageSize), kModelBytes - addr);
  };

  sim::PhysicalMemory mem(kModelBytes);
  std::vector<std::uint8_t> model(kModelBytes, 0);
  sim::PhysicalMemory::Snapshot snap;
  std::vector<std::uint8_t> snap_model;
  bool have_snap = false;

  for (int step = 0; step < 600; ++step) {
    const std::uint32_t op = pick(100);
    std::uint32_t addr = 0;
    std::uint32_t len = 0;
    if (op < 25) {
      addr = pick(kModelBytes);
      const auto v = static_cast<std::uint8_t>(rng());
      mem.write8(addr, v);
      model[addr] = v;
    } else if (op < 45) {
      addr = pick(kModelBytes - 3);
      const auto v = static_cast<sim::Word>(rng());
      mem.write32(addr, v);
      for (std::uint32_t i = 0; i < 4; ++i) {
        model[addr + i] = static_cast<std::uint8_t>(v >> (8 * i));
      }
    } else if (op < 55) {
      pick_range(addr, len);
      std::vector<std::uint8_t> block(len);
      for (auto& b : block) {
        b = static_cast<std::uint8_t>(rng() % 4);  // zero-heavy blocks.
      }
      mem.write_block(addr, block);
      std::copy(block.begin(), block.end(), model.begin() + addr);
    } else if (op < 75) {
      pick_range(addr, len);
      const std::uint8_t v = pick(2) == 0 ? 0 : static_cast<std::uint8_t>(1 + pick(255));
      mem.fill(addr, len, v);
      std::fill_n(model.begin() + addr, len, v);
    } else if (op < 80) {
      addr = pick(kModelBytes);
      const auto v = static_cast<std::uint8_t>(rng());
      mem.raw()[addr] = v;
      model[addr] = v;
    } else if (op < 88) {
      snap = mem.snapshot();
      snap_model = model;
      have_snap = true;
      ASSERT_EQ(mem.dirty_page_count(), 0u) << "seed " << seed << " step " << step;
    } else if (have_snap) {
      mem.restore(snap);
      model = snap_model;
      ASSERT_EQ(mem.dirty_page_count(), 0u) << "seed " << seed << " step " << step;
    }
    ASSERT_EQ(contents(mem), model) << "seed " << seed << " step " << step << " op " << op;
  }
}

TEST(MemoryModel, RandomOpsMatchFlatReference) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    run_model(seed);
  }
}

TEST(MemoryModel, SnapshotStoresOnlyNonZeroPages) {
  sim::PhysicalMemory mem(kModelBytes);
  EXPECT_EQ(mem.snapshot().stored_pages(), 0u);
  mem.write8(3 * sim::kPageSize + 7, 0x5A);
  mem.fill(9 * sim::kPageSize, 2 * sim::kPageSize, 0xC3);
  mem.write8(20 * sim::kPageSize, 0x01);
  mem.write8(20 * sim::kPageSize, 0x00);  // written, but zero again.
  const sim::PhysicalMemory::Snapshot snap = mem.snapshot();
  EXPECT_EQ(snap.stored_pages(), 3u);
  mem.fill(0, kModelBytes, 0);
  mem.restore(snap);
  EXPECT_EQ(mem.read8(3 * sim::kPageSize + 7), 0x5Au);
  EXPECT_EQ(mem.read8(11 * sim::kPageSize - 1), 0xC3u);
  EXPECT_EQ(mem.snapshot().stored_pages(), 3u);
}

TEST(MemoryModel, ZeroFillOfKnownZeroPagesStaysClean) {
  // Zeroing pages outside the written-page set must not write them: they
  // stay out of the dirty set (and out of resident memory).
  constexpr std::uint32_t kBytes = 4 * sim::kPageSize;
  sim::PhysicalMemory mem(kBytes);
  mem.fill(0, kBytes, 0);
  EXPECT_EQ(mem.dirty_page_count(), 0u) << "never-written pages are known zero";
  const sim::PhysicalMemory::Snapshot snap = mem.snapshot();
  mem.write8(sim::kPageSize, 1);
  mem.restore(snap);
  mem.fill(0, kBytes, 0);
  EXPECT_EQ(mem.dirty_page_count(), 0u) << "a page restored to zero is known zero again";
  mem.write8(2 * sim::kPageSize, 1);
  mem.fill(0, kBytes, 0);
  EXPECT_EQ(mem.dirty_page_count(), 1u) << "a page written since the snapshot is zeroed for real";
  EXPECT_EQ(mem.read8(2 * sim::kPageSize), 0u);
}

}  // namespace
