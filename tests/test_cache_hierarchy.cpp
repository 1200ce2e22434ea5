// Multi-core hierarchy: latency ordering, inclusivity (back-invalidation),
// cross-core visibility, flushes and Sanctuary-style exclusions.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache_state.h"
#include "sim/cache_hierarchy.h"
#include "sim/rng.h"

namespace sim = hwsec::sim;

namespace {

sim::HierarchyConfig two_core_config() {
  sim::HierarchyConfig h;
  h.num_cores = 2;
  h.l1d = {.name = "L1D", .size_bytes = 1024, .ways = 2, .line_size = 64,
           .policy = sim::ReplacementPolicy::kLru, .hit_latency = 4};
  h.l1i = h.l1d;
  h.llc = {.name = "LLC", .size_bytes = 16 * 1024, .ways = 4, .line_size = 64,
           .policy = sim::ReplacementPolicy::kLru, .hit_latency = 30};
  h.dram_latency = 150;
  return h;
}

TEST(Hierarchy, LatencyOrderingL1LlcDram) {
  sim::CacheHierarchy h(two_core_config());
  const auto miss = h.access(0, 0, 0x1000, sim::AccessType::kRead);
  EXPECT_EQ(miss.level, sim::ServiceLevel::kDram);
  const auto hit = h.access(0, 0, 0x1000, sim::AccessType::kRead);
  EXPECT_EQ(hit.level, sim::ServiceLevel::kL1);
  EXPECT_LT(hit.latency, miss.latency);

  // Other core: misses its L1, hits the shared LLC.
  const auto cross = h.access(1, 0, 0x1000, sim::AccessType::kRead);
  EXPECT_EQ(cross.level, sim::ServiceLevel::kLlc);
  EXPECT_GT(cross.latency, hit.latency);
  EXPECT_LT(cross.latency, miss.latency);
}

TEST(Hierarchy, FlushLineRemovesFromAllLevelsAllCores) {
  sim::CacheHierarchy h(two_core_config());
  h.access(0, 0, 0x2000, sim::AccessType::kRead);
  h.access(1, 0, 0x2000, sim::AccessType::kRead);
  h.flush_line(0x2000);
  EXPECT_FALSE(h.in_l1d(0, 0x2000));
  EXPECT_FALSE(h.in_l1d(1, 0x2000));
  EXPECT_FALSE(h.in_llc(0x2000));
}

TEST(Hierarchy, InclusiveLlcBackInvalidatesL1) {
  sim::CacheHierarchy h(two_core_config());
  // LLC: 64 sets, 4 ways. Fill one LLC set beyond capacity and verify a
  // back-invalidated line also left the owner's L1.
  const sim::PhysAddr llc_stride = 64 * 64;
  h.access(0, 0, 0, sim::AccessType::kRead);
  ASSERT_TRUE(h.in_l1d(0, 0));
  for (sim::PhysAddr i = 1; i <= 4; ++i) {
    h.access(1, 0, i * llc_stride, sim::AccessType::kRead);  // evicts line 0 from LLC.
  }
  EXPECT_FALSE(h.in_llc(0));
  EXPECT_FALSE(h.in_l1d(0, 0))
      << "inclusive LLC eviction must invalidate the private copy "
         "(the cross-core Prime+Probe mechanism)";
}

TEST(Hierarchy, FlushCorePrivateLeavesLlc) {
  sim::CacheHierarchy h(two_core_config());
  h.access(0, 0, 0x3000, sim::AccessType::kRead);
  h.flush_core_private(0);
  EXPECT_FALSE(h.in_l1d(0, 0x3000));
  EXPECT_TRUE(h.in_llc(0x3000));
}

TEST(Hierarchy, SharedOnlyExclusionBypassesLlcButNotL1) {
  sim::CacheHierarchy h(two_core_config());
  h.add_uncacheable(0x4000, sim::kPageSize, sim::CacheHierarchy::Exclusion::kSharedOnly);
  const auto first = h.access(0, 0, 0x4000, sim::AccessType::kRead);
  EXPECT_EQ(first.level, sim::ServiceLevel::kDram);
  EXPECT_TRUE(h.in_l1d(0, 0x4000));
  EXPECT_FALSE(h.in_llc(0x4000)) << "Sanctuary exclusion: never in shared cache";
  const auto second = h.access(0, 0, 0x4000, sim::AccessType::kRead);
  EXPECT_EQ(second.level, sim::ServiceLevel::kL1);
}

TEST(Hierarchy, AllLevelExclusionIsFullyUncached) {
  sim::CacheHierarchy h(two_core_config());
  h.add_uncacheable(0x5000, sim::kPageSize, sim::CacheHierarchy::Exclusion::kAllLevels);
  for (int i = 0; i < 3; ++i) {
    const auto r = h.access(0, 0, 0x5000, sim::AccessType::kRead);
    EXPECT_EQ(r.level, sim::ServiceLevel::kUncached);
  }
  EXPECT_FALSE(h.in_l1d(0, 0x5000));
}

TEST(Hierarchy, AddingExclusionDropsStaleCopies) {
  sim::CacheHierarchy h(two_core_config());
  h.access(0, 0, 0x6000, sim::AccessType::kRead);
  ASSERT_TRUE(h.in_llc(0x6000));
  h.add_uncacheable(0x6000, sim::kPageSize, sim::CacheHierarchy::Exclusion::kSharedOnly);
  EXPECT_FALSE(h.in_llc(0x6000));
}

TEST(Hierarchy, NoCacheProfileServesEverythingUncached) {
  sim::HierarchyConfig h = two_core_config();
  h.num_cores = 1;
  h.has_l1 = false;
  h.has_llc = false;
  h.dram_latency = 2;
  sim::CacheHierarchy hierarchy(h);
  const auto r = hierarchy.access(0, 0, 0x1000, sim::AccessType::kRead);
  EXPECT_EQ(r.level, sim::ServiceLevel::kUncached);
  EXPECT_EQ(r.latency, 2u);
}

TEST(Hierarchy, FlushDomainScrubsEverywhere) {
  sim::CacheHierarchy h(two_core_config());
  h.access(0, 9, 0x7000, sim::AccessType::kRead);
  h.access(1, 9, 0x7040, sim::AccessType::kRead);
  h.flush_domain(9);
  EXPECT_FALSE(h.in_l1d(0, 0x7000));
  EXPECT_FALSE(h.in_l1d(1, 0x7040));
  EXPECT_FALSE(h.in_llc(0x7000));
  EXPECT_FALSE(h.in_llc(0x7040));
}

// ---- differential: batched flush_lines vs per-address flush_line -----------
//
// Twin hierarchies run one seeded sequence of accesses, fetches, flushes,
// exclusion changes and snapshot restores; range flushes go through
// flush_lines on one twin and flush_line per address on the other. Every
// level must agree after each range flush, and after a restore every level
// must agree with the snapshot's copy of it.

struct HierarchyDiffCase {
  const char* name;
  sim::ReplacementPolicy llc_policy;
  std::uint32_t llc_ways;
  bool partitioned = false;
  std::uint64_t llc_scramble_key = 0;
};

sim::HierarchyConfig diff_config(const HierarchyDiffCase& c) {
  sim::HierarchyConfig h = two_core_config();
  h.l1d = {.name = "L1D", .size_bytes = 16 * 4 * 64, .ways = 4, .line_size = 64,
           .policy = sim::ReplacementPolicy::kLru, .hit_latency = 4};
  h.llc = {.name = "LLC", .size_bytes = 64 * c.llc_ways * 64, .ways = c.llc_ways,
           .line_size = 64, .policy = c.llc_policy, .hit_latency = 30};
  return h;
}

class HierarchyFlushDifferential : public ::testing::TestWithParam<HierarchyDiffCase> {};

::testing::AssertionResult same_hierarchy_state(sim::CacheHierarchy& a, sim::CacheHierarchy& b,
                                                const std::vector<sim::PhysAddr>& addrs) {
  for (sim::CoreId core = 0; core < 2; ++core) {
    for (const auto& [ca, cb] : {std::pair{&a.l1d(core), &b.l1d(core)},
                                 std::pair{&a.l1i(core), &b.l1i(core)}}) {
      auto r = sim::testing::same_cache_state(*ca, *cb, addrs, 3, true);
      if (!r) {
        return r;
      }
    }
  }
  return sim::testing::same_cache_state(a.llc(), b.llc(), addrs, 3, true);
}

::testing::AssertionResult matches_snapshot(sim::CacheHierarchy& h,
                                            const sim::CacheHierarchy::Snapshot& snap,
                                            const std::vector<sim::PhysAddr>& addrs) {
  for (sim::CoreId core = 0; core < 2; ++core) {
    auto r = sim::testing::same_cache_state(h.l1d(core), snap.l1d[core], addrs, 3, false);
    if (r) {
      r = sim::testing::same_cache_state(h.l1i(core), snap.l1i[core], addrs, 3, false);
    }
    if (!r) {
      return r;
    }
  }
  return sim::testing::same_cache_state(h.llc(), snap.llc.front(), addrs, 3, false);
}

TEST_P(HierarchyFlushDifferential, MatchesPerAddressFlushAndRestoresToSnapshot) {
  const HierarchyDiffCase& c = GetParam();
  constexpr sim::PhysAddr kRegion = 0x80000;
  const std::uint32_t pool = 64 * (c.llc_ways + 2);  // overfills the 64-set LLC.
  std::vector<sim::PhysAddr> addrs;
  for (std::uint32_t i = 0; i < pool; ++i) {
    addrs.push_back(kRegion + i * 64);
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(::testing::Message() << c.name << " seed " << seed);
    sim::HierarchyConfig config = diff_config(c);
    config.rng_seed = seed;
    sim::CacheHierarchy batched(config);
    sim::CacheHierarchy single(config);
    for (sim::CacheHierarchy* h : {&batched, &single}) {
      if (c.llc_scramble_key != 0) {
        h->llc().set_index_scramble(c.llc_scramble_key);
      }
      if (c.partitioned) {
        h->llc().set_way_partition(1, 0, 4);
      }
    }
    sim::Rng rng(seed);
    // Snapshot warm caches, so a restore must bring back lines that were
    // valid at the snapshot and dropped since without another touch.
    for (std::uint32_t i = 0; i < pool / 2; ++i) {
      const sim::PhysAddr a = kRegion + static_cast<sim::PhysAddr>(rng.below(pool)) * 64;
      const auto core = static_cast<sim::CoreId>(rng.below(2));
      const auto domain = static_cast<sim::DomainId>(rng.below(3));
      batched.access(core, domain, a, sim::AccessType::kRead);
      single.access(core, domain, a, sim::AccessType::kRead);
    }
    const sim::CacheHierarchy::Snapshot snap_batched = batched.snapshot();
    const sim::CacheHierarchy::Snapshot snap_single = single.snapshot();
    for (int op = 0; op < 1000; ++op) {
      const sim::PhysAddr addr = kRegion + static_cast<sim::PhysAddr>(rng.below(pool)) * 64 +
                                 static_cast<sim::PhysAddr>(rng.below(64));
      const auto core = static_cast<sim::CoreId>(rng.below(2));
      const auto domain = static_cast<sim::DomainId>(rng.below(3));
      const auto kind = rng.below(100);
      if (kind < 70) {
        const bool fetch = kind < 10;
        const auto type = rng.chance(0.3) ? sim::AccessType::kWrite : sim::AccessType::kRead;
        const auto ra = fetch ? batched.fetch(core, domain, addr)
                              : batched.access(core, domain, addr, type);
        const auto rb = fetch ? single.fetch(core, domain, addr)
                              : single.access(core, domain, addr, type);
        ASSERT_EQ(ra.level, rb.level) << "op " << op;
        ASSERT_EQ(ra.latency, rb.latency) << "op " << op;
      } else if (kind < 73) {
        batched.flush_line(addr);
        single.flush_line(addr);
      } else if (kind < 93) {
        static constexpr std::uint32_t kStrides[] = {64, 64, 64, 32, 192};
        const std::uint32_t stride = kStrides[rng.below(std::size(kStrides))];
        const std::uint32_t count =
            rng.chance(0.5) ? 1 + static_cast<std::uint32_t>(rng.below(64))
                            : 64 + static_cast<std::uint32_t>(rng.below(pool));
        batched.flush_lines(addr, stride, count);
        sim::PhysAddr a = addr;
        for (std::uint32_t i = 0; i < count; ++i, a += stride) {
          single.flush_line(a);
        }
        ASSERT_TRUE(same_hierarchy_state(batched, single, addrs))
            << "op " << op << " base 0x" << std::hex << addr << std::dec << " stride " << stride
            << " count " << count;
      } else if (kind < 95) {
        const auto scope = rng.chance(0.5) ? sim::CacheHierarchy::Exclusion::kSharedOnly
                                           : sim::CacheHierarchy::Exclusion::kAllLevels;
        batched.add_uncacheable(addr, 512, scope);
        single.add_uncacheable(addr, 512, scope);
      } else if (kind < 97) {
        batched.clear_uncacheable();
        single.clear_uncacheable();
      } else {
        batched.restore(snap_batched);
        single.restore(snap_single);
        ASSERT_TRUE(matches_snapshot(batched, snap_batched, addrs)) << "restore at op " << op;
        ASSERT_TRUE(matches_snapshot(single, snap_single, addrs)) << "restore at op " << op;
      }
    }
    EXPECT_TRUE(same_hierarchy_state(batched, single, addrs));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, HierarchyFlushDifferential,
    ::testing::Values(
        HierarchyDiffCase{.name = "Lru", .llc_policy = sim::ReplacementPolicy::kLru,
                          .llc_ways = 16},
        HierarchyDiffCase{.name = "PlruScrambledLlc",
                          .llc_policy = sim::ReplacementPolicy::kTreePlru, .llc_ways = 16,
                          .llc_scramble_key = 0xC0DE},
        HierarchyDiffCase{.name = "RandomPartitionedLlc",
                          .llc_policy = sim::ReplacementPolicy::kRandom, .llc_ways = 12,
                          .partitioned = true}),
    [](const ::testing::TestParamInfo<HierarchyDiffCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
