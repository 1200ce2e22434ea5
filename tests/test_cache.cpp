// Single-level cache model: hit/miss/eviction mechanics, replacement
// policies, domain tagging, flushes and way partitioning.
#include <gtest/gtest.h>

#include <vector>

#include "cache_state.h"
#include "sim/cache.h"
#include "sim/rng.h"

namespace sim = hwsec::sim;

namespace {

sim::CacheConfig small_cache(sim::ReplacementPolicy policy = sim::ReplacementPolicy::kLru) {
  return {.name = "t", .size_bytes = 4096, .ways = 4, .line_size = 64, .policy = policy,
          .hit_latency = 4};  // 16 sets.
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(sim::Cache({.size_bytes = 100, .ways = 3, .line_size = 64}), std::invalid_argument);
  EXPECT_THROW(sim::Cache({.size_bytes = 4096, .ways = 4, .line_size = 48}),
               std::invalid_argument);
}

TEST(Cache, MissThenHit) {
  sim::Cache cache(small_cache());
  EXPECT_FALSE(cache.access(0x1000, 0, sim::AccessType::kRead).hit);
  EXPECT_TRUE(cache.access(0x1000, 0, sim::AccessType::kRead).hit);
  EXPECT_TRUE(cache.access(0x103C, 0, sim::AccessType::kRead).hit) << "same line";
  EXPECT_FALSE(cache.access(0x1040, 0, sim::AccessType::kRead).hit) << "next line";
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(Cache, LruEvictsOldest) {
  sim::Cache cache(small_cache());
  // Set 0 lines: addresses with (addr/64)%16 == 0, i.e. stride 1024.
  const sim::PhysAddr stride = 64 * 16;
  for (sim::PhysAddr i = 0; i < 4; ++i) {
    cache.access(i * stride, 0, sim::AccessType::kRead);
  }
  cache.access(0, 0, sim::AccessType::kRead);  // refresh line 0.
  const auto r = cache.access(4 * stride, 0, sim::AccessType::kRead);
  ASSERT_TRUE(r.evicted_line.has_value());
  EXPECT_EQ(*r.evicted_line, stride) << "line 1 was least recently used";
  EXPECT_TRUE(cache.probe(0));
  EXPECT_FALSE(cache.probe(stride));
}

TEST(Cache, EvictionReportsVictimDomain) {
  sim::Cache cache(small_cache());
  const sim::PhysAddr stride = 64 * 16;
  for (sim::PhysAddr i = 0; i < 4; ++i) {
    cache.access(i * stride, /*domain=*/7, sim::AccessType::kRead);
  }
  const auto r = cache.access(4 * stride, /*domain=*/0, sim::AccessType::kRead);
  ASSERT_TRUE(r.evicted_line.has_value());
  EXPECT_EQ(r.evicted_domain, 7u);
  EXPECT_EQ(cache.domain_stats(7).evictions, 1u);
}

TEST(Cache, FlushLineAndDomainAndAll) {
  sim::Cache cache(small_cache());
  cache.access(0x1000, 3, sim::AccessType::kRead);
  cache.access(0x2000, 4, sim::AccessType::kRead);
  EXPECT_TRUE(cache.flush_line(0x1000));
  EXPECT_FALSE(cache.probe(0x1000));
  EXPECT_TRUE(cache.probe(0x2000));
  cache.access(0x3000, 4, sim::AccessType::kRead);
  EXPECT_EQ(cache.flush_domain(4), 2u);
  EXPECT_FALSE(cache.probe(0x2000));
  cache.access(0x2000, 4, sim::AccessType::kRead);
  cache.flush_all();
  EXPECT_FALSE(cache.probe(0x2000));
}

TEST(Cache, WayPartitionIsolatesOccupancy) {
  sim::Cache cache(small_cache());
  cache.set_way_partition(/*domain=*/1, 0, 2);  // enclave: ways 0-1.
  cache.set_way_partition(/*domain=*/0, 2, 2);  // OS: ways 2-3.
  const sim::PhysAddr stride = 64 * 16;

  // Enclave fills its two ways in set 0.
  cache.access(0 * stride, 1, sim::AccessType::kRead);
  cache.access(1 * stride, 1, sim::AccessType::kRead);
  // OS hammers the same set with many lines.
  for (sim::PhysAddr i = 2; i < 10; ++i) {
    cache.access(i * stride, 0, sim::AccessType::kRead);
  }
  // Enclave lines must have survived: the OS cannot evict across the
  // partition — the Prime+Probe defense property.
  EXPECT_TRUE(cache.probe_owned(0, 1));
  EXPECT_TRUE(cache.probe_owned(stride, 1));
  EXPECT_EQ(cache.occupancy(0, 1), 2u);
}

TEST(Cache, PartitionedDomainCannotHitForeignWays) {
  sim::Cache cache(small_cache());
  cache.set_way_partition(0, 2, 2);  // OS: ways 2-3.
  cache.set_way_partition(1, 0, 2);  // enclave: ways 0-1.
  cache.access(0x1000, 0, sim::AccessType::kRead);  // lands in ways 2-3.
  EXPECT_EQ(cache.occupancy(0x1000, 0), 1u);
  // The enclave looks up the same physical line: it sits outside the
  // enclave's ways, so the lookup must miss (no cross-partition hits).
  const auto before = cache.domain_stats(1).misses;
  cache.access(0x1000, 1, sim::AccessType::kRead);
  EXPECT_EQ(cache.domain_stats(1).misses, before + 1);
}

TEST(Cache, PartitionChangeDropsOutOfPartitionLines) {
  sim::Cache cache(small_cache());
  for (sim::PhysAddr i = 0; i < 4; ++i) {
    cache.access(i * 64 * 16, 5, sim::AccessType::kRead);  // fills ways 0-3.
  }
  cache.set_way_partition(5, 0, 1);
  EXPECT_LE(cache.occupancy(0, 5), 1u) << "stale occupancy outside the partition must be scrubbed";
}

TEST(Cache, RandomReplacementIsSeedDeterministic) {
  sim::Cache a(small_cache(sim::ReplacementPolicy::kRandom), 42);
  sim::Cache b(small_cache(sim::ReplacementPolicy::kRandom), 42);
  const sim::PhysAddr stride = 64 * 16;
  for (sim::PhysAddr i = 0; i < 32; ++i) {
    const auto ra = a.access(i * stride, 0, sim::AccessType::kRead);
    const auto rb = b.access(i * stride, 0, sim::AccessType::kRead);
    EXPECT_EQ(ra.evicted_line.has_value(), rb.evicted_line.has_value());
    if (ra.evicted_line && rb.evicted_line) {
      EXPECT_EQ(*ra.evicted_line, *rb.evicted_line);
    }
  }
}

class ReplacementPolicyTest : public ::testing::TestWithParam<sim::ReplacementPolicy> {};

TEST_P(ReplacementPolicyTest, WorkingSetWithinAssociativityAlwaysHits) {
  sim::Cache cache(small_cache(GetParam()));
  const sim::PhysAddr stride = 64 * 16;
  for (int round = 0; round < 3; ++round) {
    for (sim::PhysAddr i = 0; i < 4; ++i) {
      cache.access(i * stride, 0, sim::AccessType::kRead);
    }
  }
  // After the first round everything fits: rounds 2-3 are 8 hits.
  EXPECT_EQ(cache.stats().hits, 8u);
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST_P(ReplacementPolicyTest, OverfilledSetEvicts) {
  sim::Cache cache(small_cache(GetParam()));
  const sim::PhysAddr stride = 64 * 16;
  for (sim::PhysAddr i = 0; i < 8; ++i) {
    cache.access(i * stride, 0, sim::AccessType::kRead);
  }
  EXPECT_EQ(cache.stats().evictions, 4u);
  std::uint32_t present = 0;
  for (sim::PhysAddr i = 0; i < 8; ++i) {
    present += cache.probe(i * stride) ? 1 : 0;
  }
  EXPECT_EQ(present, 4u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReplacementPolicyTest,
                         ::testing::Values(sim::ReplacementPolicy::kLru,
                                           sim::ReplacementPolicy::kTreePlru,
                                           sim::ReplacementPolicy::kRandom));

// ---- differential: batched flush_lines vs per-address flush_line -----------
//
// Twin caches run one seeded operation sequence; wherever the sequence
// flushes a range, one twin calls flush_lines and the other flush_line per
// address. Their observable state must agree after every range flush, and
// a restore_from() of the armed snapshot must agree with a fresh copy of
// that snapshot, down to the replacement choices that follow.

struct FlushDiffCase {
  const char* name;
  sim::CacheConfig config;
  bool partitioned = false;
  std::uint64_t scramble_key = 0;
};

sim::CacheConfig diff_config(std::uint32_t sets, std::uint32_t ways, sim::ReplacementPolicy policy) {
  return {.name = "diff", .size_bytes = sets * ways * 64, .ways = ways, .line_size = 64,
          .policy = policy, .hit_latency = 4};
}

std::vector<FlushDiffCase> flush_diff_cases() {
  using P = sim::ReplacementPolicy;
  return {
      {.name = "Lru4", .config = diff_config(128, 4, P::kLru)},
      {.name = "Plru12", .config = diff_config(32, 12, P::kTreePlru)},
      {.name = "Random16", .config = diff_config(16, 16, P::kRandom)},
      {.name = "Lru8Partitioned", .config = diff_config(64, 8, P::kLru), .partitioned = true},
      {.name = "Plru16Partitioned", .config = diff_config(16, 16, P::kTreePlru),
       .partitioned = true},
      {.name = "Lru4Scrambled", .config = diff_config(64, 4, P::kLru), .scramble_key = 0x5eedf00d},
  };
}

class FlushLinesDifferential : public ::testing::TestWithParam<FlushDiffCase> {};

/// Flushes [base, base + count * stride) address by address, the reference
/// flush_lines must match; returns the lines dropped.
std::uint32_t flush_each(sim::Cache& cache, sim::PhysAddr base, std::uint32_t stride,
                         std::uint32_t count) {
  std::uint32_t dropped = 0;
  for (std::uint32_t i = 0; i < count; ++i, base += stride) {
    dropped += cache.flush_line(base) ? 1 : 0;
  }
  return dropped;
}

::testing::AssertionResult same_access(const sim::Cache::AccessResult& a,
                                       const sim::Cache::AccessResult& b) {
  if (a.hit != b.hit || a.evicted_line != b.evicted_line || a.evicted_domain != b.evicted_domain) {
    return ::testing::AssertionFailure() << "access results differ (hit " << a.hit << "/" << b.hit
                                         << ")";
  }
  return ::testing::AssertionSuccess();
}

TEST_P(FlushLinesDifferential, MatchesPerAddressFlushAndRestoresToSnapshot) {
  const FlushDiffCase& c = GetParam();
  const std::uint32_t line = c.config.line_size;
  const std::uint32_t sets = c.config.num_sets();
  const std::uint32_t ways = c.config.ways;
  constexpr sim::DomainId kDomains = 3;
  constexpr sim::PhysAddr kRegion = 0x40000;
  // Enough lines to overfill every set, so fills evict.
  const std::uint32_t pool = sets * (ways + 2);
  std::vector<sim::PhysAddr> addrs;
  for (std::uint32_t i = 0; i < pool; ++i) {
    addrs.push_back(kRegion + i * line);
  }
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(::testing::Message() << c.name << " seed " << seed);
    sim::Cache batched(c.config, seed);
    sim::Cache single(c.config, seed);
    sim::Rng rng(seed);
    for (sim::Cache* cache : {&batched, &single}) {
      if (c.scramble_key != 0) {
        cache->set_index_scramble(c.scramble_key);
      }
      if (c.partitioned) {
        // Domain 0 stays unrestricted, so it can hold a copy of a line a
        // partitioned domain fills again: two copies in one set.
        cache->set_way_partition(1, 0, 2);
        cache->set_way_partition(2, 2, ways / 2);
      }
    }
    // Snapshot a warm cache, so a restore must bring back lines that were
    // valid at the snapshot and dropped since without another touch.
    for (std::uint32_t i = 0; i < pool / 2; ++i) {
      const sim::PhysAddr a = kRegion + static_cast<sim::PhysAddr>(rng.below(pool)) * line;
      const auto domain = static_cast<sim::DomainId>(rng.below(kDomains));
      batched.access(a, domain, sim::AccessType::kRead);
      single.access(a, domain, sim::AccessType::kRead);
    }
    batched.begin_set_tracking();
    single.begin_set_tracking();
    const sim::Cache snap = batched;
    for (int op = 0; op < 1200; ++op) {
      const sim::PhysAddr addr =
          kRegion + static_cast<sim::PhysAddr>(rng.below(pool)) * line +
          static_cast<sim::PhysAddr>(rng.below(line));
      const auto kind = rng.below(100);
      if (kind < 70) {
        const auto domain = static_cast<sim::DomainId>(rng.below(kDomains));
        const auto type = rng.chance(0.3) ? sim::AccessType::kWrite : sim::AccessType::kRead;
        ASSERT_TRUE(same_access(batched.access(addr, domain, type),
                                single.access(addr, domain, type)))
            << "op " << op;
      } else if (kind < 75) {
        ASSERT_EQ(batched.flush_line(addr), single.flush_line(addr)) << "op " << op;
      } else if (kind < 95) {
        static constexpr std::uint32_t kStrides[] = {64, 64, 64, 32, 128, 4096};
        const std::uint32_t stride = kStrides[rng.below(std::size(kStrides))];
        std::uint32_t count = 0;
        switch (rng.below(4)) {
          case 0: count = 1 + static_cast<std::uint32_t>(rng.below(sets)); break;
          case 1: count = sets + static_cast<std::uint32_t>(rng.below(2 * sets)); break;
          case 2: count = static_cast<std::uint32_t>(rng.below(3)); break;
          default: count = pool; break;
        }
        const std::uint32_t dropped = batched.flush_lines(addr, stride, count);
        ASSERT_EQ(dropped, flush_each(single, addr, stride, count))
            << "op " << op << " base 0x" << std::hex << addr << std::dec << " stride " << stride
            << " count " << count;
        ASSERT_TRUE(sim::testing::same_cache_state(batched, single, addrs, kDomains, true))
            << "op " << op << " base 0x" << std::hex << addr << std::dec << " stride " << stride
            << " count " << count;
      } else if (kind < 96) {
        // A whole-cache mutation: the next restore takes the full-copy path.
        const auto domain = static_cast<sim::DomainId>(rng.below(kDomains));
        ASSERT_EQ(batched.flush_domain(domain), single.flush_domain(domain));
      } else {
        batched.restore_from(snap);
        single.restore_from(snap);
        sim::Cache fresh = snap;
        ASSERT_TRUE(sim::testing::same_cache_state(batched, fresh, addrs, kDomains, false))
            << "restore at op " << op;
        ASSERT_TRUE(sim::testing::same_cache_state(single, fresh, addrs, kDomains, false))
            << "restore at op " << op;
        // Replacement state (LRU stamps, PLRU bits, the random stream)
        // shows in the victims of the next fills.
        for (int i = 0; i < 4 * static_cast<int>(ways); ++i) {
          const sim::PhysAddr a = kRegion + static_cast<sim::PhysAddr>(rng.below(pool)) * line;
          const auto domain = static_cast<sim::DomainId>(rng.below(kDomains));
          const auto expected = fresh.access(a, domain, sim::AccessType::kRead);
          ASSERT_TRUE(same_access(batched.access(a, domain, sim::AccessType::kRead), expected))
              << "replay " << i << " after restore at op " << op;
          ASSERT_TRUE(same_access(single.access(a, domain, sim::AccessType::kRead), expected))
              << "replay " << i << " after restore at op " << op;
        }
      }
    }
    EXPECT_TRUE(sim::testing::same_cache_state(batched, single, addrs, kDomains, true));
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, FlushLinesDifferential, ::testing::ValuesIn(flush_diff_cases()),
                         [](const ::testing::TestParamInfo<FlushDiffCase>& info) {
                           return std::string(info.param.name);
                         });

TEST(Cache, FlushLinesDropsRangeAcrossSetWrap) {
  // 16 sets: a 20-line range from line 10 wraps from set 15 to set 0, and
  // must drop exactly its own lines.
  sim::Cache cache(small_cache());
  for (sim::PhysAddr i = 0; i < 48; ++i) {
    cache.access(i * 64, 0, sim::AccessType::kRead);
  }
  EXPECT_EQ(cache.flush_lines(10 * 64 + 5, 64, 20), 20u);
  for (sim::PhysAddr i = 0; i < 48; ++i) {
    EXPECT_EQ(cache.probe(i * 64), i < 10 || i >= 30) << "line " << i;
  }
  EXPECT_EQ(cache.stats().flushes, 20u);
}

}  // namespace
