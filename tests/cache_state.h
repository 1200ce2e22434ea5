// Observable-state comparison of two caches, for the differential tests of
// the batched cache operations (tests/test_cache.cpp and
// tests/test_cache_hierarchy.cpp).
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "sim/cache.h"

namespace hwsec::sim::testing {

inline bool same_stats(const CacheStats& a, const CacheStats& b) {
  return a.hits == b.hits && a.misses == b.misses && a.evictions == b.evictions &&
         a.flushes == b.flushes;
}

/// Compares everything a caller can observe about `a` and `b` over the
/// line addresses `addrs` and the domains [0, domains): presence, owned
/// presence and per-domain set occupancy, aggregate and per-domain stats,
/// empty(), and (when `compare_removal_epoch`) removal_epoch().
inline ::testing::AssertionResult same_cache_state(const Cache& a, const Cache& b,
                                                   const std::vector<PhysAddr>& addrs,
                                                   DomainId domains,
                                                   bool compare_removal_epoch) {
  for (const PhysAddr addr : addrs) {
    if (a.probe(addr) != b.probe(addr)) {
      return ::testing::AssertionFailure()
             << a.config().name << ": probe(0x" << std::hex << addr << ") " << a.probe(addr)
             << " vs " << b.probe(addr);
    }
    for (DomainId d = 0; d < domains; ++d) {
      if (a.probe_owned(addr, d) != b.probe_owned(addr, d) ||
          a.occupancy(addr, d) != b.occupancy(addr, d)) {
        return ::testing::AssertionFailure()
               << a.config().name << ": domain " << int{d} << " at 0x" << std::hex << addr
               << std::dec << " owned " << a.probe_owned(addr, d) << "/" << b.probe_owned(addr, d)
               << " occupancy " << a.occupancy(addr, d) << "/" << b.occupancy(addr, d);
      }
    }
  }
  if (!same_stats(a.stats(), b.stats())) {
    return ::testing::AssertionFailure() << a.config().name << ": aggregate stats differ";
  }
  for (DomainId d = 0; d < domains; ++d) {
    if (!same_stats(a.domain_stats(d), b.domain_stats(d))) {
      return ::testing::AssertionFailure()
             << a.config().name << ": stats of domain " << int{d} << " differ";
    }
  }
  if (a.empty() != b.empty()) {
    return ::testing::AssertionFailure() << a.config().name << ": empty() differs";
  }
  if (compare_removal_epoch && a.removal_epoch() != b.removal_epoch()) {
    return ::testing::AssertionFailure()
           << a.config().name << ": removal_epoch " << a.removal_epoch() << " vs "
           << b.removal_epoch();
  }
  return ::testing::AssertionSuccess();
}

}  // namespace hwsec::sim::testing
