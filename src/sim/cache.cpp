#include "sim/cache.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace hwsec::sim {

std::string to_string(ReplacementPolicy p) {
  switch (p) {
    case ReplacementPolicy::kLru: return "LRU";
    case ReplacementPolicy::kTreePlru: return "tree-PLRU";
    case ReplacementPolicy::kRandom: return "random";
  }
  return "?";
}

namespace {

bool is_pow2(std::uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

std::uint32_t log2_pow2(std::uint32_t v) {
  std::uint32_t shift = 0;
  while ((1u << shift) < v) {
    ++shift;
  }
  return shift;
}

}  // namespace

Cache::Cache(CacheConfig config, std::uint64_t rng_seed)
    : config_(std::move(config)), rng_(rng_seed) {
  if (!is_pow2(config_.line_size)) {
    throw std::invalid_argument("cache line size must be a power of two");
  }
  if (config_.ways == 0 || config_.size_bytes % (config_.ways * config_.line_size) != 0) {
    throw std::invalid_argument("cache size must be a multiple of ways*line_size");
  }
  if (!is_pow2(config_.num_sets())) {
    throw std::invalid_argument("number of cache sets must be a power of two");
  }
  if (config_.ways > 32) {
    throw std::invalid_argument("at most 32 ways supported (valid-way bitmask)");
  }
  line_shift_ = log2_pow2(config_.line_size);
  set_mask_ = config_.num_sets() - 1;
  lines_.assign(static_cast<std::size_t>(config_.num_sets()) * config_.ways, Line{});
  valid_ways_.assign(config_.num_sets(), 0);
  occupied_sets_.assign((config_.num_sets() + 63) / 64, 0);
  plru_bits_.assign(config_.num_sets(), 0);
}

bool Cache::probe(PhysAddr addr) const {
  const PhysAddr base = addr & ~(config_.line_size - 1);
  const std::uint32_t set = set_index(addr);
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    const Line& line = line_at(set, w);
    if (line.valid && line.tag_base == base) {
      return true;
    }
  }
  return false;
}

bool Cache::probe_owned(PhysAddr addr, DomainId domain) const {
  const PhysAddr base = addr & ~(config_.line_size - 1);
  const std::uint32_t set = set_index(addr);
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    const Line& line = line_at(set, w);
    if (line.valid && line.tag_base == base && line.owner == domain) {
      return true;
    }
  }
  return false;
}

std::uint32_t Cache::flush_lines(PhysAddr base, std::uint32_t stride, std::uint32_t count) {
  if (empty()) {
    return 0;
  }
  const std::uint64_t lo = line_base(base);
  const std::uint64_t hi = lo + (std::uint64_t{count} << line_shift_);
  std::uint32_t dropped = 0;
  if (stride != config_.line_size || scramble_key_ != 0 || hi > (std::uint64_t{1} << 32)) {
    // A scrambled index scatters the lines over arbitrary sets, and a range
    // that wraps the address space revisits addresses: flush one by one.
    PhysAddr a = base;
    for (std::uint32_t i = 0; i < count; ++i, a += stride) {
      dropped += flush_line(a) ? 1 : 0;
    }
    return dropped;
  }
  // Occupied sets among [from, to), read 64 at a time from the bitmap.
  const auto sweep = [&](std::uint32_t from, std::uint32_t to) {
    for (std::uint32_t word = from >> 6; (word << 6) < to; ++word) {
      std::uint64_t bits = occupied_sets_[word];
      if ((word << 6) < from) {
        bits &= ~std::uint64_t{0} << (from & 63);
      }
      if (to - (word << 6) < 64) {
        bits &= (std::uint64_t{1} << (to & 63)) - 1;
      }
      while (bits != 0) {
        const std::uint32_t set = (word << 6) | static_cast<std::uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        dropped += drop_range_in_set(set, lo, hi);
      }
    }
  };
  // The range's lines occupy consecutive sets from its first line's set,
  // wrapping past the last set at most once.
  const std::uint32_t num_sets = set_mask_ + 1;
  const std::uint32_t first = set_index(base);
  const std::uint32_t end = first + std::min(count, num_sets);
  sweep(first, std::min(end, num_sets));
  if (end > num_sets) {
    sweep(0, end - num_sets);
  }
  return dropped;
}

std::uint32_t Cache::drop_range_in_set(std::uint32_t set, std::uint64_t lo, std::uint64_t hi) {
  const std::uint32_t valid = valid_ways_[set];
  std::uint32_t dropped = 0;  // ways dropped, as a mask.
  const auto dropped_copy_of = [&](PhysAddr tag) {
    for (std::uint32_t m = dropped; m != 0; m &= m - 1) {
      if (line_at(set, static_cast<std::uint32_t>(std::countr_zero(m))).tag_base == tag) {
        return true;
      }
    }
    return false;
  };
  for (std::uint32_t mask = valid; mask != 0; mask &= mask - 1) {
    const std::uint32_t w = static_cast<std::uint32_t>(std::countr_zero(mask));
    Line& line = line_at(set, w);
    if (line.tag_base < lo || line.tag_base >= hi || dropped_copy_of(line.tag_base)) {
      continue;
    }
    mark_touched(set, w);
    line.valid = false;
    dropped |= 1u << w;
  }
  if (dropped == 0) {
    return 0;
  }
  // The per-line bookkeeping of flush_line, once per set.
  const auto n = static_cast<std::uint32_t>(std::popcount(dropped));
  valid_ways_[set] = valid & ~dropped;
  mark_occupancy(set);
  valid_lines_ -= n;
  removal_epoch_ += n;
  stats_.flushes += n;
  return n;
}

std::uint32_t Cache::flush_domain(DomainId domain) {
  coarse_dirty_ = true;  // touches arbitrary sets; journal can't cover it.
  ++removal_epoch_;
  std::uint32_t dropped = 0;
  for (std::uint32_t set = 0; set <= set_mask_; ++set) {
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
      Line& line = line_at(set, w);
      if (line.valid && line.owner == domain) {
        line.valid = false;
        valid_ways_[set] &= ~(1u << w);
        mark_occupancy(set);
        --valid_lines_;
        ++dropped;
      }
    }
  }
  stats_.flushes += dropped;
  return dropped;
}

void Cache::flush_all() {
  coarse_dirty_ = true;
  ++removal_epoch_;
  for (Line& line : lines_) {
    line.valid = false;
  }
  std::fill(valid_ways_.begin(), valid_ways_.end(), 0u);
  std::fill(occupied_sets_.begin(), occupied_sets_.end(), std::uint64_t{0});
  valid_lines_ = 0;
  ++stats_.flushes;
}

void Cache::set_way_partition(DomainId domain, std::uint32_t first_way, std::uint32_t num_ways) {
  coarse_dirty_ = true;  // partition table + line sweep across all sets.
  ++removal_epoch_;      // the hit predicate (ways_for) changes shape.
  if (num_ways == 0) {
    if (domain < partition_lut_.size() && partition_lut_[domain].count != 0) {
      partition_lut_[domain] = {};
      --partitions_installed_;
    }
    return;
  }
  if (first_way + num_ways > config_.ways) {
    throw std::invalid_argument("way partition out of range");
  }
  if (domain >= partition_lut_.size()) {
    partition_lut_.resize(static_cast<std::size_t>(domain) + 1);
  }
  if (partition_lut_[domain].count == 0) {
    ++partitions_installed_;
  }
  partition_lut_[domain] = {first_way, num_ways};
  // Drop lines the domain holds outside its new partition: stale occupancy
  // in foreign ways would leak the domain's pre-partition footprint.
  for (std::uint32_t set = 0; set < config_.num_sets(); ++set) {
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
      if (w >= first_way && w < first_way + num_ways) {
        continue;
      }
      Line& line = line_at(set, w);
      if (line.valid && line.owner == domain) {
        line.valid = false;
        valid_ways_[set] &= ~(1u << w);
        mark_occupancy(set);
        --valid_lines_;
      }
    }
  }
}

std::optional<std::uint32_t> Cache::find_way(PhysAddr addr, DomainId domain) const {
  const PhysAddr base = line_base(addr);
  const std::uint32_t set = set_index(addr);
  const WayRange range = ways_for(domain);
  for (std::uint32_t w = range.first; w < range.first + range.count; ++w) {
    const Line& line = line_at(set, w);
    if (line.valid && line.tag_base == base) {
      return (set << 8) | w;
    }
  }
  return std::nullopt;
}

void Cache::set_index_scramble(std::uint64_t key) {
  scramble_key_ = key;
  flush_all();  // old placements are meaningless under the new mapping.
}

void Cache::rekey(std::uint64_t new_key) { set_index_scramble(new_key); }

std::uint32_t Cache::occupancy(PhysAddr addr, DomainId domain) const {
  const std::uint32_t set = set_index(addr);
  std::uint32_t count = 0;
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    const Line& line = line_at(set, w);
    if (line.valid && line.owner == domain) {
      ++count;
    }
  }
  return count;
}

const CacheStats& Cache::domain_stats(DomainId domain) const {
  return domain_slot(domain);  // zero-filled slot for unseen domains.
}

void Cache::reset_stats() {
  stats_ = {};
  per_domain_.clear();
}

void Cache::begin_set_tracking() {
  tracking_ = true;
  coarse_dirty_ = false;
  touched_lines_.clear();
  touched_epoch_.assign(lines_.size(), 0);
  epoch_ = 1;
}

void Cache::restore_from(const Cache& snap) {
  // removal_epoch_ stays monotonic across restores (never rolled back to
  // the snapshot's value): any fetch memo armed against pre-restore state
  // must observe a change, whichever restore path runs.
  const std::uint64_t epoch_after = removal_epoch_ + 1;
  if (!tracking_ || coarse_dirty_ || lines_.size() != snap.lines_.size()) {
    // `snap` was copied right after begin_set_tracking() on this cache, so
    // a full copy-assign also restores a clean, armed journal.
    *this = snap;
    removal_epoch_ = epoch_after;
    return;
  }
  for (const std::uint32_t entry : touched_lines_) {
    const std::uint32_t set = entry >> 5;
    const std::uint32_t way = entry & 31;
    const std::uint32_t index = set * config_.ways + way;
    Line& cur = lines_[index];
    const Line& old = snap.lines_[index];
    if (cur.valid != old.valid) {
      const std::uint32_t bit = 1u << way;
      if (old.valid) {
        valid_ways_[set] |= bit;
        ++valid_lines_;
      } else {
        valid_ways_[set] &= ~bit;
        --valid_lines_;
      }
      mark_occupancy(set);
    }
    cur = old;
    if (config_.policy == ReplacementPolicy::kTreePlru) {
      plru_bits_[set] = snap.plru_bits_[set];  // dead state under LRU/random.
    }
  }
  removal_epoch_ = epoch_after;
  // Scalar and small per-domain state is cheap enough to restore always.
  partition_lut_ = snap.partition_lut_;
  partitions_installed_ = snap.partitions_installed_;
  clock_ = snap.clock_;
  scramble_key_ = snap.scramble_key_;
  rng_ = snap.rng_;
  stats_ = snap.stats_;
  per_domain_ = snap.per_domain_;
  // Re-arm the journal: an epoch bump invalidates all touched_epoch_
  // stamps without an array-wide clear.
  touched_lines_.clear();
  if (++epoch_ == 0) {
    std::fill(touched_epoch_.begin(), touched_epoch_.end(), 0u);
    epoch_ = 1;
  }
}

std::uint32_t Cache::choose_victim(std::uint32_t set, WayRange range) {
  assert(range.count > 0);
  // Invalid line first (lowest way index, as the linear scan used to pick),
  // regardless of policy. One bit-scan instead of walking the Line array.
  const std::uint32_t range_mask =
      (range.count >= 32 ? ~0u : ((1u << range.count) - 1u) << range.first);
  const std::uint32_t invalid = ~valid_ways_[set] & range_mask;
  if (invalid != 0) {
    return static_cast<std::uint32_t>(std::countr_zero(invalid));
  }
  switch (config_.policy) {
    case ReplacementPolicy::kLru: {
      std::uint32_t victim = range.first;
      std::uint64_t oldest = line_at(set, range.first).lru_stamp;
      for (std::uint32_t w = range.first + 1; w < range.first + range.count; ++w) {
        if (line_at(set, w).lru_stamp < oldest) {
          oldest = line_at(set, w).lru_stamp;
          victim = w;
        }
      }
      return victim;
    }
    case ReplacementPolicy::kTreePlru:
      return plru_victim(set, range);
    case ReplacementPolicy::kRandom:
      return range.first + static_cast<std::uint32_t>(rng_.below(range.count));
  }
  return range.first;
}

// Tree-PLRU over the full way array; when a partition restricts the
// candidate range we walk the tree but clamp the final leaf into range
// (real partitioned PLRU designs maintain sub-trees; clamping preserves
// the "approximately least recent" behaviour that matters for eviction-set
// experiments without modeling vendor-specific sub-tree layouts).
void Cache::touch_plru(std::uint32_t set, std::uint32_t way) {
  std::uint32_t& bits = plru_bits_[set];
  std::uint32_t node = 0;
  std::uint32_t lo = 0;
  std::uint32_t hi = config_.ways;
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (way < mid) {
      bits |= (1u << node);  // point away from the touched half.
      node = 2 * node + 1;
      hi = mid;
    } else {
      bits &= ~(1u << node);
      node = 2 * node + 2;
      lo = mid;
    }
  }
}

std::uint32_t Cache::plru_victim(std::uint32_t set, WayRange range) {
  const std::uint32_t bits = plru_bits_[set];
  std::uint32_t node = 0;
  std::uint32_t lo = 0;
  std::uint32_t hi = config_.ways;
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (bits & (1u << node)) {
      node = 2 * node + 1;
      hi = mid;
    } else {
      node = 2 * node + 2;
      lo = mid;
    }
  }
  if (lo < range.first) {
    return range.first;
  }
  if (lo >= range.first + range.count) {
    return range.first + range.count - 1;
  }
  return lo;
}

}  // namespace hwsec::sim
