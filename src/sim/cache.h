// Set-associative cache model with the security controls that the surveyed
// architectures rely on.
//
// A single Cache object models one level (an L1D, L1I, or shared LLC).
// Composition into a hierarchy lives in sim/cache_hierarchy.h.
//
// Security-relevant features:
//  * every line is tagged with the DomainId that filled it (used by stats
//    and by flush_domain);
//  * way partitioning (DAWG / Sanctum-style strict partitioning): a domain
//    may be restricted to a contiguous range of ways, making Prime+Probe
//    across the partition impossible;
//  * line flush (CLFLUSH analogue) and whole-domain flush (used by
//    Sanctuary/Sanctum on enclave context switches);
//  * deterministic replacement (LRU / tree-PLRU) or seeded random
//    replacement, for the eviction-set reliability ablation.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "sim/types.h"

namespace hwsec::sim {

enum class ReplacementPolicy : std::uint8_t {
  kLru,
  kTreePlru,
  kRandom,
};

std::string to_string(ReplacementPolicy p);

struct CacheConfig {
  std::string name = "cache";
  std::uint32_t size_bytes = 32 * 1024;
  std::uint32_t ways = 8;
  std::uint32_t line_size = 64;
  ReplacementPolicy policy = ReplacementPolicy::kLru;
  Cycle hit_latency = 4;

  std::uint32_t num_sets() const { return size_bytes / (ways * line_size); }
};

/// Per-domain and aggregate counters. Hits/misses are counted against the
/// domain issuing the access; evictions against the domain that owned the
/// evicted line (the victim of the eviction, which is what a Prime+Probe
/// attacker cares about).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t flushes = 0;

  double hit_rate() const {
    const auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class Cache {
 public:
  explicit Cache(CacheConfig config, std::uint64_t rng_seed = 1);

  const CacheConfig& config() const { return config_; }

  /// Result of a lookup-with-fill.
  struct AccessResult {
    bool hit = false;
    /// Physical line base evicted to make room for the fill (miss only,
    /// and only if a valid line was displaced). Inclusive hierarchies use
    /// this for back-invalidation.
    std::optional<PhysAddr> evicted_line;
    /// Domain that owned the evicted line.
    DomainId evicted_domain = kDomainNormal;
  };

  /// Looks up `addr` on behalf of `domain`; on miss, fills the line,
  /// evicting per the replacement policy (restricted to the domain's way
  /// partition if one is configured).
  AccessResult access(PhysAddr addr, DomainId domain, AccessType type);

  /// Lookup without side effects: true if the line is present (any domain).
  bool probe(PhysAddr addr) const;

  /// Lookup without side effects restricted to a domain's own lines.
  bool probe_owned(PhysAddr addr, DomainId domain) const;

  /// Invalidates the line containing `addr` if present; returns whether a
  /// line was dropped.
  bool flush_line(PhysAddr addr);

  /// Invalidates the lines containing `base`, `base + stride`, ... (`count`
  /// addresses); returns the number of lines dropped. Same final state,
  /// stats and removal epoch as flush_line() per address. With stride ==
  /// line_size and an unscrambled index, the flushed lines are exactly the
  /// cached lines tagged in [line_base(base), line_base(base) + count *
  /// line_size), and those sit in at most min(count, num_sets) consecutive
  /// sets: the occupancy bitmap names the ones to visit, 64 sets per word,
  /// instead of one set-index computation per address. Other strides and
  /// scrambled indexes take the per-address loop.
  std::uint32_t flush_lines(PhysAddr base, std::uint32_t stride, std::uint32_t count);

  /// Invalidates every line owned by `domain`; returns the count dropped.
  std::uint32_t flush_domain(DomainId domain);

  /// Invalidates everything.
  void flush_all();

  /// Restricts `domain` to ways [first_way, first_way + num_ways). Lines
  /// the domain currently holds outside its partition are invalidated so
  /// a partition change cannot leak stale occupancy. Pass num_ways == 0 to
  /// remove the restriction.
  void set_way_partition(DomainId domain, std::uint32_t first_way, std::uint32_t num_ways);

  /// True if a way partition is configured for any domain.
  bool partitioned() const { return partitions_installed_ > 0; }

  /// Number of valid lines currently owned by `domain` in the set that
  /// `addr` maps to. Used by tests and by attack heuristics.
  std::uint32_t occupancy(PhysAddr addr, DomainId domain) const;

  /// Randomized address-to-set mapping (Wang & Lee [40] / CEASER-family):
  /// with a nonzero key, the set index is a keyed permutation of the line
  /// address. rekey() installs a fresh key and flushes (a remap epoch):
  /// any eviction sets an attacker learned become stale.
  void set_index_scramble(std::uint64_t key);
  void rekey(std::uint64_t new_key);
  std::uint64_t scramble_key() const { return scramble_key_; }

  std::uint32_t set_index(PhysAddr addr) const {
    // line_size and num_sets are powers of two (enforced at construction),
    // so the division/modulo reduce to shift/mask — set_index sits on the
    // hottest path in the simulator and the two hardware divides that used
    // to live here were measurable in whole-campaign profiles.
    const std::uint32_t line = addr >> line_shift_;
    if (scramble_key_ == 0) {
      return line & set_mask_;
    }
    // splitmix-style keyed diffusion; sets must only be balanced, not
    // cryptographically strong, for the modeled property.
    std::uint64_t x = line ^ scramble_key_;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 31;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 29;
    return static_cast<std::uint32_t>(x) & set_mask_;
  }
  PhysAddr line_base(PhysAddr addr) const { return addr & ~(config_.line_size - 1); }

  /// True when no line in the whole cache is valid. Lets the hierarchy's
  /// flush paths skip caches that never held anything (the common case for
  /// the non-active cores' private caches in single-core trials).
  bool empty() const { return valid_lines_ == 0; }

  /// Monotonic counter bumped whenever a *valid* line is dropped or
  /// displaced, or the hit predicate changes shape (way partitions,
  /// scramble rekey, whole-cache flushes, snapshot restores roll it back
  /// together with the line array). While the counter is unchanged, a line
  /// observed valid at (set, way) is still there with the same tag and the
  /// same domain visibility — the foundation of the CPU's fetch memo.
  std::uint64_t removal_epoch() const { return removal_epoch_; }

  /// Locates the way holding `addr`'s line as a hit by `domain` would find
  /// it (honoring the domain's way partition). Returns (set << 8) | way,
  /// or nullopt when access() would miss. Read-only.
  std::optional<std::uint32_t> find_way(PhysAddr addr, DomainId domain) const;

  /// Replays the side effects of a *hit* previously located by
  /// find_way(): LRU stamp, PLRU touch, hit counters, touch journal —
  /// bit-identical to the hit path of access() for a read. Callers must
  /// ensure removal_epoch() is unchanged since the line was located.
  void repeat_hit(std::uint32_t set, std::uint32_t way, DomainId domain) {
    mark_touched(set, way);
    line_at(set, way).lru_stamp = ++clock_;
    if (config_.policy == ReplacementPolicy::kTreePlru) {
      touch_plru(set, way);  // mirrors the hit path of access() exactly.
    }
    ++stats_.hits;
    ++domain_slot(domain).hits;
  }

  const CacheStats& stats() const { return stats_; }
  const CacheStats& domain_stats(DomainId domain) const;
  void reset_stats();

  /// Arms the touched-set journal (the cache-array analogue of the
  /// dirty-page bitmap in PhysicalMemory): from here on, every mutation
  /// records which set it touched, so a later restore_from() copies back
  /// only those sets instead of the whole line array. Whole-cache
  /// operations (flush_all / flush_domain / partition or scramble changes)
  /// poison the journal and force a full copy on the next restore.
  void begin_set_tracking();

  /// Restores this cache to the state captured in `snap` (a copy of this
  /// cache taken right after begin_set_tracking()). Uses the touched-set
  /// fast path when the journal is clean, a full copy-assign otherwise;
  /// either way the journal is re-armed so the next trial starts fresh.
  void restore_from(const Cache& snap);

 private:
  /// Field order packs the line into 16 bytes (tag+owner+flags in one
  /// 8-byte word, stamp in the other): the line array is the simulator's
  /// hottest data structure and its footprint is what the host's caches
  /// have to absorb on every probe sweep.
  struct Line {
    PhysAddr tag_base = 0;  ///< line-aligned physical address.
    DomainId owner = kDomainNormal;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru_stamp = 0;
  };

  struct WayRange {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };

  WayRange ways_for(DomainId domain) const {
    if (partitions_installed_ != 0 && domain < partition_lut_.size() &&
        partition_lut_[domain].count != 0) {
      return partition_lut_[domain];
    }
    return {0, config_.ways};
  }
  std::uint32_t choose_victim(std::uint32_t set, WayRange range);
  Line& line_at(std::uint32_t set, std::uint32_t way) { return lines_[set * config_.ways + way]; }
  const Line& line_at(std::uint32_t set, std::uint32_t way) const {
    return lines_[set * config_.ways + way];
  }
  void touch_plru(std::uint32_t set, std::uint32_t way);
  std::uint32_t plru_victim(std::uint32_t set, WayRange range);

  /// Journals one line as touched since the last begin_set_tracking() /
  /// restore_from(). Granularity is the line, not the set: a trial that
  /// fills one way of hundreds of large sets (typical probe-array access
  /// patterns) then restores hundreds of lines, not hundreds of full way
  /// arrays. The epoch check makes repeat touches O(1) without clearing a
  /// bitmap per reset. PLRU bits only change alongside a line touch in the
  /// same set, so the line journal covers them too. Entries are packed
  /// (set << 5) | way (at most 32 ways), so restore_from reads the set
  /// without dividing by the way count. Forced inline: left to itself the
  /// compiler outlines everything past the tracking test, a call on every
  /// miss of a reload sweep.
  [[gnu::always_inline]] void mark_touched(std::uint32_t set, std::uint32_t way) {
    if (!tracking_) {
      return;
    }
    const std::uint32_t index = set * config_.ways + way;
    if (touched_epoch_[index] == epoch_) {
      return;
    }
    touched_epoch_[index] = epoch_;
    touched_lines_.push_back((set << 5) | way);
  }

  /// Drops, in one set, the lowest-way copy of every line tagged in
  /// [lo, hi): what flush_line() once per tag would drop. (A way partition
  /// can leave two copies of one line in a set; flush_line drops only the
  /// first.) Returns the number dropped.
  std::uint32_t drop_range_in_set(std::uint32_t set, std::uint64_t lo, std::uint64_t hi);

  /// Per-domain stats slot, growing the flat array on first sight of a
  /// domain. DomainIds are small dense integers, so a vector indexed by id
  /// replaces two unordered_map lookups per access on the hottest path in
  /// the simulator. Growth invalidates previously returned references —
  /// callers read counters immediately (and did under the map, too).
  CacheStats& domain_slot(DomainId domain) const {
    if (domain >= per_domain_.size()) {
      per_domain_.resize(static_cast<std::size_t>(domain) + 1);
    }
    return per_domain_[domain];
  }

  CacheConfig config_;
  std::uint32_t line_shift_ = 6;  ///< log2(line_size), for set_index.
  std::uint32_t set_mask_ = 0;    ///< num_sets - 1, for set_index.
  std::vector<Line> lines_;
  std::uint32_t valid_lines_ = 0;  ///< total valid lines, for empty().
  std::uint64_t removal_epoch_ = 0;
  /// Per-set bitmask of valid ways. Gives flush_line an O(1) miss and the
  /// victim chooser an O(1) invalid-way scan instead of walking the ways.
  std::vector<std::uint32_t> valid_ways_;
  /// One bit per set: set holds at least one valid line (bit set iff
  /// valid_ways_[set] != 0). Probe-array flush sweeps test this 2 KiB
  /// bitmap instead of loading scattered words of the (for an LLC, 64 KiB)
  /// valid_ways_ array — the sweep's working set then fits the host L1.
  std::vector<std::uint64_t> occupied_sets_;
  bool set_occupied(std::uint32_t set) const {
    return (occupied_sets_[set >> 6] >> (set & 63)) & 1u;
  }
  void mark_occupancy(std::uint32_t set) {
    if (valid_ways_[set] != 0) {
      occupied_sets_[set >> 6] |= std::uint64_t{1} << (set & 63);
    } else {
      occupied_sets_[set >> 6] &= ~(std::uint64_t{1} << (set & 63));
    }
  }
  std::vector<std::uint32_t> plru_bits_;  ///< one bitfield of tree bits per set.
  /// Way partitions as a flat table indexed by DomainId (domains are small
  /// dense integers). A slot with count == 0 — including every id beyond
  /// the table — means "unrestricted". Replaces a per-access
  /// unordered_map::find on the hottest path in the simulator.
  std::vector<WayRange> partition_lut_;
  std::uint32_t partitions_installed_ = 0;
  std::uint64_t clock_ = 0;  ///< LRU stamp source.
  std::uint64_t scramble_key_ = 0;
  Rng rng_;
  CacheStats stats_;
  mutable std::vector<CacheStats> per_domain_;  ///< indexed by DomainId.

  // Touched-line journal (see begin_set_tracking). epoch_ stamps entries
  // in touched_epoch_ so re-arming after a restore is a counter bump, not
  // an array-wide clear.
  bool tracking_ = false;
  bool coarse_dirty_ = false;  ///< a whole-cache mutation bypassed the journal.
  /// u8 on purpose: the stamp array is loaded on every access, and the
  /// narrow type quarters its footprint. Wrap-around is handled by the
  /// restore path (a full clear every 255 re-arms).
  std::uint8_t epoch_ = 0;
  std::vector<std::uint8_t> touched_epoch_;  ///< per line: epoch of last touch.
  std::vector<std::uint32_t> touched_lines_;  ///< (set << 5) | way touched this epoch.
};

// access() and flush_line() are defined inline: a single probe-array trial
// issues hundreds of each (the 256-line scan misses twice per line, the
// pre-scan flush sweeps every level), so the call overhead and the lost
// cross-call hoisting were measurable in whole-campaign profiles.

inline Cache::AccessResult Cache::access(PhysAddr addr, DomainId domain, AccessType type) {
  const PhysAddr base = line_base(addr);
  const std::uint32_t set = set_index(addr);
  const WayRange range = ways_for(domain);

  // Hit path: a domain restricted by a partition can only *hit* within its
  // partition — that is what makes the partition a side-channel defense and
  // not just a quota. Scanning the valid-way mask instead of the Line array
  // makes a miss in a sparse set (every probe-array scan after a flush) a
  // single word load; countr_zero preserves the ascending way order of the
  // linear scan it replaces.
  const std::uint32_t range_mask =
      (range.count >= 32 ? ~0u : ((1u << range.count) - 1u) << range.first);
  std::uint32_t mask = valid_ways_[set] & range_mask;
  while (mask != 0) {
    const std::uint32_t w = static_cast<std::uint32_t>(std::countr_zero(mask));
    mask &= mask - 1;
    Line& line = line_at(set, w);
    if (line.tag_base == base) {
      mark_touched(set, w);  // LRU stamp / dirty bit / PLRU update.
      line.lru_stamp = ++clock_;
      if (type == AccessType::kWrite) {
        line.dirty = true;
      }
      if (config_.policy == ReplacementPolicy::kTreePlru) {
        touch_plru(set, w);  // the tree bits are dead state under LRU/random.
      }
      ++stats_.hits;
      ++domain_slot(domain).hits;
      return {.hit = true, .evicted_line = std::nullopt, .evicted_domain = kDomainNormal};
    }
  }

  // Miss: choose a victim within the domain's ways and fill. The invalid-way
  // case (every fill into a set that is not yet full — all of a probe-array
  // sweep after its flush) stays inline; only a genuinely full set pays the
  // policy walk in choose_victim.
  ++stats_.misses;
  ++domain_slot(domain).misses;
  const std::uint32_t invalid_ways = ~valid_ways_[set] & range_mask;
  const std::uint32_t victim_way =
      invalid_ways != 0 ? static_cast<std::uint32_t>(std::countr_zero(invalid_ways))
                        : choose_victim(set, range);
  mark_touched(set, victim_way);  // fill overwrites the victim line.
  Line& victim = line_at(set, victim_way);
  AccessResult result;
  if (victim.valid) {
    result.evicted_line = victim.tag_base;
    result.evicted_domain = victim.owner;
    ++stats_.evictions;
    ++domain_slot(victim.owner).evictions;
    ++removal_epoch_;  // a valid line was displaced.
  } else {
    ++valid_lines_;
    valid_ways_[set] |= 1u << victim_way;
    mark_occupancy(set);
  }
  victim.valid = true;
  victim.tag_base = base;
  victim.owner = domain;
  victim.dirty = (type == AccessType::kWrite);
  victim.lru_stamp = ++clock_;
  if (config_.policy == ReplacementPolicy::kTreePlru) {
    touch_plru(set, victim_way);
  }
  return result;
}

inline bool Cache::flush_line(PhysAddr addr) {
  const std::uint32_t set = set_index(addr);
  // Probe-array sweeps flush hundreds of mostly-absent lines per trial; the
  // occupancy bitmap answers those misses from ~2 KiB of state instead of
  // scattered loads across the full per-set way-mask array.
  if (!set_occupied(set)) {
    return false;  // no valid line in the set, so certainly not this one.
  }
  std::uint32_t mask = valid_ways_[set];
  const PhysAddr base = line_base(addr);
  do {
    const std::uint32_t w = static_cast<std::uint32_t>(std::countr_zero(mask));
    mask &= mask - 1;
    Line& line = line_at(set, w);
    if (line.tag_base == base) {
      mark_touched(set, w);
      line.valid = false;
      valid_ways_[set] &= ~(1u << w);
      mark_occupancy(set);
      --valid_lines_;
      ++removal_epoch_;
      ++stats_.flushes;
      return true;
    }
  } while (mask != 0);
  return false;
}

}  // namespace hwsec::sim
