#include "core/machine_pool.h"

#include "core/obs/metrics.h"
#include "core/obs/trace.h"

namespace hwsec::core {

namespace {

// Pool counters, registered once. The contract the obs tests assert:
// pool_leases_served counts every acquire (pooled machines only),
// pool_machines_built counts constructions, pool_resets counts
// snapshot-restores — so leases == builds + resets, always.
const obs::Counter& pool_leases_counter() {
  static const obs::Counter c = obs::counter("pool_leases_served");
  return c;
}
const obs::Counter& pool_builds_counter() {
  static const obs::Counter c = obs::counter("pool_machines_built");
  return c;
}
const obs::Counter& pool_resets_counter() {
  static const obs::Counter c = obs::counter("pool_resets");
  return c;
}

}  // namespace

void MachineLease::release() {
  if (pool_ != nullptr && machine_ != nullptr) {
    pool_->release(slot_);
  }
  pool_ = nullptr;
  machine_ = nullptr;
  owned_.reset();
}

MachineLease MachinePool::acquire(const sim::MachineProfile& profile, std::uint64_t seed) {
  obs::Span acquire_span("pool_acquire");
  pool_leases_counter().add(1);
  std::unique_lock<std::mutex> lock(mutex_);
  ++leases_;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = *entries_[i];
    if (!e.in_use && e.profile_name == profile.name) {
      e.in_use = true;
      MachineLease lease;
      lease.pool_ = this;
      lease.slot_ = i;
      lease.machine_ = e.machine.get();
      // Reset + reseed outside the lock: the entry is marked in_use, so no
      // other thread can touch this machine (entries are never erased and
      // live behind unique_ptr, so the reference survives reallocation).
      sim::MachineSnapshot* pristine = e.pristine.get();
      lock.unlock();
      pool_resets_counter().add(1);
      static const obs::Histogram kResetNs = obs::histogram("pool_reset_us");
      obs::ScopedTimer reset_timer(kResetNs);
      obs::Span reset_span("pool_reset", static_cast<std::int64_t>(i), "slot");
      lease.machine_->reset_to(*pristine);
      lease.machine_->reseed(seed);
      return lease;
    }
  }
  lock.unlock();

  // No free machine of this profile: build one (outside the lock — the
  // construction is exactly the cost the pool exists to amortize, and
  // first-round builds should proceed in parallel).
  pool_builds_counter().add(1);
  auto entry = std::make_unique<Entry>();
  {
    static const obs::Histogram kBuildUs = obs::histogram("pool_build_us");
    obs::ScopedTimer build_timer(kBuildUs);
    obs::Span build_span("machine_build");
    entry->machine = std::make_unique<sim::Machine>(profile, seed);
    entry->machine->set_uop_cache(uop_cache_);
    entry->pristine = std::make_unique<sim::MachineSnapshot>(entry->machine->snapshot());
  }
  entry->profile_name = profile.name;
  entry->in_use = true;

  MachineLease lease;
  lease.pool_ = this;
  lease.machine_ = entry->machine.get();

  lock.lock();
  lease.slot_ = entries_.size();
  entries_.push_back(std::move(entry));
  return lease;
}

void MachinePool::release(std::size_t slot) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = *entries_[slot];
  // Drop the trial's watchdog pointer now rather than at the next acquire:
  // the TrialWatchdog lives on the worker's stack and dies with the trial.
  e.machine->arm_watchdog(nullptr);
  e.in_use = false;
}

std::size_t MachinePool::machines_built() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t MachinePool::leases_served() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return leases_;
}

MachineLease acquire_machine(MachinePool* pool, const sim::MachineProfile& profile,
                             std::uint64_t seed) {
  // The "trial setup" span of every pooled campaign body: machine
  // acquisition (pool reset-reuse or fresh construction); everything after
  // it in the trial is body time.
  static const obs::Histogram kSetupUs = obs::histogram("trial_setup_us");
  obs::ScopedTimer setup_timer(kSetupUs);
  obs::Span setup_span("trial_setup");
  if (pool != nullptr) {
    return pool->acquire(profile, seed);
  }
  MachineLease lease;
  lease.owned_ = std::make_unique<sim::Machine>(profile, seed);
  lease.machine_ = lease.owned_.get();
  return lease;
}

}  // namespace hwsec::core
