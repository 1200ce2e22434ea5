// Workload catalog for the campaign service.
//
// A spec names its workload by `kind`; the catalog maps that name to a
// trial body with a fixed POD result type. Keeping the result type uniform
// (two u64 lanes) is what lets the daemon checkpoint, wire-encode, and
// digest any job without templating the whole control plane — and a body
// is exactly the closure a direct caller would hand to run_campaign, so
// daemon execution is the same code path as a hand-launched campaign
// (bit-identical results, asserted in tests and the CI smoke).
//
// Kinds:
//  * "mix"          — seed-keyed splitmix64 PRF, no machine. The cheap
//                     deterministic workload for scheduler/protocol tests;
//                     trial_delay_us stretches wall time without touching
//                     the result.
//  * "spectre_leak" — the E12 reference workload: pooled mobile machine,
//                     Spectre-PHT leak of a planted byte. lo = leaked flag,
//                     hi = leaked value.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/service/spec.h"

namespace hwsec::core::service {

/// Uniform POD trial result: every catalog kind packs its outcome into two
/// u64 lanes so any divergence breaks bitwise equality.
struct ServiceTrialResult {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  bool operator==(const ServiceTrialResult& other) const {
    return lo == other.lo && hi == other.hi;
  }
};

using ServiceOutcomes = std::vector<TrialOutcome<ServiceTrialResult>>;

/// Registered kind names (for error messages and the CLI).
std::vector<std::string> catalog_kinds();

bool known_kind(const std::string& kind);

/// Builds the trial body for `spec.kind`. Throws SimError(kConfigError)
/// for an unknown kind.
std::function<ServiceTrialResult(const TrialContext&)> make_trial_body(const CampaignSpec& spec);

/// Folds the spec's resilience knobs (policy, max_attempts,
/// trial_cycle_budget) into `res`, which carries the caller's environment
/// (checkpoint path/scope, shared MachinePool, wall clock, chaos). run_spec
/// and remote workers both use it, so a trial applies the same knobs on
/// every host.
ResilienceConfig spec_resilience(const CampaignSpec& spec, ResilienceConfig res);

/// Runs `spec` through run_campaign, exactly as a direct caller would:
/// in-process when it names no processes and no hosts (neither in the
/// spec nor in HWSEC_SHARD_HOSTS), through the shard supervisor otherwise.
///
/// `on_trial` (optional) fires after each completed trial attempt sequence
/// — the daemon's progress feed. It runs outside the trial body's result
/// computation, so results are bit-identical with or without it. Trials a
/// shard worker runs call it in that worker's own process, where the
/// caller never sees it; their progress surfaces only at completion.
ServiceOutcomes run_spec(const CampaignSpec& spec, ResilienceConfig res,
                         const std::function<void()>& on_trial = {});

}  // namespace hwsec::core::service
