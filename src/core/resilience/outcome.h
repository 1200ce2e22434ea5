// Per-slot result-or-error model for fault-contained campaigns.
//
// run_campaign never lets one bad trial take the sweep down: the
// trial's exception is converted into a SimError and stored in its slot,
// while every other slot holds exactly the value the fault-free campaign
// would produce (the determinism contract is per-slot, so containment
// cannot perturb neighbours).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "sim/sim_error.h"

namespace hwsec::core {

/// What a resilient campaign does when a trial fails.
enum class FailurePolicy : std::uint8_t {
  kFailFast,  ///< stop scheduling new trials, then rethrow the lowest-index failure.
  kCollect,   ///< record the failure in its slot and keep sweeping (default).
  kRetry,     ///< re-run the same trial (same seed) up to max_attempts, then record.
};

template <typename Result>
struct TrialOutcome {
  std::optional<Result> result;     ///< engaged iff the trial succeeded.
  std::optional<SimError> error;    ///< engaged iff the trial failed (all attempts).
  unsigned attempts = 1;            ///< how many attempts ran (>1 only under kRetry).
  bool from_checkpoint = false;     ///< restored from a checkpoint, not re-run.
  bool skipped = false;             ///< never ran: fail-fast tripped earlier.

  bool ok() const { return result.has_value(); }
  const Result& value() const { return *result; }
};

/// The plain result vector of a campaign whose every slot succeeded (run
/// it under FailurePolicy::kFailFast). Throws std::bad_optional_access for
/// a slot without a value, e.g. one a graceful shutdown skipped.
template <typename Result>
std::vector<Result> values(std::vector<TrialOutcome<Result>> outcomes) {
  std::vector<Result> out;
  out.reserve(outcomes.size());
  for (auto& outcome : outcomes) {
    out.push_back(std::move(outcome.result.value()));
  }
  return out;
}

}  // namespace hwsec::core
