// Resilience knobs of a campaign (CampaignConfig::resilience).
//
// Every path of run_campaign (core/campaign.h) honours the same knobs:
//  * containment: a throwing trial becomes a SimError in its own slot; all
//    other slots hold exactly the fault-free values, at any worker count;
//  * policy: fail-fast (stop scheduling, rethrow lowest-index failure),
//    collect (default), or bounded same-seed retry for transient host
//    faults (the trial body itself stays deterministic, so retry only
//    helps against injected/host-side failures — which is the point);
//  * watchdogs: a per-trial cycle budget (deterministic TimedOut) plus an
//    optional wall-clock backstop (nondeterministic, last resort);
//  * crash safety: periodic atomic checkpoints keyed by the campaign
//    identity; a killed sweep resumes bit-identically, re-running only
//    unfinished slots;
//  * self-chaos: seeded fault injection ahead of the trial body, for
//    exercising all of the above deterministically in tests.
#pragma once

#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/machine_pool.h"
#include "core/resilience/chaos.h"
#include "core/resilience/outcome.h"
#include "sim/types.h"

namespace hwsec::core {

struct ResilienceConfig {
  FailurePolicy policy = FailurePolicy::kCollect;
  /// Attempts per trial under kRetry (>=1); other policies always run one.
  unsigned max_attempts = 3;
  /// Simulated-cycle budget per trial; 0 disables. Exceeding it raises a
  /// deterministic ErrorKind::kTimedOut from inside the Cpu.
  sim::Cycle trial_cycle_budget = 0;
  /// Wall-clock budget per trial attempt; zero disables. Nondeterministic
  /// backstop for trials wedged on the host side.
  std::chrono::milliseconds wall_clock_timeout{0};
  /// When non-empty, completed slots are checkpointed here atomically and
  /// restored on the next run with the same (seed, trials, Result).
  std::string checkpoint_path;
  /// Owner namespace folded into the checkpoint identity (empty = legacy
  /// config-only identity). Multi-tenant runners (hwsecd) set this to
  /// "tenant/job-id" so two identical specs from different owners can
  /// never cross-resume each other's files, even through a shared path.
  std::string checkpoint_scope;
  /// Save the checkpoint after this many newly completed trials (and once
  /// more at the end). Minimum 1.
  std::size_t checkpoint_every = 16;
  /// Self-chaos injection (disabled by default).
  ChaosConfig chaos;
  /// Snapshot/reset machine pool handed to in-process trial bodies via
  /// TrialContext::machines. Null (default): the runner creates a pool for
  /// this campaign. Supply one to reuse machines across campaigns (e.g. a
  /// benchmark loop running many short sweeps on the same profile). Shard
  /// workers always own a private pool.
  MachinePool* machines = nullptr;
  /// Progress-heartbeat period. Negative (default): take the period from
  /// HWSEC_HEARTBEAT_MS (unset/0 = off). Zero: off. Positive: emit one
  /// progress line to stderr per period while the campaign runs.
  std::chrono::milliseconds heartbeat{-1};
};

namespace detail {

/// Converts the in-flight exception into the taxonomy: SimError passes
/// through untouched, std::bad_alloc maps to kResourceExhausted, any other
/// std::exception (and anything else) to kInternalError.
SimError wrap_current_exception();

}  // namespace detail

/// Runs a list of heterogeneous independent tasks (each its own closure)
/// across `workers` threads (0 = ThreadPool::default_workers()). Every
/// task runs, and the returned vector holds task k's wrapped exception (or
/// nullopt on success); the caller decides what a partial fan-out means.
/// Task k must derive all randomness from inputs fixed before the call.
/// Used by the Figure-1 evaluation to fan its attack probes out.
std::vector<std::optional<SimError>> run_parallel_tasks_resilient(
    const std::vector<std::function<void()>>& tasks, unsigned workers = 0);

}  // namespace hwsec::core
