// Deterministic campaign engine: one runner for every campaign.
//
// Every experiment in the reproduction (E1–E13) is a Monte-Carlo campaign:
// hundreds of independent attack trials, glitch sweeps at many DVFS points,
// thousands of probe trials behind a daemon. run_campaign is the single
// entry point, and CampaignConfig picks the path:
//  * in-process (the default: no worker processes, no hosts, no
//    listener): trials fan out across a host thread pool;
//  * supervised (anything else): the shard supervisor
//    (core/shard/supervisor.h) forks local workers and/or dials remote
//    ones, feeds them shards, and merges their records.
// Both paths run every trial through detail::execute_trial with the same
// resilience semantics (core/resilience/resilient.h), and a trial crosses
// a process or checkpoint boundary only through to_record/from_record.
//
// The determinism contract:
//  * trial i receives the seed sim::derive_seed(campaign.seed, i) — a pure
//    function of the campaign seed and the trial index, independent of
//    which worker, process or host runs the trial, or when;
//  * each trial constructs its own state (its own sim::Machine, Rng,
//    recorder, ...) from that seed; trials share no mutable state;
//  * results land in a pre-sized vector at slot i.
// Hence run_campaign returns identical vectors at any worker, process or
// host count.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/machine_pool.h"
#include "core/obs/heartbeat.h"
#include "core/obs/metrics.h"
#include "core/obs/trace.h"
#include "core/resilience/chaos.h"
#include "core/resilience/checkpoint.h"
#include "core/resilience/monitor.h"
#include "core/resilience/outcome.h"
#include "core/resilience/resilient.h"
#include "core/shard/supervisor.h"
#include "core/shutdown.h"
#include "sim/rng.h"
#include "sim/thread_pool.h"
#include "sim/watchdog.h"

namespace hwsec::core {

struct CampaignConfig {
  std::uint64_t seed = 1;  ///< campaign master seed.
  std::size_t trials = 0;  ///< number of independent trials.
  /// In-process threads; 0 = the shared ThreadPool (default_workers()).
  /// Shard workers run their trials sequentially: there, parallelism is
  /// the process and host count.
  unsigned workers = 0;
  ResilienceConfig resilience;
  /// Worker processes, hosts and listener. The default names none, so
  /// the campaign runs in-process.
  shard::ShardConfig shard;
};

/// Identity of one trial, handed to the trial body.
struct TrialContext {
  std::size_t index = 0;   ///< 0 .. trials-1, stable across worker counts.
  std::uint64_t seed = 0;  ///< derive_seed(campaign seed, index).
  /// Armed by the runner for every trial. A body that simulates guest code
  /// should pass it to Machine::arm_watchdog so runaway guests convert
  /// into structured TimedOut outcomes.
  sim::TrialWatchdog* watchdog = nullptr;
  /// Snapshot/reset machine pool for this campaign. Bodies should obtain
  /// machines via acquire_machine(ctx.machines, profile, ctx.seed) instead
  /// of constructing sim::Machine directly: the pool hands back a
  /// reset-reused machine bit-identical to fresh construction, amortizing
  /// per-trial setup. Null when the caller offers no pooling; the helper
  /// then builds a fresh machine, so bodies need no fallback of their own.
  MachinePool* machines = nullptr;
};

namespace detail {

/// Shared per-trial instrumentation: a "trial" span plus the
/// campaign_trials_completed counter. Observability never touches the
/// trial's seed or state, so results stay bit-identical with it on or off.
struct TrialObs {
  static const obs::Counter& completed() {
    static const obs::Counter c = obs::counter("campaign_trials_completed");
    return c;
  }
  static const obs::Histogram& trial_us() {
    static const obs::Histogram h = obs::histogram("trial_us");
    return h;
  }
};

/// Runs one trial with the full resilience semantics — retry attempts,
/// chaos injection keyed by (chaos seed, index, attempt), cycle-budget
/// watchdog, wall-clock registration, exception wrapping with trial
/// attribution. The single source of truth for per-trial behavior: the
/// in-process path, forked and remote shard workers and the supervisor's
/// fallback all call it, which is what makes an N-process or N-host
/// campaign bit-identical to the 1-thread run — there is only one trial
/// execution path to diverge from.
template <typename Result>
TrialOutcome<Result> execute_trial(std::size_t index, std::uint64_t campaign_seed,
                                   const ResilienceConfig& res, MachinePool* machines,
                                   WallClockMonitor& monitor,
                                   const std::function<Result(const TrialContext&)>& body) {
  static const obs::Counter kRetries = obs::counter("campaign_trial_retries");
  static const obs::Counter kWatchdogTrips = obs::counter("watchdog_trips");
  TrialOutcome<Result> out;
  const std::uint64_t seed = hwsec::sim::derive_seed(campaign_seed, index);
  const unsigned attempts_allowed =
      res.policy == FailurePolicy::kRetry ? std::max(1u, res.max_attempts) : 1u;
  obs::ScopedTimer trial_timer(TrialObs::trial_us());
  obs::Span trial_span("trial", static_cast<std::int64_t>(index), "trial");
  for (unsigned attempt = 1; attempt <= attempts_allowed; ++attempt) {
    out.attempts = attempt;
    if (attempt > 1) {
      kRetries.add(1);
      obs::Tracer::instance().instant("trial_retry", static_cast<std::int64_t>(index),
                                      "trial");
    }
    hwsec::sim::TrialWatchdog watchdog;
    watchdog.cycle_budget = res.trial_cycle_budget;
    auto registration = monitor.watch(watchdog);
    try {
      ChaosInjector(res.chaos, index, attempt).inject();
      out.result = body(TrialContext{index, seed, &watchdog, machines});
      out.error.reset();
      break;
    } catch (...) {
      out.error = wrap_current_exception().with_trial(index, seed);
      out.result.reset();
      if (out.error->kind() == ErrorKind::kTimedOut) {
        kWatchdogTrips.add(1);
        obs::Tracer::instance().instant("watchdog_trip", static_cast<std::int64_t>(index),
                                        "trial");
      }
    }
  }
  return out;
}

/// A Result can cross a process or checkpoint boundary only as raw bytes.
template <typename Result>
inline constexpr bool kRecordable =
    std::is_trivially_copyable_v<Result> && std::is_default_constructible_v<Result>;

/// The one TrialOutcome -> CheckpointRecord encoding: checkpoint saves,
/// forked and remote shard workers and the supervisor's fallback all put
/// exactly these bytes on disk or on the wire.
template <typename Result>
CheckpointRecord to_record(const TrialOutcome<Result>& out) {
  static_assert(kRecordable<Result>);
  CheckpointRecord rec;
  rec.attempts = out.attempts;
  rec.ok = out.ok();
  if (out.ok()) {
    rec.payload.assign(reinterpret_cast<const char*>(&*out.result), sizeof(Result));
  } else {
    rec.kind = static_cast<std::uint8_t>(out.error->kind());
    rec.detail = out.error->detail();
    rec.machine = out.error->machine();
  }
  return rec;
}

/// The inverse of to_record for trial `index` of the campaign seeded
/// `campaign_seed` (the error's trial attribution is rebuilt, not stored).
template <typename Result>
TrialOutcome<Result> from_record(const CheckpointRecord& rec, std::size_t index,
                                 std::uint64_t campaign_seed) {
  static_assert(kRecordable<Result>);
  TrialOutcome<Result> out;
  out.attempts = rec.attempts;
  if (rec.ok) {
    Result restored{};
    std::memcpy(&restored, rec.payload.data(), sizeof(Result));
    out.result = restored;
  } else {
    SimError err(static_cast<ErrorKind>(rec.kind), rec.detail);
    if (!rec.machine.empty()) {
      err.with_machine(rec.machine);
    }
    err.with_trial(index, hwsec::sim::derive_seed(campaign_seed, index));
    out.error = std::move(err);
  }
  return out;
}

/// Builds the trial runner every shard worker executes: forked local
/// workers, remote workers (service::serve_supervisor) and the
/// supervisor's in-process fallback. Each runner owns one MachinePool and
/// one WallClockMonitor.
template <typename Result>
shard::TrialRunner make_trial_runner(std::uint64_t campaign_seed, const ResilienceConfig& res,
                                     std::function<Result(const TrialContext&)> body) {
  auto machines = std::make_shared<MachinePool>();
  auto monitor = std::make_shared<WallClockMonitor>(res.wall_clock_timeout);
  return [machines, monitor, campaign_seed, res, body = std::move(body)](std::size_t index) {
    return to_record(
        execute_trial<Result>(index, campaign_seed, res, machines.get(), *monitor, body));
  };
}

/// Fail-fast epilogue shared by both paths: throws the lowest-index
/// failure this run produced (restored slots never trip it).
template <typename Result>
void throw_first_failure(const std::vector<TrialOutcome<Result>>& outcomes) {
  for (const auto& out : outcomes) {
    if (out.error.has_value() && !out.from_checkpoint) {
      throw *out.error;
    }
  }
}

template <typename Result>
std::vector<TrialOutcome<Result>> run_in_process(
    const CampaignConfig& config, const std::function<Result(const TrialContext&)>& body,
    shard::ShardStats* stats) {
  const ResilienceConfig& res = config.resilience;
  const bool checkpointing = !res.checkpoint_path.empty();
  if (checkpointing && !kRecordable<Result>) {
    throw SimError(ErrorKind::kConfigError,
                   "checkpointing requires a trivially copyable, default-constructible "
                   "Result type");
  }

  std::vector<TrialOutcome<Result>> outcomes(config.trials);
  CheckpointFile checkpoint(config.seed, config.trials, sizeof(Result), res.checkpoint_scope);
  if constexpr (kRecordable<Result>) {
    if (checkpointing && checkpoint.load(res.checkpoint_path)) {
      for (const auto& [index, rec] : checkpoint.records()) {
        outcomes[index] = from_record<Result>(rec, index, config.seed);
        outcomes[index].from_checkpoint = true;
      }
    }
  }

  MachinePool local_machines;
  MachinePool* machines = res.machines != nullptr ? res.machines : &local_machines;
  WallClockMonitor monitor(res.wall_clock_timeout);
  std::mutex checkpoint_mutex;
  std::size_t completions_since_save = 0;
  const std::size_t checkpoint_every = std::max<std::size_t>(1, res.checkpoint_every);
  std::atomic<bool> tripped{false};  ///< kFailFast saw a failure.

  // Campaign observability. The counters feed the CI scrape-and-assert
  // step (a clean non-chaos campaign must end with zero retries and zero
  // watchdog trips) and the heartbeat line below; none of it reads or
  // writes trial state, so results stay bit-identical with it on or off.
  static const obs::Counter kFailed = obs::counter("campaign_trials_failed");
  static const obs::Counter kRestored = obs::counter("campaign_trials_restored");
  std::atomic<std::size_t> heartbeat_done{0};
  std::atomic<std::size_t> heartbeat_failed{0};
  std::atomic<std::size_t> heartbeat_retries{0};
  const auto campaign_start = std::chrono::steady_clock::now();
  const std::chrono::milliseconds heartbeat_period =
      res.heartbeat.count() < 0 ? obs::heartbeat_interval_from_env() : res.heartbeat;
  obs::Heartbeat heartbeat(heartbeat_period, [&, campaign_start] {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - campaign_start)
            .count();
    const std::size_t done = heartbeat_done.load(std::memory_order_relaxed);
    std::ostringstream line;
    line << "[campaign seed=" << config.seed << "] " << done << "/" << config.trials
         << " trials, " << static_cast<std::uint64_t>(elapsed > 0.0 ? done / elapsed : 0.0)
         << " trials/sec, retries=" << heartbeat_retries.load(std::memory_order_relaxed)
         << ", failed=" << heartbeat_failed.load(std::memory_order_relaxed)
         << ", pool: " << machines->machines_built() << " built / "
         << machines->leases_served() << " leases";
    return line.str();
  });

  auto run_slot = [&](std::size_t i) {
    TrialOutcome<Result>& out = outcomes[i];
    if (out.from_checkpoint) {
      kRestored.add(1);
      heartbeat_done.fetch_add(1, std::memory_order_relaxed);
      return;  // restored slot; never re-run.
    }
    if (tripped.load(std::memory_order_acquire)) {
      out.skipped = true;
      return;
    }
    // Graceful shutdown (SIGTERM/SIGINT with install_graceful_shutdown):
    // stop starting trials; in-flight ones finish and the final checkpoint
    // save below still runs, so an operator Ctrl-C loses nothing completed.
    if (shutdown_requested()) {
      out.skipped = true;
      return;
    }
    out = execute_trial<Result>(i, config.seed, res, machines, monitor, body);
    if (out.attempts > 1) {
      heartbeat_retries.fetch_add(out.attempts - 1, std::memory_order_relaxed);
    }
    TrialObs::completed().add(1);
    heartbeat_done.fetch_add(1, std::memory_order_relaxed);
    if (!out.ok()) {
      kFailed.add(1);
      heartbeat_failed.fetch_add(1, std::memory_order_relaxed);
      if (res.policy == FailurePolicy::kFailFast) {
        tripped.store(true, std::memory_order_release);
      }
    }
    if constexpr (kRecordable<Result>) {
      if (checkpointing) {
        CheckpointRecord rec = to_record(out);
        std::lock_guard<std::mutex> lock(checkpoint_mutex);
        checkpoint.record(i, std::move(rec));
        if (++completions_since_save >= checkpoint_every) {
          completions_since_save = 0;
          checkpoint.save(res.checkpoint_path);
        }
      }
    }
  };

  if (config.workers == 0) {
    hwsec::sim::ThreadPool::shared().parallel_for(config.trials, run_slot);
  } else {
    hwsec::sim::ThreadPool pool(config.workers);
    pool.parallel_for(config.trials, run_slot);
  }

  if (checkpointing) {
    checkpoint.save(res.checkpoint_path);
  }
  if (stats != nullptr) {
    // The supervised path's books for the plan it would have cut: shards
    // holding a slot not restored from checkpoint, and fresh executions.
    *stats = shard::ShardStats{};
    for (std::size_t begin = 0, end = 0; begin < config.trials; begin = end) {
      end = shard::shard_end(config.shard, config.trials, begin);
      bool counted = false;
      for (std::size_t i = begin; i < end; ++i) {
        if (outcomes[i].from_checkpoint) {
          continue;
        }
        stats->trials_executed += outcomes[i].skipped ? 0 : 1;
        counted = true;
      }
      stats->shards_total += counted ? 1 : 0;
    }
  }
  if (tripped.load()) {
    throw_first_failure(outcomes);
  }
  return outcomes;
}

template <typename Result>
std::vector<TrialOutcome<Result>> run_supervised(
    const CampaignConfig& config, const std::function<Result(const TrialContext&)>& body,
    shard::ShardStats* stats) {
  if constexpr (!kRecordable<Result>) {
    throw SimError(ErrorKind::kConfigError,
                   "sharded campaigns require a trivially copyable, default-constructible "
                   "Result type");
  } else {
    shard::detail_shard::ShardJob job;
    job.seed = config.seed;
    job.trials = config.trials;
    job.result_bytes = sizeof(Result);
    job.make_runner = [&config, &body] {
      return make_trial_runner<Result>(config.seed, config.resilience, body);
    };
    const shard::detail_shard::SupervisorResult merged =
        shard::detail_shard::run_sharded(job, config.shard, config.resilience);
    if (stats != nullptr) {
      *stats = merged.stats;
    }

    std::vector<TrialOutcome<Result>> outcomes(config.trials);
    for (std::size_t i = 0; i < config.trials; ++i) {
      const auto it = merged.records.find(i);
      if (it == merged.records.end()) {
        outcomes[i].skipped = true;  // graceful shutdown or fail-fast drain.
        continue;
      }
      outcomes[i] = from_record<Result>(it->second, i, config.seed);
      outcomes[i].from_checkpoint = merged.restored.count(i) != 0;
    }
    if (merged.failfast_tripped) {
      throw_first_failure(outcomes);
    }
    return outcomes;
  }
}

}  // namespace detail

/// Runs `config.trials` trials of `body` and returns one TrialOutcome per
/// slot, in trial order. `body` must be callable concurrently from
/// multiple threads and must derive all randomness from its TrialContext.
///
/// A throwing trial is contained in its own slot. Under
/// FailurePolicy::kFailFast a failure stops new trials from starting and
/// the lowest-index SimError is thrown once in-flight trials drain (their
/// slots are still checkpointed); callers that want plain values use it
/// and read value() (or values()). A graceful shutdown returns early with
/// the unstarted slots marked `skipped`.
///
/// The supervised path (config.shard names processes, hosts or a listener)
/// needs a trivially copyable Result and throws SimError(kConfigError)
/// otherwise; so does checkpointing. `stats` (optional) receives the
/// run's ShardStats.
template <typename Result>
std::vector<TrialOutcome<Result>> run_campaign(
    const CampaignConfig& config, const std::function<Result(const TrialContext&)>& body,
    shard::ShardStats* stats = nullptr) {
  const shard::ShardConfig& fleet = config.shard;
  if (fleet.processes == 0 && fleet.hosts.empty() && !fleet.listen) {
    return detail::run_in_process<Result>(config, body, stats);
  }
  return detail::run_supervised<Result>(config, body, stats);
}

}  // namespace hwsec::core
