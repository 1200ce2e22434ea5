// The benchmark workloads. Each one:
//  * sets up several times and records every set-up time;
//  * runs its steady state until --seconds have passed, timing each unit
//    of work (a block of campaigns, or a window inside a campaign);
//  * checks its outputs (digests, key recovery);
//  * in a traced run, alternates traced and untraced units and times the
//    calls into each layer from here.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/physical/power_analysis.h"
#include "common.h"
#include "core/capture.h"
#include "core/machine_pool.h"
#include "core/obs/metrics.h"
#include "core/obs/trace.h"
#include "core/service/catalog.h"
#include "core/service/protocol.h"
#include "core/service/spec.h"
#include "sca/streaming.h"

namespace perfbench {

namespace core = hwsec::core;
namespace service = hwsec::core::service;
namespace sim = hwsec::sim;
namespace sca = hwsec::sca;
namespace attacks = hwsec::attacks;
namespace obs = hwsec::obs;

namespace {

// Seed streams: every input of a run derives from (--seed, stream, index).
enum Stream : std::uint64_t { kSetupStream = 1, kUnitStream = 2, kSizeStream = 3 };

constexpr int kSetupReps = 15;
/// Trials of the fixed reference campaign whose digest is committed in
/// reference_digests.json (seed kDefaultSeed, run sharded).
constexpr std::uint64_t kReferenceTrials = 2048;
constexpr unsigned kShardProcesses = 2;
constexpr unsigned kCaptureWorkers = 2;
constexpr std::size_t kCpaBatch = 64;

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// The spec a tenant would submit; it goes through the spec codec so the
/// program sees exactly what hwsecd or `hwsec-client run-direct` would.
service::CampaignSpec spectre_spec(std::uint64_t seed, std::uint64_t trials,
                                   unsigned processes) {
  service::CampaignSpec spec;
  spec.tenant = "perfbench";
  spec.kind = "spectre_leak";
  spec.seed = seed;
  spec.trials = trials;
  spec.workers = 1;
  spec.processes = processes;
  service::CampaignSpec decoded;
  std::string error;
  if (!service::decode_spec(service::encode_spec(spec), decoded, error)) {
    throw std::runtime_error("benchmark spec rejected: " + error);
  }
  return decoded;
}

std::uint64_t digest(const service::ServiceOutcomes& outcomes) {
  return service::fnv1a64(service::encode_outcomes(outcomes));
}

/// Runs one spec through the stable entry point and books its outcomes.
service::ServiceOutcomes run_counted(const service::CampaignSpec& spec, core::MachinePool* pool,
                                     Record& rec) {
  core::ResilienceConfig res;
  res.machines = pool;
  service::ServiceOutcomes outcomes = service::run_spec(spec, res);
  rec.attempted += outcomes.size();
  for (const auto& o : outcomes) {
    rec.failed += o.ok() ? 0 : 1;
  }
  return outcomes;
}

double overhead(const std::vector<double>& traced, const std::vector<double>& untraced) {
  const double base = median(untraced);
  return base > 0.0 && !traced.empty() ? median(traced) / base - 1.0 : 0.0;
}

void set_tracing(bool on) { obs::Tracer::instance().set_enabled(on); }

double cpu_seconds(int who) {
  rusage u{};
  getrusage(who, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

}  // namespace

// ---- spectre_sharded --------------------------------------------------------

namespace {

/// Campaign sizes of block b: one campaign per octave of 2^10..2^15, at the
/// octave's log-midpoint, in a seeded order. This samples the log-uniform
/// size range by strata, so every block does the same work and blocks are
/// comparable across seeds; the seed moves the order and the trial seeds.
std::vector<std::uint64_t> block_sizes(std::uint64_t run_seed, std::uint64_t block) {
  sim::Rng rng(input_seed(run_seed, kSizeStream, block));
  std::vector<std::uint64_t> sizes;
  for (int octave = 10; octave < 15; ++octave) {
    sizes.push_back(static_cast<std::uint64_t>(std::exp2(octave + 0.5)));
  }
  for (std::size_t i = sizes.size() - 1; i > 0; --i) {
    std::swap(sizes[i], sizes[rng.below(i + 1)]);
  }
  return sizes;
}

struct ShardScrape {
  std::uint64_t assignments = 0;
  std::uint64_t migrations = 0;
  std::uint64_t deaths = 0;
  std::uint64_t fallback = 0;
  std::uint64_t duplicates = 0;

  static ShardScrape now() {
    const obs::MetricsSnapshot s = obs::MetricsRegistry::instance().snapshot();
    return {s.counter("shard_assignments"), s.counter("shard_migrations"),
            s.counter("shard_worker_deaths"), s.counter("shard_fallback_trials"),
            s.counter("shard_duplicate_trials")};
  }
};

}  // namespace

void run_spectre_sharded(const Options& opt, Record& rec) {
  // Set-up is E12b's method: a campaign with one trial per worker is all
  // fork, pipe set-up and merge.
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = Clock::now();
    run_counted(spectre_spec(input_seed(opt.seed, kSetupStream, r), kShardProcesses,
                             kShardProcesses),
                nullptr, rec);
    rec.setup_s.push_back(seconds_since(t0));
  }

  const ShardScrape before = ShardScrape::now();
  const double self_cpu0 = cpu_seconds(RUSAGE_SELF);
  const double child_cpu0 = cpu_seconds(RUSAGE_CHILDREN);
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::uint64_t campaigns = 0;
  std::uint64_t trials = 0;
  service::CampaignSpec cross_spec;
  std::uint64_t cross_digest = 0;
  const auto start = Clock::now();
  for (std::uint64_t b = 0; b == 0 || seconds_since(start) < opt.seconds; ++b) {
    const bool traced = opt.trace && b % 2 == 1;
    // A traced block repeats the campaigns of the untraced block before it.
    const std::uint64_t block = traced ? b - 1 : b;
    const auto sizes = block_sizes(opt.seed, block);
    set_tracing(traced);
    double block_trials = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const auto spec = spectre_spec(input_seed(opt.seed, kUnitStream, 8 * block + i), sizes[i],
                                     kShardProcesses);
      const auto outcomes = run_counted(spec, nullptr, rec);
      block_trials += static_cast<double>(outcomes.size());
      if (b == 0 && sizes[i] < 2048) {
        cross_spec = spec;
        cross_digest = digest(outcomes);
      }
    }
    const double dt = seconds_since(t0);
    set_tracing(false);
    campaigns += sizes.size();
    trials += static_cast<std::uint64_t>(block_trials);
    if (traced) {
      traced_s.push_back(dt);
    } else {
      untraced_s.push_back(dt);
      rec.units.push_back({dt, block_trials, block_trials});
    }
  }
  const ShardScrape after = ShardScrape::now();
  const double self_cpu = cpu_seconds(RUSAGE_SELF) - self_cpu0;
  const double child_cpu = cpu_seconds(RUSAGE_CHILDREN) - child_cpu0;
  // The smallest campaign of the first block, re-run in-process: the
  // sharded outcome vector must equal the in-process one.
  core::MachinePool pool;
  const auto local = run_counted(spectre_spec(cross_spec.seed, cross_spec.trials, 0), &pool, rec);
  rec.check(digest(local) == cross_digest,
            "sharded campaign digest differs from the in-process digest");
  rec.checks["cross_checked_digest"] = hex(cross_digest);
  const auto reference = run_counted(
      spectre_spec(kDefaultSeed, kReferenceTrials, kShardProcesses), nullptr, rec);
  rec.checks["reference_digest"] = hex(digest(reference));

  if (opt.trace) {
    const double c = static_cast<double>(std::max<std::uint64_t>(campaigns, 1));
    rec.layers["core.shard.setup_s"] = median(rec.setup_s);
    rec.layers["core.shard.supervisor_cpu_frac"] =
        self_cpu + child_cpu > 0.0 ? self_cpu / (self_cpu + child_cpu) : 0.0;
    rec.layers["core.shard.assignments"] =
        static_cast<double>(after.assignments - before.assignments) / c;
    rec.layers["core.shard.migrations"] =
        static_cast<double>(after.migrations - before.migrations) / c;
    rec.layers["core.shard.worker_deaths"] = static_cast<double>(after.deaths - before.deaths) / c;
    rec.layers["core.shard.fallback_trials"] =
        static_cast<double>(after.fallback - before.fallback) / c;
    rec.layers["core.shard.duplicate_frac"] =
        static_cast<double>(after.duplicates - before.duplicates) /
        static_cast<double>(std::max<std::uint64_t>(trials, 1));
    rec.layers["obs.trace_overhead_frac"] = overhead(traced_s, untraced_s);
  }
}

// ---- cpa_stream -------------------------------------------------------------

namespace {

/// Traces per campaign: the million-trace streaming campaign of the
/// repository's E13b deliverable (bench_sca_streaming).
constexpr std::size_t kCpaTraces = 1'000'000;
/// Batches per timed window of the steady state (16384 traces). The first
/// window of a campaign pays the capture pool's start and is not timed.
constexpr std::size_t kWindowBatches = 256;

struct CpaInput {
  hwsec::crypto::AesKey key{};
  core::BatchedCaptureConfig capture;
  sca::RecorderConfig recorder;
};

CpaInput cpa_input(std::uint64_t seed, std::size_t traces) {
  CpaInput in;
  sim::Rng rng(seed);
  for (auto& b : in.key) {
    b = static_cast<std::uint8_t>(rng.next_u32());
  }
  in.capture.seed = rng.next_u64();
  in.capture.total_traces = traces;
  in.capture.batch_traces = kCpaBatch;
  in.capture.workers = kCaptureWorkers;
  in.recorder.noise_sigma = 1.0;
  in.recorder.seed = rng.next_u64();
  return in;
}

std::size_t points(const CpaInput& in) {
  return attacks::kAesSamplesPerTrace * (1 + in.recorder.max_jitter);
}

bool same_key_result(const sca::KeyAttackResult& a, const sca::KeyAttackResult& b) {
  for (std::size_t i = 0; i < 16; ++i) {
    if (a.bytes[i].best_guess != b.bytes[i].best_guess ||
        a.bytes[i].best_score != b.bytes[i].best_score) {
      return false;
    }
  }
  return a.recovered == b.recovered;
}

}  // namespace

void run_cpa_stream(const Options& opt, Record& rec) {
  // Set-up: one capture window (2 batches per worker) into a fresh
  // accumulator through the one-call entry point, which pays the capture
  // pool's start and the accumulator's allocation.
  for (int r = 0; r < kSetupReps; ++r) {
    const CpaInput in = cpa_input(input_seed(opt.seed, kSetupStream, r),
                                  2 * kCaptureWorkers * kCpaBatch);
    const auto t0 = Clock::now();
    const sca::StreamingCpa acc = core::run_streaming_cpa_campaign(
        in.capture, in.key, attacks::AesVariant::kTTable, in.recorder);
    rec.setup_s.push_back(seconds_since(t0));
    rec.attempted += in.capture.total_traces;
    rec.failed += in.capture.total_traces - acc.traces();
    if (r == 0) {
      // The steady state below assembles the same pipeline from its parts
      // (batched capture feeding a StreamingCpa) so it can time windows
      // inside a campaign; both must rank the key identically.
      sca::StreamingCpa parts(points(in));
      core::capture_aes_power_batches(
          in.capture, in.key, attacks::AesVariant::kTTable, in.recorder,
          [&](std::size_t, const sca::TraceSet& set) { parts.add_batch(set); });
      rec.check(same_key_result(parts.finalize_key(), acc.finalize_key()),
                "assembled capture pipeline ranked the key differently from "
                "run_streaming_cpa_campaign");
    }
  }

  // Steady state: whole million-trace campaigns, back to back, each timed
  // in windows of kWindowBatches batches. A traced run alternates traced and
  // untraced windows within each campaign.
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  double wait_s = 0.0;
  double update_s = 0.0;
  std::vector<double> rank_s;
  std::uint64_t traced_batches = 0;
  std::uint64_t traced_traces = 0;
  std::uint32_t min_bytes = 16;
  const auto start = Clock::now();
  for (std::uint64_t k = 0; k == 0 || seconds_since(start) < opt.seconds; ++k) {
    const CpaInput in = cpa_input(input_seed(opt.seed, kUnitStream, k), kCpaTraces);
    sca::StreamingCpa acc(points(in));
    std::uint64_t window = 0;
    bool traced = false;
    std::size_t window_traces = 0;
    auto t_window = Clock::now();
    auto t_last = t_window;
    const std::size_t captured = core::capture_aes_power_batches(
        in.capture, in.key, attacks::AesVariant::kTTable, in.recorder,
        [&](std::size_t batch, const sca::TraceSet& set) {
          const auto t1 = Clock::now();
          acc.add_batch(set);
          const auto t2 = Clock::now();
          window_traces += set.size();
          if (traced) {
            wait_s += std::chrono::duration<double>(t1 - t_last).count();
            update_s += std::chrono::duration<double>(t2 - t1).count();
            ++traced_batches;
            traced_traces += set.size();
          }
          t_last = t2;
          if ((batch + 1) % kWindowBatches != 0) {
            return;
          }
          const double dt = std::chrono::duration<double>(t2 - t_window).count();
          if (window > 0 && traced) {
            traced_s.push_back(dt);
          } else if (window > 0) {
            untraced_s.push_back(dt);
            rec.units.push_back({dt, static_cast<double>(kWindowBatches),
                                 static_cast<double>(window_traces)});
          }
          ++window;
          traced = opt.trace && window % 2 == 0;
          set_tracing(traced);
          window_traces = 0;
          t_window = Clock::now();
          t_last = t_window;
        });
    set_tracing(false);
    rec.attempted += kCpaTraces;
    rec.failed += kCpaTraces - std::min(captured, acc.traces());
    const auto t3 = Clock::now();
    const sca::KeyAttackResult result = acc.finalize_key();
    rank_s.push_back(seconds_since(t3));
    min_bytes = std::min(min_bytes, result.correct_bytes(in.key));
  }
  rec.check(min_bytes == 16, "streaming CPA recovered only " + std::to_string(min_bytes) +
                                 "/16 key bytes in some campaign");
  rec.checks["min_key_bytes"] = std::to_string(min_bytes);

  if (opt.trace) {
    rec.layers["core.capture.wait_us_per_batch"] =
        1e6 * wait_s / static_cast<double>(std::max<std::uint64_t>(traced_batches, 1));
    rec.layers["sca.streaming.update_ns_per_trace"] =
        1e9 * update_s / static_cast<double>(std::max<std::uint64_t>(traced_traces, 1));
    rec.layers["sca.cpa.rank_ms"] = 1e3 * median(rank_s);
    rec.layers["obs.trace_overhead_frac"] = overhead(traced_s, untraced_s);
  }
}

}  // namespace perfbench
