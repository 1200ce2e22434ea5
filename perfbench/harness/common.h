// Shared plumbing of the benchmark harness: the run record every workload
// fills, a wall clock, and the seed schedule.
//
// The harness reports raw samples (one wall time per set-up repetition and
// per steady-state unit of work); run.py turns them into medians, so the
// statistics live in one place.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/rng.h"

namespace perfbench {

/// The benchmark's default seed. Reference digests and the per-trial
/// simulated counts are always taken at this seed, whatever --seed says.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
};

/// One repetition of the workload's unit of work, timed end to end.
struct Unit {
  double seconds = 0.0;
  double trials = 0.0;  ///< campaign-engine trials in the unit.
  double traces = 0.0;  ///< side-channel traces the unit acquired.
};

struct Record {
  std::vector<double> setup_s;
  std::vector<Unit> units;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output checks. run.py compares some against committed references;
  /// every entry named in `failures` already failed inside the harness.
  std::map<std::string, std::string> checks;
  std::vector<std::string> failures;
  /// Per-layer metrics of a traced run, by the names in BENCHMARK.json.
  std::map<std::string, double> layers;
  /// Simulated quantities at fixed seeds (traced runs only): the per-trial
  /// counts of the reference campaign at kDefaultSeed and the counts of the
  /// seed-42 Figure-1 paths. Exact values, compared for equality.
  std::map<std::string, std::vector<double>> sim_counts;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
    }
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seed of the k-th input of a run: a pure function of (--seed, stream, k),
/// so the same --seed always generates the same inputs.
inline std::uint64_t input_seed(std::uint64_t run_seed, std::uint64_t stream, std::uint64_t k) {
  return hwsec::sim::derive_seed(hwsec::sim::derive_seed(run_seed, stream), k);
}

double median(std::vector<double> values);

/// Workload entry points (workloads.cpp).
void run_spectre_sharded(const Options& opt, Record& rec);
void run_cpa_stream(const Options& opt, Record& rec);

/// Per-call layer probes and per-trial simulated counts (probes.cpp); every
/// traced run adds them to its record.
void run_layer_probes(Record& rec);
void collect_sim_counts(Record& rec);

}  // namespace perfbench
