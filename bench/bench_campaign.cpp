// E12 — campaign-engine scaling: throughput and determinism of the
// parallel trial engine that drives every other experiment.
//
// Runs a Figure-1-style campaign (each trial: build a fresh mobile
// Machine from the trial seed, mount Spectre-PHT, record whether the
// planted byte leaked) at several worker counts and reports:
//   * trials/sec sequential (workers=1) vs. parallel;
//   * the per-worker scaling curve (speedup over sequential);
//   * a determinism check: every worker count must reproduce the
//     workers=1 result vector bit for bit.
// Machine-readable results land in BENCH_campaign.json (path override:
// HWSEC_BENCH_JSON) for CI to archive.
//
// E12b extends the sweep across process boundaries: the sharded supervisor
// (core/shard) runs the same campaign at 1/2/4 worker processes plus a
// worker-kill chaos row, and every merged vector must be bit-identical to
// the in-process reference (HWSEC_SHARD_TRIALS overrides the trial count).
//
// The worker sweep is clamped to hardware_concurrency: a "speedup" row
// measured with more workers than cores is scheduler noise presented as
// scaling data (the seed repo once recorded workers=4 speedup=1.27 on a
// 1-core host). HWSEC_CAMPAIGN_OVERSUBSCRIBE=1 re-enables the full sweep
// for scheduler experiments; those rows are then marked
// "oversubscribed": true and never feed the HWSEC_CAMPAIGN_MIN_TPS floor.
//
// E12c goes over the wire: forked hwsec-shard-worker processes listen on
// loopback TCP ports, the supervisor dials them through the host-discovery
// path hwsecd uses, and the merged vector must STILL be bit-identical to
// the in-process reference — including a chaos row where seeded worker
// SIGKILLs force disconnect-migrate-redial recovery (the row must show
// nonzero migrations, or the chaos was vacuous and the run fails).
//
// Observability: HWSEC_TRACE_OUT=<path> captures a Chrome trace_event
// JSON (trial/setup/body and pool spans — load it in Perfetto), and
// --metrics-json=<path> (or HWSEC_METRICS_JSON) dumps the merged metrics
// registry (trial counters, pool accounting, latency histograms) for the
// CI scrape-and-assert step.
#include <benchmark/benchmark.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attacks/transient/spectre.h"
#include "core/campaign.h"
#include "core/machine_pool.h"
#include "core/obs/metrics.h"
#include "core/obs/trace.h"
#include "core/service/catalog.h"
#include "core/service/remote_worker.h"
#include "core/service/spec.h"
#include "core/shutdown.h"
#include "sim/machine.h"
#include "table.h"

namespace sim = hwsec::sim;
namespace core = hwsec::core;
namespace service = hwsec::core::service;
namespace attacks = hwsec::attacks;
namespace obs = hwsec::obs;

namespace {

/// One campaign trial: pooled machine, fresh attack, outcome encoded so
/// that any divergence (success flag OR leaked value) breaks equality.
struct TrialResult {
  bool leaked = false;
  std::uint32_t value = 0;

  bool operator==(const TrialResult& other) const {
    return leaked == other.leaked && value == other.value;
  }
};

/// Setup-vs-run breakdown, accumulated only during the sequential pass
/// (parallel passes would fold scheduler contention into the numbers).
std::atomic<std::uint64_t> g_setup_ns{0};
std::atomic<std::uint64_t> g_run_ns{0};
std::atomic<std::uint64_t> g_timed_trials{0};
std::atomic<bool> g_record_breakdown{false};

TrialResult spectre_trial(const core::TrialContext& ctx) {
  const auto t0 = std::chrono::steady_clock::now();
  // Machine acquisition is the "setup" under test: a pool reset-reuse when
  // the campaign runner supplies a pool, a full construction otherwise.
  auto machine_lease =
      core::acquire_machine(ctx.machines, sim::MachineProfile::mobile(), ctx.seed);
  sim::Machine& machine = *machine_lease;
  const auto t1 = std::chrono::steady_clock::now();
  obs::Span body_span("trial_body", static_cast<std::int64_t>(ctx.index), "trial");
  attacks::SpectreV1 spectre(machine, 0);
  const sim::Word index = spectre.plant_secret("K");
  const auto byte = spectre.leak_byte(index);
  const auto t2 = std::chrono::steady_clock::now();
  if (g_record_breakdown.load(std::memory_order_relaxed)) {
    g_setup_ns.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count(),
        std::memory_order_relaxed);
    g_run_ns.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count(),
        std::memory_order_relaxed);
    g_timed_trials.fetch_add(1, std::memory_order_relaxed);
  }
  TrialResult r;
  r.leaked = byte.has_value() && *byte == 'K';
  r.value = byte.value_or(0xFFFF);
  return r;
}

std::size_t env_size_t(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  const std::size_t parsed = static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
  return parsed == 0 ? fallback : parsed;  // unparseable/zero -> default.
}

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  const double parsed = std::strtod(value, nullptr);
  return parsed <= 0.0 ? fallback : parsed;
}

bool env_flag(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' && std::strcmp(value, "0") != 0;
}

// ---- E12c helpers: loopback TCP shard workers ---------------------------

/// Forks a shard worker listening on an ephemeral loopback port (the same
/// code path the hwsec-shard-worker tool runs) and reports the port the
/// kernel assigned through a pipe. The child serves sessions until killed.
pid_t fork_tcp_worker(std::uint16_t& port_out) {
  int port_pipe[2];
  if (pipe(port_pipe) != 0) {
    return -1;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(port_pipe[0]);
    close(port_pipe[1]);
    return -1;
  }
  if (pid == 0) {
    close(port_pipe[0]);
    service::RemoteWorkerOptions options;
    options.listen_port = 0;
    options.serve_forever = true;
    options.worker_name = "bench-worker";
    options.on_listening = [fd = port_pipe[1]](std::uint16_t port) {
      (void)!write(fd, &port, sizeof(port));
      close(fd);
    };
    _exit(service::run_remote_worker(options));
  }
  close(port_pipe[1]);
  std::uint16_t port = 0;
  const ssize_t n = read(port_pipe[0], &port, sizeof(port));
  close(port_pipe[0]);
  if (n != sizeof(port)) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    return -1;
  }
  port_out = port;
  return pid;
}

void reap_worker(pid_t pid) {
  if (pid > 0) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
}

/// Slot-for-slot equality over service outcomes: the multi-host rows must
/// reproduce the in-process reference exactly (flag AND payload).
bool outcomes_identical(const service::ServiceOutcomes& got,
                        const service::ServiceOutcomes& want) {
  if (got.size() != want.size()) {
    return false;
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got[i].ok() != want[i].ok()) {
      return false;
    }
    if (want[i].ok() && !(got[i].value() == want[i].value())) {
      return false;
    }
  }
  return true;
}

void BM_Campaign32Trials(benchmark::State& state) {
  const core::CampaignConfig config{
      .seed = 2019, .trials = 32, .workers = static_cast<unsigned>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_campaign<TrialResult>(config, spectre_trial));
  }
}
BENCHMARK(BM_Campaign32Trials)->Arg(1)->Arg(4)->Iterations(2)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  using hwsec::bench::Table;

  // SIGTERM/SIGINT stop the sweep between campaigns, flush every artifact
  // (JSON, metrics, trace) below, and exit 128+signal — a partial sweep is
  // reported as partial, never silently truncated.
  core::install_graceful_shutdown();

  // --metrics-json=<path> (HWSEC_METRICS_JSON fallback): merged metrics
  // registry snapshot, written after the sweep.
  std::string metrics_path;
  if (const char* env = std::getenv("HWSEC_METRICS_JSON"); env != nullptr && *env != '\0') {
    metrics_path = env;
  }
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--metrics-json=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      metrics_path = argv[i] + std::strlen(kFlag);
      // Remove the flag so benchmark::Initialize below doesn't reject it.
      for (int j = i; j + 1 < argc; ++j) {
        argv[j] = argv[j + 1];
      }
      --argc;
      --i;
    }
  }

  const std::size_t trials = env_size_t("HWSEC_CAMPAIGN_TRIALS", 400);
  const unsigned host_cores = sim::ThreadPool::default_workers();
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const bool allow_oversubscribed = env_flag("HWSEC_CAMPAIGN_OVERSUBSCRIBE");

  hwsec::bench::section("E12 — campaign engine: Spectre-PHT trials/sec vs. workers");
  std::cout << "(" << trials << " trials per run, " << host_cores
            << " host workers available, " << hardware << " hardware threads)\n";

  struct Point {
    unsigned workers = 0;
    double seconds = 0.0;
    double trials_per_sec = 0.0;
    double speedup = 0.0;
    bool deterministic = false;
    bool oversubscribed = false;
    double peak_rss_mib = 0.0;  ///< process high-water mark after this row.
  };
  std::vector<unsigned> sweep;
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    if (workers <= hardware) {
      sweep.push_back(workers);
    } else if (allow_oversubscribed) {
      sweep.push_back(workers);  // kept, but marked and excluded from the floor.
    }
  }
  if (!allow_oversubscribed && sweep.size() < 4) {
    std::cout << "(sweep clamped to " << hardware
              << " hardware threads; oversubscribed rows are scheduler noise —\n"
                 " set HWSEC_CAMPAIGN_OVERSUBSCRIBE=1 to measure them anyway)\n";
  }

  Table t({"workers", "seconds", "trials/sec", "speedup", "bit-identical"},
          {9, 10, 12, 9, 14});
  t.print_header();

  std::vector<Point> curve;
  std::vector<TrialResult> baseline;

  // One machine pool shared by every worker-count run: the determinism
  // check below then also validates that machines reset-reused across
  // whole campaigns reproduce the sequential results bit for bit.
  core::MachinePool machine_pool;

  // Untimed warmup at the widest swept worker count: pool construction and
  // the one-off 16 MiB memory snapshot per machine happen here, so the
  // timed passes (and the setup-vs-run breakdown) measure steady-state
  // reset-reuse rather than cold builds.
  core::run_campaign<TrialResult>({.seed = 2019,
                                   .trials = 32,
                                   .workers = sweep.back(),
                                   .resilience = {.machines = &machine_pool}},
                                  spectre_trial);

  for (const unsigned workers : sweep) {
    if (core::shutdown_requested()) {
      break;
    }
    g_record_breakdown.store(workers == 1);
    const auto start = std::chrono::steady_clock::now();
    // The in-process path of run_campaign is the engine under test:
    // per-slot fault containment plus snapshot/reset machine pooling.
    const auto outcomes = core::run_campaign<TrialResult>(
        {.seed = 2019,
         .trials = trials,
         .workers = workers,
         .resilience = {.machines = &machine_pool}},
        spectre_trial);
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    g_record_breakdown.store(false);

    std::vector<TrialResult> results;
    results.reserve(outcomes.size());
    std::size_t failed = 0;
    for (const auto& o : outcomes) {
      if (o.ok()) {
        results.push_back(o.value());
      } else {
        ++failed;
        if (o.error.has_value()) {
          std::cerr << "trial failed: " << o.error->what() << "\n";
        }
      }
    }

    Point p;
    p.workers = workers;
    p.seconds = elapsed.count();
    p.trials_per_sec = static_cast<double>(trials) / p.seconds;
    p.oversubscribed = workers > hardware;
    p.peak_rss_mib = hwsec::bench::peak_rss_mib();
    if (workers == 1) {
      baseline = results;
      p.speedup = 1.0;
      p.deterministic = failed == 0;
    } else {
      p.speedup = curve.front().seconds / p.seconds;
      p.deterministic = failed == 0 && results == baseline;
    }
    curve.push_back(p);
    t.print_row(p.workers, p.seconds, p.trials_per_sec, p.speedup,
                p.deterministic       ? (p.oversubscribed ? "YES (oversub)" : "YES")
                : p.oversubscribed    ? "DIVERGED (oversub)"
                                      : "DIVERGED");
  }
  std::cout << "(speedup saturates at the host core count; bit-identical must\n"
               " read YES everywhere — the engine's determinism contract)\n";

  // ---- setup-vs-run breakdown (sequential pass) ------------------------
  const std::uint64_t timed = g_timed_trials.load();
  const double setup_ns_mean =
      timed == 0 ? 0.0 : static_cast<double>(g_setup_ns.load()) / static_cast<double>(timed);
  const double run_ns_mean =
      timed == 0 ? 0.0 : static_cast<double>(g_run_ns.load()) / static_cast<double>(timed);
  const double setup_fraction =
      setup_ns_mean + run_ns_mean <= 0.0 ? 0.0
                                         : setup_ns_mean / (setup_ns_mean + run_ns_mean);
  std::cout << "per-trial breakdown (sequential): setup "
            << setup_ns_mean / 1000.0 << " us, run " << run_ns_mean / 1000.0 << " us ("
            << setup_fraction * 100.0 << "% setup)\n"
            << "machine pool: " << machine_pool.machines_built() << " built, "
            << machine_pool.leases_served() << " leases served\n";

  // ---- sharded multi-process supervisor --------------------------------
  // Same engine, process-level parallelism: fork N workers, feed shards
  // over pipes, merge by trial index. Every row must be bit-identical to
  // the in-process reference — including the chaos row, where seeded
  // worker SIGKILLs force deaths, shard migrations, and respawns.
  struct ShardPoint {
    unsigned processes = 0;
    bool chaos = false;
    double seconds = 0.0;
    double trials_per_sec = 0.0;
    double speedup = 0.0;
    double setup_seconds = 0.0;  ///< per-run fork/pipe/warmup cost (see below).
    bool deterministic = false;
    double peak_rss_mib = 0.0;
    core::shard::ShardStats stats;
  };
  std::vector<ShardPoint> shard_curve;
  // Steady-state sizing: at the old 64-trial default the fork/pipe/machine
  // setup dominated the measurement and the speedup column read < 1
  // (0.07x at 4 procs in early BENCH_campaign.json) — a setup artifact
  // misreading as a scaling regression. The default now sizes the run so
  // trial work dominates the ~40ms-per-process setup (8192 trials is
  // ~0.5s of sequential work); the setup cost itself is also measured
  // separately and reported as its own column, so whatever fixed cost
  // remains is attributable instead of silently folded into "speedup".
  const std::size_t shard_trials =
      env_size_t("HWSEC_SHARD_TRIALS", std::max<std::size_t>(trials, 8192));
  if (!core::shutdown_requested()) {
    hwsec::bench::section("E12b — sharded campaigns: multi-process supervisor");
    std::cout << "(" << shard_trials << " trials per run; fork/pipe/merge must not change"
              << " a single byte)\n";
    std::vector<TrialResult> shard_baseline;
    double shard_seq_seconds = 0.0;
    {
      const auto t0 = std::chrono::steady_clock::now();
      const auto outcomes = core::run_campaign<TrialResult>(
          {.seed = 2027, .trials = shard_trials, .workers = 1}, spectre_trial);
      shard_seq_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      shard_baseline.reserve(outcomes.size());
      for (const auto& o : outcomes) {
        if (o.ok()) {
          shard_baseline.push_back(o.value());
        }
      }
    }
    Table st({"procs", "chaos", "setup s", "seconds", "trials/sec", "speedup",
              "bit-identical", "deaths", "respawns", "migrations"},
             {7, 7, 9, 10, 12, 9, 14, 8, 10, 11});
    st.print_header();
    struct ShardRow {
      unsigned procs;
      bool chaos;
    };
    for (const ShardRow row : {ShardRow{1, false}, ShardRow{2, false}, ShardRow{4, false},
                               ShardRow{4, true}}) {
      if (core::shutdown_requested()) {
        break;
      }
      core::ResilienceConfig res;
      core::shard::ShardConfig shard;
      shard.processes = row.procs;
      if (row.chaos) {
        res.chaos.worker_kill_probability = 0.02;
      }
      // Per-process setup cost, measured as its own quantity: a sharded run
      // with one trial per process is all fork/pipe/merge overhead (the
      // single trial per worker is noise at ~60us). This is the fixed cost
      // the old 64-trial default was unintentionally measuring.
      double setup_secs = 0.0;
      {
        const auto s0 = std::chrono::steady_clock::now();
        (void)core::run_campaign<TrialResult>(
            {.seed = 2027, .trials = row.procs, .workers = 1, .resilience = res, .shard = shard},
            spectre_trial);
        setup_secs =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - s0).count();
      }
      core::shard::ShardStats stats;
      const auto t0 = std::chrono::steady_clock::now();
      const auto outcomes = core::run_campaign<TrialResult>(
          {.seed = 2027, .trials = shard_trials, .workers = 1, .resilience = res, .shard = shard},
          spectre_trial, &stats);
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      std::vector<TrialResult> results;
      results.reserve(outcomes.size());
      for (const auto& o : outcomes) {
        if (o.ok()) {
          results.push_back(o.value());
        }
      }
      ShardPoint p;
      p.processes = row.procs;
      p.chaos = row.chaos;
      p.seconds = secs;
      p.trials_per_sec = static_cast<double>(shard_trials) / secs;
      p.speedup = shard_seq_seconds / secs;
      p.setup_seconds = setup_secs;
      p.deterministic = !core::shutdown_requested() && results == shard_baseline;
      p.peak_rss_mib = hwsec::bench::peak_rss_mib();
      p.stats = stats;
      shard_curve.push_back(p);
      st.print_row(p.processes, p.chaos ? "kill" : "-", p.setup_seconds, p.seconds,
                   p.trials_per_sec, p.speedup, p.deterministic ? "YES" : "DIVERGED",
                   p.stats.worker_deaths, p.stats.worker_respawns, p.stats.migrations);
    }
    std::cout << "(chaos row: seeded worker SIGKILLs — the supervisor migrates each dead\n"
                 " worker's shard and respawns it; the merged vector must still match)\n";
  }

  // ---- E12c: multi-host loopback — the campaign over real TCP ----------
  struct MultiHostPoint {
    std::size_t hosts = 0;
    bool chaos = false;
    double seconds = 0.0;
    double trials_per_sec = 0.0;
    double speedup = 0.0;
    bool deterministic = false;
    core::shard::ShardStats stats;
  };
  std::vector<MultiHostPoint> multihost_curve;
  double multihost_seq_seconds = 0.0;
  bool multihost_chaos_migrated = true;  // vacuous-chaos guard; false = chaos row never migrated.
  const std::size_t multihost_trials = env_size_t("HWSEC_MULTIHOST_TRIALS", 256);
  if (!core::shutdown_requested()) {
    hwsec::bench::section("E12c — multi-host campaigns: loopback TCP shard workers");
    std::cout << "(" << multihost_trials << " trials per run; forked hwsec-shard-worker"
              << " processes on 127.0.0.1,\n dialed through the spec host-discovery path;"
              << " N hosts must not change a byte)\n";

    // The spec-driven form of the E12 workload: remote workers rebuild the
    // trial body from these bytes after the handshake, so the campaign
    // identity digest covers everything that could change a result.
    service::CampaignSpec spec;
    spec.tenant = "bench";
    spec.kind = "spectre_leak";
    spec.seed = 2028;
    spec.trials = multihost_trials;

    service::ServiceOutcomes reference;
    {
      const auto t0 = std::chrono::steady_clock::now();
      reference = service::run_spec(spec, core::ResilienceConfig{});
      multihost_seq_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    }

    Table mt({"hosts", "chaos", "seconds", "trials/sec", "speedup", "bit-identical",
              "deaths", "migrations", "redials", "fallback"},
             {7, 7, 10, 12, 9, 14, 8, 11, 9, 10});
    mt.print_header();
    struct MultiHostRow {
      std::size_t hosts;
      bool chaos;
    };
    for (const MultiHostRow row : {MultiHostRow{1, false}, MultiHostRow{2, false},
                                   MultiHostRow{4, false}, MultiHostRow{2, true}}) {
      if (core::shutdown_requested()) {
        break;
      }
      std::vector<pid_t> workers;
      core::shard::ShardConfig shard_cfg;
      shard_cfg.processes = 0;  // every trial crosses the wire.
      bool spawned = true;
      for (std::size_t i = 0; i < row.hosts && spawned; ++i) {
        std::uint16_t port = 0;
        const pid_t pid = fork_tcp_worker(port);
        spawned = pid > 0;
        if (spawned) {
          workers.push_back(pid);
          shard_cfg.hosts.push_back({.host = "127.0.0.1", .port = port});
        }
      }
      if (!spawned) {
        std::cerr << "E12c: failed to fork a loopback worker; skipping hosts="
                  << row.hosts << "\n";
        for (const pid_t pid : workers) {
          reap_worker(pid);
        }
        continue;
      }
      shard_cfg.remote_spec_json = service::encode_spec(spec);
      core::ResilienceConfig res = service::spec_resilience(spec, {});
      if (row.chaos) {
        // Seeded self-SIGKILLs ship to the remote workers inside the
        // kWelcome frame; each kill takes down a whole listening worker, so
        // this row exercises disconnect -> migrate -> re-dial (refused) ->
        // budget exhaustion -> in-process fallback, end to end.
        res.chaos.worker_kill_probability = 0.02;
        shard_cfg.max_reconnects = 2;
      }
      const auto body = service::make_trial_body(spec);
      core::shard::ShardStats stats;
      const auto t0 = std::chrono::steady_clock::now();
      const auto outcomes = core::run_campaign<service::ServiceTrialResult>(
          {.seed = spec.seed,
           .trials = static_cast<std::size_t>(spec.trials),
           .workers = spec.workers,
           .resilience = res,
           .shard = shard_cfg},
          body, &stats);
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      for (const pid_t pid : workers) {
        reap_worker(pid);
      }
      MultiHostPoint p;
      p.hosts = row.hosts;
      p.chaos = row.chaos;
      p.seconds = secs;
      p.trials_per_sec = static_cast<double>(multihost_trials) / secs;
      p.speedup = multihost_seq_seconds / secs;
      p.deterministic = !core::shutdown_requested() && outcomes_identical(outcomes, reference);
      p.stats = stats;
      multihost_curve.push_back(p);
      if (row.chaos && stats.migrations == 0) {
        multihost_chaos_migrated = false;  // nothing died mid-shard: vacuous chaos.
      }
      mt.print_row(p.hosts, p.chaos ? "kill" : "-", p.seconds, p.trials_per_sec, p.speedup,
                   p.deterministic ? "YES" : "DIVERGED", p.stats.worker_deaths,
                   p.stats.migrations, p.stats.remote_reconnects, p.stats.fallback_trials);
    }
    std::cout << "(chaos row: worker kills sever the TCP link mid-shard; the supervisor\n"
              << " migrates, re-dials, and finishes in-process once the budget is spent —\n"
              << " with nonzero migrations, or the row counts as a failed run)\n";
  }

  // ---- machine-readable record for CI ----------------------------------
  const char* json_path_env = std::getenv("HWSEC_BENCH_JSON");
  const std::string json_path =
      json_path_env != nullptr && *json_path_env != '\0' ? json_path_env : "BENCH_campaign.json";
  bool all_deterministic = true;
  std::ostringstream json;
  json << "{\n"
       << "  \"experiment\": \"campaign_scaling\",\n"
       << "  \"trial_body\": \"spectre_pht_mobile\",\n"
       << "  \"trials\": " << trials << ",\n"
       << "  \"host_workers\": " << host_cores << ",\n"
       << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"sequential_trials_per_sec\": " << curve.front().trials_per_sec << ",\n"
       << "  \"setup_ns_mean\": " << setup_ns_mean << ",\n"
       << "  \"run_ns_mean\": " << run_ns_mean << ",\n"
       << "  \"setup_fraction\": " << setup_fraction << ",\n"
       << "  \"pool_machines_built\": " << machine_pool.machines_built() << ",\n"
       << "  \"pool_leases_served\": " << machine_pool.leases_served() << ",\n"
       << "  \"scaling\": [\n";
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const Point& p = curve[i];
    all_deterministic = all_deterministic && p.deterministic;
    json << "    {\"workers\": " << p.workers << ", \"seconds\": " << p.seconds
         << ", \"trials_per_sec\": " << p.trials_per_sec << ", \"speedup\": " << p.speedup
         << ", \"deterministic\": " << (p.deterministic ? "true" : "false")
         << ", \"oversubscribed\": " << (p.oversubscribed ? "true" : "false")
         << ", \"peak_rss_mib\": " << p.peak_rss_mib << "}"
         << (i + 1 < curve.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"sharded_scaling\": [\n";
  for (std::size_t i = 0; i < shard_curve.size(); ++i) {
    const ShardPoint& p = shard_curve[i];
    all_deterministic = all_deterministic && p.deterministic;
    json << "    {\"processes\": " << p.processes
         << ", \"chaos_kill\": " << (p.chaos ? "true" : "false")
         << ", \"seconds\": " << p.seconds << ", \"trials_per_sec\": " << p.trials_per_sec
         << ", \"speedup\": " << p.speedup << ", \"setup_seconds\": " << p.setup_seconds
         << ", \"peak_rss_mib\": " << p.peak_rss_mib
         << ", \"deterministic\": " << (p.deterministic ? "true" : "false")
         << ", \"worker_deaths\": " << p.stats.worker_deaths
         << ", \"worker_respawns\": " << p.stats.worker_respawns
         << ", \"migrations\": " << p.stats.migrations
         << ", \"duplicate_trials\": " << p.stats.duplicate_trials
         << ", \"fallback_trials\": " << p.stats.fallback_trials << "}"
         << (i + 1 < shard_curve.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"multihost_scaling\": [\n";
  for (std::size_t i = 0; i < multihost_curve.size(); ++i) {
    const MultiHostPoint& p = multihost_curve[i];
    all_deterministic = all_deterministic && p.deterministic;
    json << "    {\"hosts\": " << p.hosts
         << ", \"chaos_kill\": " << (p.chaos ? "true" : "false")
         << ", \"seconds\": " << p.seconds << ", \"trials_per_sec\": " << p.trials_per_sec
         << ", \"speedup\": " << p.speedup
         << ", \"deterministic\": " << (p.deterministic ? "true" : "false")
         << ", \"worker_deaths\": " << p.stats.worker_deaths
         << ", \"migrations\": " << p.stats.migrations
         << ", \"remote_workers\": " << p.stats.remote_workers
         << ", \"remote_reconnects\": " << p.stats.remote_reconnects
         << ", \"fallback_trials\": " << p.stats.fallback_trials << "}"
         << (i + 1 < multihost_curve.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"multihost_trials\": " << multihost_trials << ",\n"
       << "  \"multihost_chaos_migrated\": " << (multihost_chaos_migrated ? "true" : "false")
       << ",\n"
       << "  \"shard_trials\": " << shard_trials << ",\n"
       << "  \"peak_rss_mib\": " << hwsec::bench::peak_rss_mib() << ",\n"
       << "  \"all_deterministic\": " << (all_deterministic ? "true" : "false") << "\n"
       << "}\n";
  // Atomic write: a run killed mid-write can never leave a torn JSON for
  // CI to archive — it sees the previous complete file or the new one.
  if (core::write_file_atomic(json_path, json.str())) {
    std::cout << "wrote " << json_path << "\n";
  } else {
    std::cerr << "failed to write " << json_path << "\n";
  }

  // ---- observability records -------------------------------------------
  if (!metrics_path.empty()) {
    if (core::write_file_atomic(metrics_path, obs::MetricsRegistry::instance().to_json())) {
      std::cout << "wrote " << metrics_path << "\n";
    } else {
      std::cerr << "failed to write " << metrics_path << "\n";
    }
  }
  obs::Tracer& tracer = obs::Tracer::instance();
  if (!tracer.autodump_path().empty()) {
    // The atexit hook writes this too; writing here as well guarantees a
    // complete trace even if the benchmark-library pass below aborts.
    if (tracer.write(tracer.autodump_path())) {
      std::cout << "wrote " << tracer.autodump_path() << "\n";
    }
  }

  // ---- graceful shutdown exit ------------------------------------------
  // Everything above (results JSON, metrics, trace) is already flushed; a
  // signal-interrupted sweep exits with the conventional 128+signal so the
  // caller knows the artifacts describe a partial run.
  if (core::shutdown_requested()) {
    std::cerr << "shutdown requested (signal " << core::shutdown_signal()
              << "); artifacts flushed, exiting " << core::shutdown_exit_code() << "\n";
    return core::shutdown_exit_code();
  }

  // ---- perf smoke floor (CI) -------------------------------------------
  // HWSEC_CAMPAIGN_MIN_TPS sets a sequential trials/sec floor; a run below
  // it fails, catching setup-cost regressions before they land. Only
  // non-oversubscribed rows are eligible — the floor reads the sequential
  // (workers=1) row, which by construction never oversubscribes, so small
  // CI runners can't flake it with scheduler noise.
  const double min_tps = env_double("HWSEC_CAMPAIGN_MIN_TPS", 0.0);
  bool fast_enough = true;
  if (min_tps > 0.0) {
    for (const Point& p : curve) {
      if (p.oversubscribed) {
        continue;  // scheduler noise never trips (or excuses) the floor.
      }
      if (p.workers == 1) {
        fast_enough = p.trials_per_sec >= min_tps;
        std::cout << "perf floor: " << p.trials_per_sec << " trials/sec vs. floor "
                  << min_tps << " -> " << (fast_enough ? "OK" : "REGRESSION") << "\n";
      }
    }
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return all_deterministic && fast_enough && multihost_chaos_migrated ? 0 : 1;
}
