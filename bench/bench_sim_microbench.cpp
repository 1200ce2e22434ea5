// Substrate microbenchmarks (host performance of the simulator itself,
// straight google-benchmark): how fast the framework simulates cache
// accesses, executes instructions, encrypts, and crunches traces. These
// numbers bound experiment design (how many trials a bench can afford),
// not any paper claim.
#include <benchmark/benchmark.h>

#include <chrono>

#include "attacks/physical/power_analysis.h"
#include "attacks/transient/environment.h"
#include "attacks/transient/spectre.h"
#include "crypto/aes.h"
#include "crypto/sha256.h"
#include "sca/cpa.h"
#include "sim/machine.h"

namespace sim = hwsec::sim;
namespace crypto = hwsec::crypto;
namespace attacks = hwsec::attacks;
namespace sca = hwsec::sca;

namespace {

void BM_CacheTouch(benchmark::State& state) {
  sim::Machine machine(sim::MachineProfile::server(), 1);
  const sim::PhysAddr base = machine.alloc_frames(64);
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.touch(0, 0, base + (i * 64) % (64 * sim::kPageSize)));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheTouch);

void BM_CpuInstructionThroughput(benchmark::State& state) {
  sim::Machine machine(sim::MachineProfile::server(), 2);
  machine.cpu(0).mmu().set_bare_mode(true);
  sim::ProgramBuilder b(0x3000);
  b.label("loop")
      .addi(sim::R1, sim::R1, 1)
      .xori(sim::R2, sim::R1, 0x55)
      .andi(sim::R3, sim::R2, 0xFF)
      .jump("loop");
  const sim::Program p = b.build();
  machine.cpu(0).load_program(p);
  machine.cpu(0).set_pc(p.base);
  for (auto _ : state) {
    machine.cpu(0).run(10'000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10'000);
}
BENCHMARK(BM_CpuInstructionThroughput)->Unit(benchmark::kMillisecond);

void BM_AesTTableEncrypt(benchmark::State& state) {
  const crypto::AesKey key{};
  crypto::AesTTable aes(key);
  crypto::AesBlock block{};
  for (auto _ : state) {
    block = aes.encrypt(block);
    benchmark::DoNotOptimize(block);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AesTTableEncrypt);

void BM_AesConstantTimeEncrypt(benchmark::State& state) {
  const crypto::AesKey key{};
  crypto::AesConstantTime aes(key);
  crypto::AesBlock block{};
  for (auto _ : state) {
    block = aes.encrypt(block);
    benchmark::DoNotOptimize(block);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AesConstantTimeEncrypt);

void BM_Sha256PerKiB(benchmark::State& state) {
  const std::string data(1024, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256PerKiB);

void BM_TraceCollection(benchmark::State& state) {
  const crypto::AesKey key{};
  sca::RecorderConfig rec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        attacks::collect_aes_traces(key, attacks::AesVariant::kTTable, 32, rec));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_TraceCollection)->Unit(benchmark::kMillisecond);

void BM_CpaKeyAttack(benchmark::State& state) {
  const crypto::AesKey key{};
  sca::RecorderConfig rec;
  const auto set = attacks::collect_aes_traces(key, attacks::AesVariant::kTTable,
                                               static_cast<std::size_t>(state.range(0)), rec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sca::cpa_attack_key(set));
  }
}
BENCHMARK(BM_CpaKeyAttack)->Arg(128)->Arg(1024)->Unit(benchmark::kMillisecond);

sim::MachineProfile profile_arg(std::int64_t arg) {
  switch (arg) {
    case 0:
      return sim::MachineProfile::embedded();
    case 1:
      return sim::MachineProfile::mobile();
    default:
      return sim::MachineProfile::server();
  }
}

/// A cold machine: construction plus the pristine snapshot, which is what
/// a machine pool pays once per machine.
void BM_MachineBuild(benchmark::State& state) {
  const sim::MachineProfile profile = profile_arg(state.range(0));
  for (auto _ : state) {
    sim::Machine machine(profile, 1);
    benchmark::DoNotOptimize(machine.snapshot());
  }
  state.SetLabel(profile.name);
}
BENCHMARK(BM_MachineBuild)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);

/// A warm machine: reset_to + reseed after one Spectre-PHT trial on a
/// mobile machine, what a pool pays per trial. Only the reset is timed.
void BM_MachineReset(benchmark::State& state) {
  sim::Machine machine(sim::MachineProfile::mobile(), 1);
  const sim::MachineSnapshot pristine = machine.snapshot();
  for (auto _ : state) {
    {
      attacks::SpectreV1 spectre(machine, 0);
      benchmark::DoNotOptimize(spectre.leak_byte(spectre.plant_secret("K")));
    }
    const auto start = std::chrono::steady_clock::now();
    machine.reset_to(pristine);
    machine.reseed(1);
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
  }
}
BENCHMARK(BM_MachineReset)->UseManualTime()->Unit(benchmark::kMicrosecond);

/// A mobile machine restored to its pristine snapshot, then one full
/// Spectre-PHT trial (train, flush, victim run, reload sweep) on top: the
/// cache state the probe-array channel works in.
struct SpectreScene {
  sim::Machine machine{sim::MachineProfile::mobile(), 1};
  sim::MachineSnapshot pristine = machine.snapshot();

  attacks::SpectreV1 run_trial() {
    machine.reset_to(pristine);
    machine.reseed(1);
    attacks::SpectreV1 spectre(machine, 0);
    benchmark::DoNotOptimize(spectre.leak_byte(spectre.plant_secret("K")));
    return spectre;
  }
};

/// The untimed trial dwarfs the timed operation, so the scene benchmarks
/// run a fixed count instead of letting the manual time pick one.
constexpr std::int64_t kSceneIterations = 20'000;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// flush_lines over the 256-line probe array. Arg 0: the receive-window
/// flush of a trial (no probe line cached; the trial's code, data and
/// page-table lines are). Arg 1: right after the reload sweep (every probe
/// line cached in the L1D and the LLC).
void BM_FlushLines(benchmark::State& state) {
  SpectreScene scene;
  const bool warm = state.range(0) == 1;
  for (auto _ : state) {
    attacks::SpectreV1 spectre = scene.run_trial();
    const sim::PhysAddr probe = spectre.process().probe_phys();
    if (!warm) {
      scene.machine.flush_lines(probe, attacks::kProbeStride, 256);
    }
    const auto start = std::chrono::steady_clock::now();
    scene.machine.flush_lines(probe, attacks::kProbeStride, 256);
    state.SetIterationTime(seconds_since(start));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
  state.SetLabel(warm ? "probe cached" : "probe flushed");
}
BENCHMARK(BM_FlushLines)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Iterations(kSceneIterations)
    ->Unit(benchmark::kNanosecond);

/// hottest_probe_line after a receive window in which one line ('K') was
/// heated: 256 timed reloads, each an L1D and an LLC miss but one.
void BM_ProbeReload(benchmark::State& state) {
  SpectreScene scene;
  for (auto _ : state) {
    attacks::SpectreV1 spectre = scene.run_trial();
    attacks::UserProcess& process = spectre.process();
    process.flush_probe();
    scene.machine.touch(0, sim::kDomainNormal, process.probe_phys() + 'K' * attacks::kProbeStride);
    const auto start = std::chrono::steady_clock::now();
    const auto hot = process.hottest_probe_line();
    state.SetIterationTime(seconds_since(start));
    if (hot != 'K') {
      state.SkipWithError("reload sweep did not find the heated line");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_ProbeReload)
    ->UseManualTime()
    ->Iterations(kSceneIterations)
    ->Unit(benchmark::kMicrosecond);

/// CacheHierarchy::restore of the pristine snapshot after one trial: the
/// cache share of a pool reset (journalled lines copied back per level).
void BM_CacheRestore(benchmark::State& state) {
  SpectreScene scene;
  for (auto _ : state) {
    scene.run_trial();
    const auto start = std::chrono::steady_clock::now();
    scene.machine.caches().restore(scene.pristine.caches);
    state.SetIterationTime(seconds_since(start));
  }
}
BENCHMARK(BM_CacheRestore)
    ->UseManualTime()
    ->Iterations(kSceneIterations)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
