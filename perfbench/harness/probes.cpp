// Per-call layer probes and per-trial simulated counts for traced runs.
//
// Each probe calls one public function of one layer in a loop, on a
// machine that has already run one Spectre trial (the post-warm-up state
// campaign trials start from), and reports the wall time per call. They
// run in every traced run, whatever its workload. The simulated counts are
// read from the counters the simulator already keeps (CacheStats, Tlb
// hits/misses, CpuStats, the fault injector) around each trial of a fixed
// campaign at the default seed and around the seed-42 Figure-1 paths, so
// two commits can be compared exactly.
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attacks/cache/cache_attacks.h"
#include "attacks/cache/victim.h"
#include "attacks/physical/power_analysis.h"
#include "attacks/transient/spectre.h"
#include "common.h"
#include "core/evaluation.h"
#include "core/json.h"
#include "core/machine_pool.h"
#include "core/obs/trace.h"
#include "core/shard/net.h"
#include "core/shard/transport.h"
#include "core/shard/wire.h"
#include "sca/streaming.h"
#include "sim/machine.h"
#include "sim/program.h"
#include "sim/uop.h"

namespace perfbench {

namespace core = hwsec::core;
namespace shard = hwsec::core::shard;
namespace sim = hwsec::sim;
namespace sca = hwsec::sca;
namespace attacks = hwsec::attacks;
namespace obs = hwsec::obs;

namespace {

constexpr int kRepeats = 5;

using Counts = std::map<std::string, std::uint64_t>;

/// The simulator's own event counters, summed over cores and caches.
Counts read_counts(sim::Machine& machine) {
  Counts c;
  auto add_cache = [&c](const sim::Cache& cache, const std::string& level) {
    const sim::CacheStats& s = cache.stats();
    c["sim.cache." + level + ".accesses"] += s.hits + s.misses;
    c["sim.cache." + level + ".misses"] += s.misses;
    c["sim.cache.evictions"] += s.evictions;
    c["sim.cache.flushes"] += s.flushes;
  };
  const sim::CacheHierarchy& caches = machine.caches();
  // Through a const reference: the non-const Cpu accessors mark the core
  // dirty for the next snapshot restore.
  const sim::Machine& cmachine = machine;
  for (sim::CoreId core = 0; core < machine.num_cores(); ++core) {
    if (caches.config().has_l1) {
      add_cache(caches.l1d(core), "l1d");
      add_cache(caches.l1i(core), "l1i");
    }
    const sim::Cpu& cpu = cmachine.cpu(core);
    c["sim.tlb.lookups"] += cpu.mmu().tlb().hits() + cpu.mmu().tlb().misses();
    c["sim.tlb.misses"] += cpu.mmu().tlb().misses();
    c["sim.cpu.retired"] += cpu.stats().retired;
    c["sim.cpu.transient_executed"] += cpu.stats().transient_executed;
  }
  if (caches.config().has_llc) {
    add_cache(caches.llc(), "llc");
  }
  return c;
}

/// Books after - before of every count in rec.sim_counts under `prefix`.
void book_counts(Record& rec, const std::string& prefix, const Counts& before,
                 const Counts& after) {
  for (const auto& [name, value] : after) {
    rec.sim_counts[prefix + name].push_back(static_cast<double>(value - before.at(name)));
  }
}

/// Median over kRepeats of the seconds per call of `calls` calls of `fn`.
template <typename Fn>
double per_call(std::size_t calls, Fn&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) {
      fn(i);
    }
    samples.push_back(seconds_since(t0) / static_cast<double>(calls));
  }
  return median(samples);
}

void spectre_trial(sim::Machine& machine) {
  attacks::SpectreV1 spectre(machine, 0);
  (void)spectre.leak_byte(spectre.plant_secret("K"));
}

sim::MachineSnapshot pristine_snapshot(sim::Machine& machine,
                                       const std::shared_ptr<sim::UopCache>& uops) {
  machine.set_uop_cache(uops);
  return machine.snapshot();
}

/// A machine set up as MachinePool sets one up (shared decode cache,
/// pristine snapshot), after one trial.
struct WarmMachine {
  std::shared_ptr<sim::UopCache> uops = std::make_shared<sim::UopCache>();
  sim::Machine machine{sim::MachineProfile::mobile(), kDefaultSeed};
  sim::MachineSnapshot pristine = pristine_snapshot(machine, uops);

  WarmMachine() { spectre_trial(machine); }
  // The snapshot is bound to this machine's address.
  WarmMachine(const WarmMachine&) = delete;
  WarmMachine& operator=(const WarmMachine&) = delete;
};

void cache_probes(Record& rec) {
  WarmMachine warm;
  sim::Cache& l1 = warm.machine.caches().l1d(0);
  const sim::PhysAddr base = 0x0100'0000;
  const std::uint32_t line = l1.config().line_size;
  const std::uint32_t resident = 64;  // well inside L1D.
  const std::uint32_t streaming = 4 * l1.config().size_bytes / line;  // 4x L1D under LRU.
  for (std::uint32_t i = 0; i < resident; ++i) {
    l1.access(base + i * line, sim::kDomainNormal, sim::AccessType::kRead);
  }
  const std::uint64_t hits0 = l1.stats().hits;
  const std::size_t calls = 200'000;
  rec.layers["sim.cache.access_hit_ns"] = 1e9 * per_call(calls, [&](std::size_t i) {
    l1.access(base + static_cast<std::uint32_t>(i % resident) * line, sim::kDomainNormal,
              sim::AccessType::kRead);
  });
  rec.check(l1.stats().hits - hits0 == kRepeats * calls, "hit probe missed in L1D");

  const sim::PhysAddr stream_base = 0x0200'0000;
  const std::uint64_t misses0 = l1.stats().misses;
  rec.layers["sim.cache.access_miss_ns"] = 1e9 * per_call(calls, [&](std::size_t i) {
    l1.access(stream_base + static_cast<std::uint32_t>(i % streaming) * line,
              sim::kDomainNormal, sim::AccessType::kRead);
  });
  rec.check(l1.stats().misses - misses0 == kRepeats * calls, "miss probe hit in L1D");

  // The Spectre receive window: flush the 256-line probe array after a few
  // of its lines were loaded.
  const sim::PhysAddr probe = 0x0300'0000;
  const std::uint32_t lines = 256;
  const std::size_t flushes = 2'000;
  double flush_s = 0.0;
  for (std::size_t f = 0; f < flushes; ++f) {
    for (std::uint32_t j = 0; j < 4; ++j) {
      warm.machine.touch(0, sim::kDomainNormal,
                         probe + static_cast<std::uint32_t>((f * 37 + j * 61) % lines) * 64);
    }
    const auto t0 = Clock::now();
    warm.machine.caches().flush_lines(probe, 64, lines);
    flush_s += seconds_since(t0);
  }
  rec.layers["sim.cache.flush_lines_ns_per_line"] =
      1e9 * flush_s / static_cast<double>(flushes * lines);
}

void tlb_probe(Record& rec) {
  WarmMachine warm;
  sim::Tlb& tlb = warm.machine.cpu(0).mmu().tlb();
  const std::uint32_t pages = 16;
  const sim::Asid asid = 3;
  for (std::uint32_t p = 0; p < pages; ++p) {
    tlb.insert(0x0800'0000 + p * sim::kPageSize, 0x0100'0000 + p * sim::kPageSize,
               sim::pte::kPresent | sim::pte::kUser, asid);
  }
  std::uint64_t found = 0;
  rec.layers["sim.tlb.lookup_ns"] = 1e9 * per_call(200'000, [&](std::size_t i) {
    found += tlb.lookup(0x0800'0000 + static_cast<std::uint32_t>(i % pages) * sim::kPageSize,
                        asid)
                 .has_value();
  });
  rec.check(found == kRepeats * 200'000ull, "TLB probe missed");
}

void reset_probe(Record& rec) {
  WarmMachine warm;
  std::vector<double> samples;
  for (std::uint64_t i = 0; i < 300; ++i) {
    warm.machine.reset_to(warm.pristine);
    warm.machine.reseed(sim::derive_seed(kDefaultSeed, i));
    spectre_trial(warm.machine);
    const auto t0 = Clock::now();
    warm.machine.reset_to(warm.pristine);
    samples.push_back(seconds_since(t0));
  }
  rec.layers["sim.machine.reset_us"] = 1e6 * median(samples);
}

/// The two halves of a pooled Spectre-PHT trial, timed apart per trial:
/// acquire_machine on a warmed pool, then the attack body (SpectreV1
/// construction, plant_secret, leak_byte) as the spectre_leak kind runs it.
void pool_and_attack_probe(Record& rec) {
  constexpr std::uint64_t kTrials = 2000;
  core::MachinePool pool;
  {
    auto lease = core::acquire_machine(&pool, sim::MachineProfile::mobile(), kDefaultSeed);
    spectre_trial(*lease);
  }
  std::vector<double> acquire_s;
  std::vector<double> body_s;
  for (std::uint64_t i = 0; i < kTrials; ++i) {
    const auto t0 = Clock::now();
    auto lease = core::acquire_machine(&pool, sim::MachineProfile::mobile(),
                                       sim::derive_seed(kDefaultSeed, i));
    const auto t1 = Clock::now();
    spectre_trial(*lease);
    acquire_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    body_s.push_back(seconds_since(t1));
  }
  rec.layers["core.machine_pool.acquire_us"] = 1e6 * median(acquire_s);
  rec.layers["attacks.spectre.body_us"] = 1e6 * median(body_s);
}

std::string ratio(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

void append_probes(std::ostringstream& out, const std::vector<core::AttackProbe>& probes) {
  out << "[";
  for (std::size_t i = 0; i < probes.size(); ++i) {
    out << (i ? "," : "") << "{\"name\":\"" << core::json_escape(probes[i].name)
        << "\",\"applicable\":" << (probes[i].applicable ? "true" : "false")
        << ",\"succeeded\":" << (probes[i].succeeded ? "true" : "false") << "}";
  }
  out << "]";
}

/// The matrix in the layout of tests/golden/figure1.json (run.py compares
/// the parsed documents).
std::string matrix_json(const std::vector<core::PlatformEvaluation>& columns) {
  std::ostringstream out;
  out << "{\"figure1\":[";
  for (std::size_t c = 0; c < columns.size(); ++c) {
    const core::PlatformEvaluation& e = columns[c];
    out << (c ? "," : "") << "{\"platform\":\"" << core::json_escape(e.platform)
        << "\",\"levels\":{\"remote\":" << e.remote << ",\"local\":" << e.local
        << ",\"classical_physical\":" << e.classical_physical
        << ",\"microarchitectural\":" << e.microarchitectural
        << ",\"performance\":" << e.performance << ",\"energy_budget\":" << e.energy_budget
        << "},\"uarch_success_rate\":" << ratio(e.uarch_success_rate)
        << ",\"physical_success_rate\":" << ratio(e.physical_success_rate)
        << ",\"physical_exposure\":" << ratio(e.physical_exposure) << ",\"uarch_probes\":";
    append_probes(out, e.uarch_probes);
    out << ",\"physical_probes\":";
    append_probes(out, e.physical_probes);
    out << "}";
  }
  out << "]}";
  return out.str();
}

/// One seed-42 Figure-1 evaluation on a fresh pool, as
/// evaluate_all_platforms(42, 1, &pool) runs it: one evaluate_platform per
/// class in order, each timed, with the program's tracer on for its
/// probe:* spans. The matrix goes to run.py's golden check; each platform's
/// reference-workload MIPS and nJ per instruction, pure functions of its
/// simulated cycles, retired instructions and energy, go to the simulated
/// counts.
void evaluation_probe(Record& rec) {
  constexpr std::uint64_t kGoldenSeed = 42;
  constexpr std::uint64_t kTasksPerPlatform = 6;  // reference workload + five attacks.
  const sim::DeviceClass classes[] = {sim::DeviceClass::kServer, sim::DeviceClass::kMobile,
                                      sim::DeviceClass::kEmbedded};
  const char* const class_layers[] = {"core.evaluation.server_ms", "core.evaluation.mobile_ms",
                                      "core.evaluation.embedded_ms"};
  core::MachinePool pool;
  std::vector<core::PlatformEvaluation> evals;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_enabled(true);
  for (std::size_t c = 0; c < 3; ++c) {
    const auto t0 = Clock::now();
    evals.push_back(core::evaluate_platform(classes[c], kGoldenSeed, 1, &pool));
    rec.layers[class_layers[c]] = 1e3 * seconds_since(t0);
  }
  tracer.set_enabled(false);
  for (const auto& e : evals) {
    rec.attempted += kTasksPerPlatform;
    rec.failed += e.errors.size();
    rec.sim_counts["figure1." + e.platform + ".mips"].push_back(e.mips);
    rec.sim_counts["figure1." + e.platform + ".nj_per_instruction"].push_back(
        e.nj_per_instruction);
  }
  rec.checks["figure1_seed42"] = matrix_json(evals);
  rec.layers["core.machine_pool.machines_built"] = static_cast<double>(pool.machines_built());

  core::JsonValue doc;
  std::string error;
  if (!core::parse_json(tracer.export_json(), doc, &error)) {
    throw std::runtime_error("cannot parse the exported trace: " + error);
  }
  std::uint64_t spans = 0;
  if (const core::JsonValue* events = doc.find("traceEvents")) {
    for (const auto& e : events->array) {
      const core::JsonValue* name = e.find("name");
      const core::JsonValue* dur = e.find("dur");
      if (name != nullptr && dur != nullptr && name->string.rfind("probe:", 0) == 0) {
        rec.layers["core.evaluation.probe." + name->string.substr(6) + "_ms"] +=
            dur->number / 1e3;
        ++spans;
      }
    }
  }
  rec.check(spans == 3 * kTasksPerPlatform, "tracer lost probe:* spans");
}

/// Millions of committed instructions per second of a dense ALU loop
/// through Cpu::run. MMU machines run it in supervisor mode over a flat
/// mapping, as the Figure-1 reference workload does. The first run's
/// simulated counts go to the record.
double cpu_minstr_per_s(const sim::MachineProfile& profile, Record& rec) {
  sim::Machine machine(profile, kDefaultSeed);
  sim::Cpu& cpu = machine.cpu(0);
  const std::int64_t iterations = 250'000;
  sim::ProgramBuilder b(0x1000);
  b.label("start")
      .li(sim::R1, 0)
      .li(sim::R2, iterations)
      .label("loop")
      .addi(sim::R1, sim::R1, 1)
      .xori(sim::R3, sim::R1, 0x55)
      .add(sim::R4, sim::R3, sim::R1)
      .br(sim::BranchCond::kLtu, sim::R1, sim::R2, "loop")
      .halt();
  const sim::Program program = b.build();
  if (profile.has_mmu) {
    sim::AddressSpace as = machine.create_address_space();
    as.map(sim::page_base(program.base), sim::page_base(program.base),
           sim::pte::kWritable | sim::pte::kExecutable);
    cpu.switch_context(sim::kDomainNormal, sim::Privilege::kSupervisor, as.root(), 0);
  }
  cpu.load_program(program);
  std::vector<double> samples;
  for (int r = 0; r < kRepeats; ++r) {
    const Counts before = read_counts(machine);
    const auto t0 = Clock::now();
    const sim::RunResult run = cpu.run_from(program.address_of("start"), 4 * iterations + 16);
    const double dt = seconds_since(t0);
    if (!run.halted) {
      throw std::runtime_error("dense CPU loop did not halt");
    }
    if (r == 0) {
      book_counts(rec, "cpu_loop." + profile.name + ".", before, read_counts(machine));
    }
    samples.push_back(static_cast<double>(run.executed) / dt / 1e6);
  }
  return median(samples);
}

/// Both ends of a socketpair as shard transports.
struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw std::runtime_error("socketpair failed");
    }
  }
};

void wire_probes(Record& rec) {
  SocketPair pair;
  shard::FdTransport receiver(pair.fds[1], pair.fds[1]);
  shard::TrialPayload trial;
  trial.record.ok = true;
  trial.record.attempts = 1;
  trial.record.payload.assign(16, '\x5a');
  const std::size_t batch = 64;  // well inside the socket buffer.
  const std::size_t rounds = 400;
  double encode_s = 0.0;
  double decode_s = 0.0;
  std::uint64_t decoded = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) {
      trial.index = r * batch + i;
      shard::write_frame(pair.fds[0],
                         shard::Frame{shard::FrameType::kTrial, shard::encode_trial(trial)});
    }
    const auto t1 = Clock::now();
    std::size_t got = 0;
    while (got < batch) {
      if (!receiver.pump() || receiver.corrupt()) {
        throw std::runtime_error("wire probe lost its socketpair stream");
      }
      shard::Frame frame;
      while (receiver.next(frame)) {
        shard::TrialPayload out;
        decoded += shard::decode_trial(frame.payload, out) && out.index == r * batch + got;
        ++got;
      }
    }
    const auto t2 = Clock::now();
    encode_s += std::chrono::duration<double>(t1 - t0).count();
    decode_s += std::chrono::duration<double>(t2 - t1).count();
  }
  ::close(pair.fds[0]);
  rec.check(decoded == rounds * batch, "wire probe decoded a frame wrongly");
  const double frames = static_cast<double>(rounds * batch);
  rec.layers["core.shard.wire.encode_trial_ns"] = 1e9 * encode_s / frames;
  rec.layers["core.shard.wire.decode_trial_ns"] = 1e9 * decode_s / frames;
}

void handshake_probe(Record& rec) {
  SocketPair pair;
  shard::FdTransport supervisor(pair.fds[0], pair.fds[0]);
  shard::FdTransport worker(pair.fds[1], pair.fds[1]);
  shard::RemoteCampaignInfo info;
  info.spec_json = R"({"hwsec_spec_version":1,"tenant":"perfbench","kind":"spectre_leak"})";
  info.digest = shard::fnv1a64(info.spec_json);
  const int rounds = 500;
  const std::chrono::milliseconds timeout(2000);
  int worker_ok = 0;
  std::thread peer([&] {
    shard::HelloPayload hello;
    hello.expect_digest = info.digest;
    hello.worker_name = "perfbench";
    for (int i = 0; i < rounds; ++i) {
      shard::WelcomePayload welcome;
      std::string error;
      worker_ok += shard::handshake_connect(worker, hello, timeout, welcome, error) ? 1 : 0;
    }
  });
  std::vector<double> samples;
  int supervisor_ok = 0;
  for (int i = 0; i < rounds; ++i) {
    shard::HelloPayload hello;
    std::string error;
    const auto t0 = Clock::now();
    supervisor_ok += shard::handshake_accept(supervisor, info, timeout, hello, error) ? 1 : 0;
    samples.push_back(seconds_since(t0));
  }
  peer.join();
  rec.check(worker_ok == rounds && supervisor_ok == rounds, "handshake probe failed");
  rec.layers["core.shard.handshake_us"] = 1e6 * median(samples);
}

/// Nanoseconds per trace of StreamingCpa::add_batch on 64-trace batches,
/// the batch size cpa_stream captures.
double streaming_update_ns() {
  const hwsec::crypto::AesKey key = {0x10, 0xa5, 0x88, 0x69, 0xd7, 0x4b, 0xe5, 0xa3,
                                     0x74, 0xcf, 0x86, 0x7c, 0xfb, 0x47, 0x38, 0x59};
  sca::RecorderConfig recorder;
  recorder.noise_sigma = 1.0;
  const sca::TraceSet batch = attacks::collect_aes_trace_batch(
      key, attacks::AesVariant::kTTable, 0, 64, recorder, kDefaultSeed);
  sca::StreamingCpa acc(attacks::kAesSamplesPerTrace);
  const double per_batch = per_call(200, [&](std::size_t) { acc.add_batch(batch); });
  return 1e9 * per_batch / static_cast<double>(batch.size());
}

}  // namespace

void run_layer_probes(Record& rec) {
  cache_probes(rec);
  tlb_probe(rec);
  reset_probe(rec);
  pool_and_attack_probe(rec);
  rec.layers["sim.cpu.uop_minstr_per_s"] = cpu_minstr_per_s(sim::MachineProfile::mobile(), rec);
  rec.layers["sim.cpu.step_minstr_per_s"] =
      cpu_minstr_per_s(sim::MachineProfile::embedded(), rec);
  wire_probes(rec);
  handshake_probe(rec);
  evaluation_probe(rec);
  // cpa_stream times the update inside its own capture pipeline; the
  // other workloads take this per-call figure.
  if (rec.layers.count("sca.streaming.update_ns_per_trace") == 0) {
    rec.layers["sca.streaming.update_ns_per_trace"] = streaming_update_ns();
  }
}

namespace {

/// The Figure-1 paths the reference campaign never takes, replayed as
/// evaluate_platform(class, 42, 1, &pool) runs them: LLC Prime+Probe on the
/// server (seed 42 + 3) and the glitch loop through the fault injector on
/// every class (seed 42 + 5).
void figure1_path_counts(Record& rec) {
  constexpr std::uint64_t kGoldenSeed = 42;
  core::MachinePool pool;
  {
    auto lease = core::acquire_machine(&pool, sim::MachineProfile::server(), kGoldenSeed + 3);
    sim::Machine& machine = *lease;
    const Counts before = read_counts(machine);
    const hwsec::crypto::AesKey key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                                       0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
    const sim::PhysAddr tables = machine.alloc_frames(2);
    attacks::AesCacheVictim victim(machine, 1, 7, tables, key);
    attacks::CacheAttackConfig config;
    config.trials = 400;
    const auto result = attacks::prime_probe_attack(
        machine, victim.layout(),
        [&victim](const hwsec::crypto::AesBlock& pt) { return victim.encrypt(pt); }, config);
    book_counts(rec, "figure1.server.prime_probe.", before, read_counts(machine));
    rec.sim_counts["figure1.server.prime_probe.correct_nibbles"].push_back(
        result.correct_nibbles(key));
  }
  for (const sim::MachineProfile& profile :
       {sim::MachineProfile::server(), sim::MachineProfile::mobile(),
        sim::MachineProfile::embedded()}) {
    auto lease = core::acquire_machine(&pool, profile, kGoldenSeed + 5);
    sim::Machine& machine = *lease;
    const auto& cfg = machine.dvfs().config();
    machine.dvfs().set_point({machine.dvfs().stable_freq_mhz(cfg.rated_points.front().voltage) *
                                  1.6,
                              cfg.rated_points.front().voltage});
    machine.injector().set_probability(machine.dvfs().fault_probability());
    const std::uint64_t faults0 = machine.injector().faults_injected();
    for (int i = 0; i < 200; ++i) {
      (void)machine.injector().corrupt(0xDEADBEEF);
    }
    rec.sim_counts["figure1." + profile.name + ".glitch.faults"].push_back(
        static_cast<double>(machine.injector().faults_injected() - faults0));
  }
}

}  // namespace

void collect_sim_counts(Record& rec) {
  // The reference trial body on a warmed pool, counters read right after
  // the pool's reset and right after the trial.
  constexpr std::uint64_t kTrials = 16;
  core::MachinePool pool;
  {
    auto lease = core::acquire_machine(&pool, sim::MachineProfile::mobile(), kDefaultSeed);
    spectre_trial(*lease);
  }
  for (std::uint64_t i = 0; i < kTrials; ++i) {
    auto lease = core::acquire_machine(&pool, sim::MachineProfile::mobile(),
                                       sim::derive_seed(kDefaultSeed, i));
    const Counts before = read_counts(*lease);
    spectre_trial(*lease);
    book_counts(rec, "", before, read_counts(*lease));
  }
  // The per-trial means are the per-layer sim.* counts.
  for (const auto& [name, values] : rec.sim_counts) {
    if (name.rfind("sim.", 0) == 0) {
      double sum = 0.0;
      for (const double v : values) {
        sum += v;
      }
      rec.layers[name] = sum / static_cast<double>(values.size());
    }
  }
  figure1_path_counts(rec);
}

}  // namespace perfbench
