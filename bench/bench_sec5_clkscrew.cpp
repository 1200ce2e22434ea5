// E9 — §5 CLKSCREW ([37]): software-only fault injection through DVFS
// abuse, extracting an AES key from the TrustZone secure world.
//
// Paper's expected shape:
//   * the normal-world kernel programs an out-of-envelope operating point
//     and the secure world's computation starts glitching;
//   * the sweet spot is a MODERATE overclock — too little produces no
//     faults, too much corrupts every run into unusable multi-byte noise;
//   * a DVFS hardware interlock (or staying at rated points) stops the
//     attack outright.
#include <benchmark/benchmark.h>

#include "arch/trustzone.h"
#include "attacks/physical/clkscrew.h"
#include "core/campaign.h"
#include "table.h"

namespace sim = hwsec::sim;
namespace tee = hwsec::tee;
namespace arch = hwsec::arch;
namespace attacks = hwsec::attacks;
namespace crypto = hwsec::crypto;

namespace {

const crypto::AesKey kKey = {0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04,
                             0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c};

struct TzSetup {
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<arch::TrustZone> tz;
  tee::EnclaveId victim = tee::kInvalidEnclave;

  explicit TzSetup(std::uint64_t seed) {
    machine = std::make_unique<sim::Machine>(sim::MachineProfile::mobile(), seed);
    tz = std::make_unique<arch::TrustZone>(*machine);
    tee::EnclaveImage image;
    image.name = "tz-crypto-service";
    image.code = {0x77};
    image.secret.assign(kKey.begin(), kKey.end());
    tz->vendor_sign(image);
    victim = tz->create_enclave(image).value;
  }

  std::function<crypto::AesBlock(const crypto::AesBlock&)> secure_encrypt() {
    return [this](const crypto::AesBlock& pt) {
      crypto::AesBlock ct{};
      tz->call_enclave(victim, 0, [this, &pt, &ct](tee::EnclaveContext& ctx) {
        crypto::AesKey key{};
        for (std::uint32_t i = 0; i < 16; ++i) {
          key[i] = ctx.read8(1 + i);
        }
        crypto::Instrumentation instr;
        instr.fault = [&ctx](std::uint32_t v) { return ctx.machine().injector().corrupt(v); };
        crypto::AesTTable aes(key, instr);
        ct = aes.encrypt_with_fault_round(pt, 10);
      });
      return ct;
    };
  }
};

}  // namespace

int main(int argc, char** argv) {
  using hwsec::bench::Table;

  hwsec::bench::section(
      "E9 / §5 — CLKSCREW: DVFS frequency sweep at 0.70 V (stable limit = 880 MHz)");
  Table t({"freq (MHz)", "fault prob", "invocations", "faulty pairs", "key recovered"},
          {12, 12, 13, 14, 14});
  t.print_header();
  {
    // Resilient campaign: each frequency point is one independent trial
    // (its own mobile Machine + TrustZone world, seeded 900+freq as
    // before) — the sweep runs across host cores and prints in frequency
    // order. Each trial arms the per-trial cycle-budget watchdog on its
    // machine, so a wedged secure-world invocation would surface as a
    // structured TimedOut row instead of hanging the whole sweep.
    const std::vector<double> freqs = {800.0, 900.0, 1000.0, 1080.0, 1200.0, 1600.0, 2600.0};
    struct SweepRow {
      double freq = 0.0;
      attacks::ClkscrewResult result;
    };
    hwsec::core::ResilienceConfig res;
    res.trial_cycle_budget = 500'000'000;  // generous: only a wedged guest hits it.
    const auto rows = hwsec::core::run_campaign<SweepRow>(
        {.seed = 900, .trials = freqs.size(), .resilience = res},
        [&freqs](const hwsec::core::TrialContext& ctx) {
          const double freq = freqs[ctx.index];
          TzSetup setup(900 + static_cast<std::uint64_t>(freq));
          setup.machine->arm_watchdog(ctx.watchdog);
          attacks::ClkscrewConfig config;
          config.attack_point = {freq, 0.70};
          return SweepRow{freq,
                          attacks::clkscrew_attack(*setup.machine, setup.secure_encrypt(), config)};
        });
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (!rows[i].ok()) {
        t.print_row(freqs[i], std::string("error: ") + rows[i].error->what(), "", "", "");
        continue;
      }
      const SweepRow& row = rows[i].value();
      t.print_row(row.freq, row.result.fault_probability, row.result.invocations,
                  row.result.faulty_pairs,
                  row.result.dfa.key_recovered && row.result.dfa.key == kKey ? "YES" : "no");
    }
  }
  std::cout << "(too slow: no faults; sweet spot ~1000-1200 MHz; far past the envelope\n"
               " every word glitches and the multi-byte corruptions are useless for DFA)\n";

  hwsec::bench::section("E9b — mitigations");
  Table m({"mitigation", "outcome"}, {36, 44});
  m.print_header();
  {
    TzSetup setup(950);
    setup.machine->dvfs().enforce_envelope(true);
    attacks::ClkscrewConfig config;
    config.attack_point = {1080.0, 0.70};
    const auto r = attacks::clkscrew_attack(*setup.machine, setup.secure_encrypt(), config);
    m.print_row("hardware envelope interlock",
                r.blocked_by_interlock ? "attack point rejected - attack impossible"
                                       : "FAILED TO BLOCK");
  }
  {
    TzSetup setup(951);
    attacks::ClkscrewConfig config;
    config.attack_point = {900.0, 1.00};  // rated-envelope point.
    config.max_invocations = 2000;
    const auto r = attacks::clkscrew_attack(*setup.machine, setup.secure_encrypt(), config);
    m.print_row("operating inside the envelope",
                r.faulty_pairs == 0 ? "zero faults - nothing to analyze" : "UNEXPECTED FAULTS");
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
