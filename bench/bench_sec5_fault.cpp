// E8 — §5 fault (glitch) attacks: the Bellcore RSA-CRT break, AES DFA,
// and the glitch-success-vs-intensity curve of the fault model.
//
// Paper's expected shape:
//   * ONE exploitable faulty CRT signature factors the modulus;
//   * a handful of single-bit faults per byte position recover the full
//     AES key via DFA;
//   * glitch effectiveness follows the physical-parameter margin ("forcing
//     changes in the values of relevant physical parameters outside the
//     specified intervals");
//   * verify-before-release and envelope interlocks stop the respective
//     attacks.
#include <benchmark/benchmark.h>

#include "attacks/physical/fault_attacks.h"
#include "core/campaign.h"
#include "sim/dvfs.h"
#include "sim/rng.h"
#include "table.h"

namespace sim = hwsec::sim;
namespace attacks = hwsec::attacks;
namespace crypto = hwsec::crypto;

namespace {

void BM_DfaAttack64Pairs(benchmark::State& state) {
  const crypto::AesKey key = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6};
  sim::FaultInjector injector(800);
  injector.set_probability(0.25);
  crypto::Instrumentation instr;
  instr.fault = [&injector](std::uint32_t v) { return injector.corrupt(v); };
  crypto::AesTTable leaky(key, instr);
  crypto::AesTTable clean(key);
  hwsec::sim::Rng rng(801);
  std::vector<attacks::DfaPair> pairs;
  while (pairs.size() < 64) {
    crypto::AesBlock pt;
    for (auto& b : pt) {
      b = static_cast<std::uint8_t>(rng.next_u32());
    }
    const auto c = clean.encrypt(pt);
    const auto f = leaky.encrypt_with_fault_round(pt, 10);
    if (c != f) {
      pairs.push_back({c, f});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(attacks::aes_dfa_attack(pairs));
  }
}
BENCHMARK(BM_DfaAttack64Pairs)->Iterations(20)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  using hwsec::bench::Table;

  hwsec::bench::section("E8a / §5 — Bellcore RSA-CRT fault attack");
  Table b({"fault placement", "countermeasure", "signatures", "modulus factored"},
          {24, 26, 12, 18});
  b.print_header();
  {
    hwsec::sim::Rng rng(821);
    const auto key = crypto::rsa_generate(rng);
    crypto::Instrumentation glitch;
    bool armed = true;
    glitch.fault = [&armed](std::uint32_t v) { return armed ? (armed = false, v ^ 2u) : v; };
    const crypto::u64 m = 0x1234567 % key.n;
    const auto s = crypto::rsa_sign_crt(m, key, glitch);
    const auto factor = attacks::rsa_crt_fault_attack(key.n, key.e, m, s);
    b.print_row("one bit, p-half", "none", 1, factor != 0 && key.n % factor == 0);
  }
  {
    hwsec::sim::Rng rng(822);
    const auto key = crypto::rsa_generate(rng);
    const crypto::u64 m = 0x1234567 % key.n;
    const auto s = crypto::rsa_sign_crt(m, key);
    b.print_row("no fault", "none", 1, attacks::rsa_crt_fault_attack(key.n, key.e, m, s) != 0);
  }
  {
    hwsec::sim::Rng rng(823);
    const auto key = crypto::rsa_generate(rng);
    crypto::Instrumentation glitch;
    bool armed = true;
    glitch.fault = [&armed](std::uint32_t v) { return armed ? (armed = false, v ^ 2u) : v; };
    const crypto::u64 m = 0x1234567 % key.n;
    const auto s = crypto::rsa_sign_crt_checked(m, key, glitch);
    b.print_row("one bit, p-half", "verify-before-release", 1,
                s != 0 && attacks::rsa_crt_fault_attack(key.n, key.e, m, s) != 0);
  }

  hwsec::bench::section("E8b / §5 — AES differential fault analysis: pairs vs. recovery");
  Table d({"faulty pairs", "usable (1-byte)", "ambiguous bytes", "key recovered"},
          {14, 16, 16, 14});
  d.print_header();
  const crypto::AesKey key = {0x10, 0xa5, 0x88, 0x69, 0xd7, 0x4b, 0xe5, 0xa3,
                              0x74, 0xcf, 0x86, 0x7c, 0xfb, 0x47, 0x38, 0x59};
  for (const std::size_t target : {8u, 24u, 48u, 96u, 192u, 320u}) {
    sim::FaultInjector injector(830 + target);
    injector.set_probability(0.25);
    crypto::Instrumentation instr;
    instr.fault = [&injector](std::uint32_t v) { return injector.corrupt(v); };
    crypto::AesTTable leaky(key, instr);
    crypto::AesTTable clean(key);
    hwsec::sim::Rng rng(840 + target);
    std::vector<attacks::DfaPair> pairs;
    while (pairs.size() < target) {
      crypto::AesBlock pt;
      for (auto& b2 : pt) {
        b2 = static_cast<std::uint8_t>(rng.next_u32());
      }
      const auto c = clean.encrypt(pt);
      const auto f = leaky.encrypt_with_fault_round(pt, 10);
      if (c != f) {
        pairs.push_back({c, f});
      }
    }
    const auto result = attacks::aes_dfa_attack(pairs);
    std::uint32_t ambiguous = 0;
    for (const auto c : result.candidates_left) {
      ambiguous += c != 1 ? 1 : 0;
    }
    d.print_row(target, result.pairs_consumed, ambiguous,
                result.key_recovered && result.key == key);
  }

  hwsec::bench::section("E8c — glitch fault probability vs. overclock margin");
  Table g({"margin (MHz past envelope)", "fault prob (model)", "fault rate (measured)"},
          {28, 20, 22});
  g.print_header();
  {
    // Resilient campaign: each margin point is one independent trial (its
    // own DVFS controller and injector, fixed seed) — measured
    // concurrently, printed in sweep order; a throwing point reports its
    // structured error without sinking the sweep.
    const std::vector<double> margins = {0.0, 50.0, 150.0, 400.0, 800.0, 1600.0};
    struct GlitchRow {
      double margin = 0.0;
      double model_prob = 0.0;
      double measured_rate = 0.0;
    };
    const double v = 0.9;
    const auto rows = hwsec::core::run_campaign<GlitchRow>(
        {.seed = 860, .trials = margins.size()},
        [&margins, v](const hwsec::core::TrialContext& ctx) {
          const double margin = margins[ctx.index];
          sim::DvfsController dvfs;
          dvfs.set_point({dvfs.stable_freq_mhz(v) + margin, v});
          sim::FaultInjector injector(860);
          injector.set_probability(dvfs.fault_probability());
          int faults = 0;
          const int n = 4000;
          for (int i = 0; i < n; ++i) {
            if (injector.corrupt(0x5A5A5A5A) != 0x5A5A5A5A) {
              ++faults;
            }
          }
          return GlitchRow{margin, dvfs.fault_probability(), static_cast<double>(faults) / n};
        });
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].ok()) {
        const GlitchRow& row = rows[i].value();
        g.print_row(row.margin, row.model_prob, row.measured_rate);
      } else {
        g.print_row(margins[i], std::string("error: ") + rows[i].error->what(), "");
      }
    }
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
