// Differential conformance fuzzer: the fuzzer's own test suite.
//
// Covers the four claims the subsystem makes:
//  * determinism — same seed, same verdict sequence at any worker count;
//  * soundness  — all eight architecture profiles run divergence-free
//    (a sample here; CI's fuzz-smoke job runs the 10k-program budget);
//  * teeth      — a deliberately mis-installed enforcement mechanism is
//    caught and shrunk to a <= 20-instruction reproducer;
//  * regression — every minimized case in tests/corpus/ replays clean,
//    and the corpus format round-trips exactly.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <vector>

#include "conformance/corpus.h"
#include "conformance/differ.h"
#include "conformance/fuzzer.h"
#include "conformance/generator.h"
#include "conformance/shrink.h"
#include "core/campaign.h"

namespace conf = hwsec::conformance;
namespace core = hwsec::core;

namespace {

conf::TrialVerdict fuzz_body(const core::TrialContext& ctx, conf::MachineVariant variant) {
  const conf::FuzzArch arch =
      conf::kAllFuzzArchs[ctx.index % std::size(conf::kAllFuzzArchs)];
  return conf::run_trial(arch, ctx.seed, ctx.machines, variant);
}

std::vector<conf::TrialVerdict> campaign(std::uint64_t seed, std::size_t trials,
                                         unsigned workers, conf::MachineVariant variant) {
  const std::function<conf::TrialVerdict(const core::TrialContext&)> body =
      [variant](const core::TrialContext& ctx) { return fuzz_body(ctx, variant); };
  return core::values(core::run_campaign({.seed = seed,
                                          .trials = trials,
                                          .workers = workers,
                                          .resilience = {.policy = core::FailurePolicy::kFailFast}},
                                         body));
}

}  // namespace

TEST(Conformance, AllArchitecturesDivergenceFree) {
  const auto verdicts = campaign(0xC04F04, 64, 0, conf::MachineVariant::kPooled);
  for (const conf::TrialVerdict& v : verdicts) {
    EXPECT_FALSE(v.failed()) << conf::to_string(v.arch) << " seed=" << v.seed
                             << (v.mismatches.empty() ? "" : ": " + v.mismatches.front());
  }
}

TEST(Conformance, DeterministicAcrossWorkerCounts) {
  const auto w1 = campaign(0xDE7E12, 48, 1, conf::MachineVariant::kPooled);
  const auto w2 = campaign(0xDE7E12, 48, 2, conf::MachineVariant::kPooled);
  const auto w8 = campaign(0xDE7E12, 48, 8, conf::MachineVariant::kPooled);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(w1, w8);
}

TEST(Conformance, GeneratorIsDeterministicAndSecretFree) {
  const conf::ArchContext& ctx = conf::arch_context(conf::FuzzArch::kSgx);
  const conf::GeneratedCase a = conf::generate_case(ctx.spec, 7);
  const conf::GeneratedCase b = conf::generate_case(ctx.spec, 7);
  EXPECT_EQ(conf::serialize_corpus(conf::FuzzArch::kSgx, a),
            conf::serialize_corpus(conf::FuzzArch::kSgx, b));
  for (const auto* program : {&a.normal, &a.enclave}) {
    for (const auto& inst : program->code) {
      EXPECT_NE(inst.op, hwsec::sim::Opcode::kRdCycle);
      EXPECT_NE(static_cast<std::uint32_t>(inst.imm) & 0xFFFF0000u, 0xA5EC0000u);
    }
  }
}

TEST(Conformance, InjectedDomainCheckSkipIsCaughtAndShrunk) {
  conf::FuzzConfig config;
  config.seed = 0x1BAD;
  config.trials = 16;
  config.inject = conf::BugInjection::kSkipDomainCheck;
  config.max_shrunk = 2;
  const conf::FuzzReport report = conf::run_fuzz(config);
  ASSERT_GT(report.divergences, 0u) << "injected bug went undetected";
  ASSERT_FALSE(report.failures.empty());
  for (const conf::FuzzFailure& f : report.failures) {
    EXPECT_LE(f.instructions, 20u) << "shrinker left a large reproducer";
    // The minimized case must still fail under the injection...
    const conf::ArchContext& arch = conf::arch_context(f.verdict.arch);
    EXPECT_TRUE(conf::run_case(arch, f.shrunk, 0, nullptr, conf::MachineVariant::kFresh,
                               conf::BugInjection::kSkipDomainCheck)
                    .failed());
    // ...and pass once the "bug" is gone (regression-test shape).
    EXPECT_FALSE(
        conf::run_case(arch, f.shrunk, 0, nullptr, conf::MachineVariant::kFresh).failed());
  }
}

TEST(Conformance, InjectedSilentZeroTripsInvariant) {
  // The silent-zero mis-installation must be flagged even by the directed
  // invariant probe alone (a divergence-free program still catches it).
  const conf::ArchContext& arch = conf::arch_context(conf::FuzzArch::kTrustZone);
  const conf::GeneratedCase test = conf::generate_case(arch.spec, 3);
  const conf::TrialVerdict v = conf::run_case(arch, test, 3, nullptr,
                                              conf::MachineVariant::kFresh,
                                              conf::BugInjection::kSilentZero);
  EXPECT_TRUE(v.failed());
}

TEST(Conformance, CorpusFormatRoundTrips) {
  const conf::ArchContext& ctx = conf::arch_context(conf::FuzzArch::kTyTan);
  const conf::GeneratedCase test = conf::generate_case(ctx.spec, 99);
  const std::string text = conf::serialize_corpus(conf::FuzzArch::kTyTan, test);
  const conf::CorpusCase parsed = conf::parse_corpus(text);
  EXPECT_EQ(parsed.arch, conf::FuzzArch::kTyTan);
  EXPECT_EQ(conf::serialize_corpus(parsed.arch, parsed.test), text);
}

TEST(Conformance, CorpusRejectsRdcycle) {
  const std::string text =
      "arch sgx\nprogram normal 0x400000\nrdcycle r1 r0 r0 eq 0\nhalt r0 r0 r0 eq 0\n";
  EXPECT_THROW(conf::parse_corpus(text), std::invalid_argument);
}

TEST(Conformance, PersistedCorpusReplaysClean) {
  // Every minimized regression case shipped in tests/corpus/ must replay
  // divergence-free against the current simulator.
  const std::vector<std::string> files = conf::list_corpus_files(HWSEC_CORPUS_DIR);
  EXPECT_FALSE(files.empty()) << "no corpus files found under " << HWSEC_CORPUS_DIR;
  for (const std::string& path : files) {
    const conf::TrialVerdict v = conf::replay_corpus_file(path);
    EXPECT_FALSE(v.failed()) << path << (v.mismatches.empty() ? "" : ": " + v.mismatches.front());
  }
}

TEST(Conformance, ShrinkerPreservesFailureAndShrinks) {
  const conf::ArchContext& arch = conf::arch_context(conf::FuzzArch::kSanctum);
  const conf::GeneratedCase test = conf::generate_case(arch.spec, 5);
  const std::size_t original = conf::case_instruction_count(test);
  const conf::ShrinkResult shrunk =
      conf::shrink_case(arch, test, conf::BugInjection::kSkipDomainCheck);
  EXPECT_LE(shrunk.instructions, original);
  EXPECT_TRUE(conf::run_case(arch, shrunk.test, 0, nullptr, conf::MachineVariant::kFresh,
                             conf::BugInjection::kSkipDomainCheck)
                  .failed());
}
