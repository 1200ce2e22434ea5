#include "conformance/fuzzer.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "conformance/corpus.h"
#include "core/campaign.h"
#include "core/obs/metrics.h"

namespace hwsec::conformance {

namespace {

const obs::Counter& trials_counter() {
  static const obs::Counter c = obs::counter("conformance_trials");
  return c;
}

const obs::Counter& divergence_counter() {
  static const obs::Counter c = obs::counter("conformance_divergences");
  return c;
}

}  // namespace

FuzzReport run_fuzz(const FuzzConfig& config) {
  FuzzReport report;
  report.trials = config.trials;
  if (config.trials == 0 || config.archs.empty()) {
    return report;
  }

  core::CampaignConfig campaign;
  campaign.seed = config.seed;
  campaign.trials = config.trials;
  campaign.workers = config.workers;
  campaign.resilience.policy = core::FailurePolicy::kFailFast;

  const std::function<TrialVerdict(const core::TrialContext&)> body =
      [&config](const core::TrialContext& ctx) {
        const FuzzArch arch = config.archs[ctx.index % config.archs.size()];
        const bool fresh = config.fresh_every != 0 && ctx.index % config.fresh_every == 0;
        TrialVerdict verdict =
            run_trial(arch, ctx.seed, fresh ? nullptr : ctx.machines,
                      fresh ? MachineVariant::kFresh : MachineVariant::kPooled, config.inject);
        trials_counter().add(1);
        if (verdict.failed()) {
          divergence_counter().add(1);
        }
        return verdict;
      };
  std::vector<TrialVerdict> verdicts = core::values(core::run_campaign(campaign, body));

  // Post-campaign: count, then shrink the first few failures sequentially.
  for (TrialVerdict& verdict : verdicts) {
    if (!verdict.failed()) {
      continue;
    }
    ++report.divergences;
    if (verdict.secret_leak) {
      ++report.secret_leaks;
    }
    if (report.failures.size() >= config.max_shrunk) {
      continue;
    }
    const ArchContext& arch = arch_context(verdict.arch);
    ShrinkResult shrunk =
        shrink_case(arch, generate_case(arch.spec, verdict.seed), config.inject);
    FuzzFailure failure;
    failure.verdict = std::move(verdict);
    failure.instructions = shrunk.instructions;
    failure.shrunk = std::move(shrunk.test);
    if (!config.corpus_dir.empty()) {
      std::filesystem::create_directories(config.corpus_dir);
      char name[64];
      std::snprintf(name, sizeof name, "%s-seed-%016llx.corpus",
                    to_string(failure.verdict.arch).c_str(),
                    static_cast<unsigned long long>(failure.verdict.seed));
      failure.corpus_path = (std::filesystem::path(config.corpus_dir) / name).string();
      write_corpus_file(failure.corpus_path, failure.verdict.arch, failure.shrunk);
    }
    report.failures.push_back(std::move(failure));
  }
  return report;
}

TrialVerdict replay_corpus_file(const std::string& path) {
  const CorpusCase c = load_corpus_file(path);
  return run_case(arch_context(c.arch), c.test, /*seed=*/0, /*pool=*/nullptr,
                  MachineVariant::kFresh);
}

FuzzConfig fuzz_config_from_env(FuzzConfig defaults) {
  if (const char* trials = std::getenv("HWSEC_FUZZ_TRIALS")) {
    defaults.trials = static_cast<std::size_t>(std::strtoull(trials, nullptr, 10));
  }
  if (const char* seed = std::getenv("HWSEC_FUZZ_SEED")) {
    defaults.seed = std::strtoull(seed, nullptr, 0);
  }
  if (const char* workers = std::getenv("HWSEC_FUZZ_WORKERS")) {
    defaults.workers = static_cast<unsigned>(std::strtoul(workers, nullptr, 10));
  }
  return defaults;
}

}  // namespace hwsec::conformance
