// E-service — campaign-as-a-service overhead: what does routing a campaign
// through hwsecd cost over calling run_campaign directly?
//
// Rows:
//   * direct_run        — run_spec() in-process, the baseline;
//   * daemon_roundtrip  — same spec submitted over the Unix socket to a
//                         live in-process Daemon: connect + submit + stream
//                         + terminal result (the full client experience);
//   * submit_ack        — control-plane only: connect + submit + ack +
//                         detach (what a fire-and-forget client pays);
//   * status_scrape     — one /status request against a populated daemon.
//
// The service contract says the daemon adds orchestration, never changes
// results — so each daemon_roundtrip iteration also asserts the returned
// digest equals the direct run's (a free bit-identity check under load).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>

#include "core/resilience/resilient.h"
#include "core/service/catalog.h"
#include "core/service/client.h"
#include "core/service/daemon.h"
#include "core/service/spec.h"

namespace core = hwsec::core;
namespace service = hwsec::core::service;

namespace {

constexpr std::uint64_t kTrials = 64;

service::CampaignSpec bench_spec(std::uint64_t seed) {
  service::CampaignSpec spec;
  spec.tenant = "bench";
  spec.name = "svc-overhead";
  spec.kind = "mix";
  spec.seed = seed;
  spec.trials = kTrials;
  spec.workers = 2;
  return spec;
}

/// One daemon shared by every benchmark in the binary, torn down at exit.
class BenchDaemon {
 public:
  static BenchDaemon& instance() {
    static BenchDaemon daemon;
    return daemon;
  }

  const std::string& socket() const { return socket_; }

 private:
  BenchDaemon() {
    socket_ = "/tmp/hwsec_bench_svc." + std::to_string(::getpid()) + ".sock";
    service::ServiceConfig config;
    config.unix_socket = socket_;
    config.executors = 2;
    config.max_queued_per_tenant = 1u << 20;  // the bench is the only tenant.
    config.progress_interval = std::chrono::milliseconds(5);
    daemon_ = std::make_unique<service::Daemon>(config);
    daemon_->start();
  }

  ~BenchDaemon() {
    daemon_->stop();
    std::remove(socket_.c_str());
  }

  std::string socket_;
  std::unique_ptr<service::Daemon> daemon_;
};

service::ServiceClient make_client() {
  service::ClientConfig config;
  config.unix_socket = BenchDaemon::instance().socket();
  return service::ServiceClient(config);
}

void BM_DirectRun(benchmark::State& state) {
  const service::CampaignSpec spec = bench_spec(1);
  for (auto _ : state) {
    auto outcomes = service::run_spec(spec, core::ResilienceConfig{});
    benchmark::DoNotOptimize(outcomes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kTrials));
}
BENCHMARK(BM_DirectRun)->Unit(benchmark::kMillisecond);

void BM_DaemonRoundTrip(benchmark::State& state) {
  const service::CampaignSpec spec = bench_spec(1);
  const std::string spec_json = service::encode_spec(spec);
  const std::uint64_t expect_digest =
      service::fnv1a64(service::encode_outcomes(service::run_spec(spec, core::ResilienceConfig{})));
  for (auto _ : state) {
    auto client = make_client();
    service::SubmittedPayload ack;
    service::JobResultPayload result;
    std::string error;
    if (!client.submit(spec_json, ack, error) || !ack.accepted ||
        !client.wait_result(result, error) || result.digest != expect_digest) {
      state.SkipWithError("daemon round-trip failed or diverged from direct run");
      return;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kTrials));
}
BENCHMARK(BM_DaemonRoundTrip)->Unit(benchmark::kMillisecond);

void BM_SubmitAckDetach(benchmark::State& state) {
  service::CampaignSpec spec = bench_spec(2);
  spec.trials = 1;  // control-plane cost, not execution cost.
  const std::string spec_json = service::encode_spec(spec);
  for (auto _ : state) {
    auto client = make_client();
    service::SubmittedPayload ack;
    std::string error;
    if (!client.submit(spec_json, ack, error) || !ack.accepted) {
      state.SkipWithError("submit failed");
      return;
    }
    client.disconnect();
  }
}
BENCHMARK(BM_SubmitAckDetach)->Unit(benchmark::kMicrosecond);

void BM_StatusScrape(benchmark::State& state) {
  for (auto _ : state) {
    auto client = make_client();
    std::string json;
    std::string error;
    if (!client.status(json, error)) {
      state.SkipWithError("status scrape failed");
      return;
    }
    benchmark::DoNotOptimize(json);
  }
}
BENCHMARK(BM_StatusScrape)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
