#include "core/capture.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/thread_pool.h"

namespace hwsec::core {

namespace sca = hwsec::sca;
namespace crypto = hwsec::crypto;

namespace {

std::size_t resolve_window(std::size_t window_batches, unsigned workers) {
  if (window_batches != 0) {
    return window_batches;
  }
  const unsigned w = workers != 0 ? workers : sim::ThreadPool::default_workers();
  // 2× workers keeps the pool saturated while the delivering thread drains
  // the previous wave.
  return 2 * static_cast<std::size_t>(w);
}

}  // namespace

std::size_t capture_aes_power_batches(const BatchedCaptureConfig& config,
                                      const crypto::AesKey& key, attacks::AesVariant variant,
                                      const sca::RecorderConfig& recorder_config,
                                      const TraceBatchSink& sink) {
  const std::size_t batch = config.batch_traces != 0 ? config.batch_traces : 64;
  const std::size_t total = config.total_traces;
  const std::size_t num_batches = (total + batch - 1) / batch;
  const std::size_t window = resolve_window(config.window_batches, config.workers);

  std::unique_ptr<sim::ThreadPool> local_pool;
  if (config.workers != 0) {
    local_pool = std::make_unique<sim::ThreadPool>(config.workers);
  }
  sim::ThreadPool& pool = local_pool ? *local_pool : sim::ThreadPool::shared();
  std::size_t captured = 0;
  for (std::size_t wave_base = 0; wave_base < num_batches; wave_base += window) {
    const std::size_t wave = std::min(window, num_batches - wave_base);
    std::vector<sca::TraceSet> results(wave);
    // Slot i of the wave is global batch wave_base + i, whose content
    // derives from (config.seed, global batch index) alone — identical
    // stream at any worker count, and identical to
    // collect_aes_traces_parallel's batch decomposition.
    pool.parallel_for(wave, [&](std::size_t i) {
      const std::size_t b = wave_base + i;
      const std::size_t n = std::min(batch, total - b * batch);
      results[i] =
          attacks::collect_aes_trace_batch(key, variant, b, n, recorder_config, config.seed);
    });
    for (std::size_t i = 0; i < wave; ++i) {
      captured += results[i].traces.size();
      sink(wave_base + i, results[i]);
      results[i] = sca::TraceSet{};  // free the batch before the next wave.
    }
  }
  return captured;
}

sca::StreamingCpa run_streaming_cpa_campaign(const BatchedCaptureConfig& config,
                                             const crypto::AesKey& key,
                                             attacks::AesVariant variant,
                                             const sca::RecorderConfig& recorder_config) {
  const std::size_t points =
      attacks::kAesSamplesPerTrace * (1 + recorder_config.max_jitter);
  sca::StreamingCpa acc(points);
  capture_aes_power_batches(config, key, variant, recorder_config,
                            [&](std::size_t, const sca::TraceSet& set) { acc.add_batch(set); });
  return acc;
}

sca::StreamingSecondOrderCpa run_streaming_second_order_campaign(
    const BatchedCaptureConfig& config, const crypto::AesKey& key,
    const sca::RecorderConfig& recorder_config, std::size_t mask_sample) {
  const std::size_t points =
      attacks::kAesSamplesPerTrace * (1 + recorder_config.max_jitter);
  sca::StreamingSecondOrderCpa acc(points, mask_sample);
  capture_aes_power_batches(config, key, attacks::AesVariant::kMasked, recorder_config,
                            [&](std::size_t, const sca::TraceSet& set) { acc.add_batch(set); });
  return acc;
}

}  // namespace hwsec::core
