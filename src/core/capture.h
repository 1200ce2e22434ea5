// Batched trace capture: a windowed parallel map over trace batches.
//
// The streaming accumulators (sca/streaming.h) decouple analysis memory
// from campaign size; this layer does the same for *capture*: instead of
// materializing a million-trace TraceSet and then analyzing it, pooled
// workers produce fixed-size batches in parallel waves and a consumer
// ingests them in batch-index order. Peak trace memory is one wave
// (window_batches × batch_traces traces), independent of campaign size.
//
// Determinism: a batch's entire content derives from (seed, batch index)
// via attacks::collect_aes_trace_batch, and the sink always sees
// batches in index order, so the delivered stream is a pure function of
// the config at any worker count. The power stream is byte-identical to
// what attacks::collect_aes_traces_parallel(seed, batch) materializes,
// which is what the streaming-vs-materialized equivalence suite leans on.
#pragma once

#include <cstdint>
#include <functional>

#include "attacks/physical/power_analysis.h"
#include "sca/streaming.h"
#include "sca/trace.h"

namespace hwsec::core {

struct BatchedCaptureConfig {
  std::uint64_t seed = 31337;
  std::size_t total_traces = 0;
  /// Traces per batch; 0 picks collect_aes_traces_parallel's
  /// default (64) so the stream matches the materialized collector.
  std::size_t batch_traces = 0;
  unsigned workers = 0;  ///< 0 = ThreadPool::default_workers().
  /// Batches materialized at once (the capture window); 0 = 2× workers.
  std::size_t window_batches = 0;
};

/// Called once per batch, in batch-index order. The TraceSet is only
/// valid for the duration of the call.
using TraceBatchSink = std::function<void(std::size_t batch_index, const sca::TraceSet&)>;

/// Windowed batched AES power capture: waves of `window_batches` batches
/// fanned across one thread pool, each wave's batches delivered to `sink`
/// in index order and then freed. Returns the number of traces captured.
std::size_t capture_aes_power_batches(const BatchedCaptureConfig& config,
                                      const hwsec::crypto::AesKey& key,
                                      attacks::AesVariant variant,
                                      const hwsec::sca::RecorderConfig& recorder_config,
                                      const TraceBatchSink& sink);

/// End-to-end streaming CPA campaign: batched capture feeding one
/// StreamingCpa. Equivalent to cpa_attack_key(collect_aes_traces_parallel(
/// key, variant, total, rec, seed, batch)) with O(window) trace memory.
hwsec::sca::StreamingCpa run_streaming_cpa_campaign(
    const BatchedCaptureConfig& config, const hwsec::crypto::AesKey& key,
    attacks::AesVariant variant, const hwsec::sca::RecorderConfig& recorder_config);

/// Same capture, feeding a StreamingSecondOrderCpa (masked victims).
hwsec::sca::StreamingSecondOrderCpa run_streaming_second_order_campaign(
    const BatchedCaptureConfig& config, const hwsec::crypto::AesKey& key,
    const hwsec::sca::RecorderConfig& recorder_config, std::size_t mask_sample = 1);

}  // namespace hwsec::core
