// Shard worker: the child-process half of the sharded campaign engine.
//
// A worker is forked by the supervisor and lives entirely inside
// worker_loop(): read an assignment frame, execute the shard's trials in
// index order (skipping indices the done-bitmap marks as restored from
// checkpoint), stream one kTrial frame back per completed trial, announce
// kShardDone, repeat until kShutdown or pipe EOF. Trial frames leave in
// batches, several whole frames per write (flush rules in worker.cpp and
// DESIGN.md S21); the bytes on the wire are the same frames either way.
// Each worker owns its own MachinePool and WallClockMonitor — processes
// share nothing but pipes, so a worker crash can corrupt nothing outside
// its own address space.
//
// A detached heartbeat thread writes kHeartbeat frames every
// heartbeat_interval, each behind the pending trial batch; the
// supervisor's hang detector keys off their age (a SIGSTOPped or wedged
// worker stops beating and is killed + migrated).
//
// Worker-kill chaos: before each trial the worker rolls
// ChaosInjector::roll_worker_fault() keyed by (chaos seed, trial index,
// assignment attempt) and raises SIGKILL/SIGSTOP on itself at the seeded
// points — the recovery path is tested by the same fault-injection
// discipline as the trial path. The roll never feeds trial execution, so
// chaos changes *which process* computes a trial, never its bytes.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>

#include "core/resilience/chaos.h"
#include "core/resilience/checkpoint.h"
#include "core/shard/transport.h"

namespace hwsec::core::shard {

/// Executes one trial by global index and returns the serialized record
/// (the type-erasure seam: the template layer closes over the Result type,
/// the worker only moves bytes).
using TrialRunner = std::function<CheckpointRecord(std::size_t index)>;

struct WorkerEnv {
  std::chrono::milliseconds heartbeat_interval{50};
  ChaosConfig chaos;  ///< only the worker_* fields are read here.
};

/// Runs the worker protocol over any Transport — the forked child's pipe
/// pair, a TCP socket to a remote supervisor, or a test socketpair; the
/// protocol bytes are identical on every wire. Returns the process exit
/// code; forked callers _exit() with it immediately (never unwinding back
/// into forked test/benchmark state), remote workers just return it.
int worker_loop(Transport& transport, const WorkerEnv& env, const TrialRunner& run_trial);

/// Pipe-pair convenience wrapper (the forked-child entry point).
int worker_loop(int cmd_fd, int out_fd, const WorkerEnv& env, const TrialRunner& run_trial);

}  // namespace hwsec::core::shard
