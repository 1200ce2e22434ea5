// Multi-process sharded campaign supervisor.
//
// run_campaign (core/campaign.h) hands a campaign here whenever its
// ShardConfig names worker processes, remote hosts or a listener. The
// supervisor splits the trial range into seed-sharded chunks, forks N
// worker processes (each with its own MachinePool and WallClockMonitor),
// feeds them shard assignments over pipes using the versioned wire format
// in wire.h, and merges the per-shard outcome streams deterministically:
// trial i's record is a pure function of (campaign seed, i) — every
// worker runs detail::execute_trial, as the in-process path does — so the
// merged vector is bit-identical to the 1-process run at any shard count
// and any worker count.
//
// Robustness is the contract (the failure matrix lives in DESIGN.md S21):
//  * worker crash  — waitpid notices the exit; unfinished trials of its
//    in-flight shard are re-enqueued for survivors (a retry-policy event,
//    not an error) and the worker is respawned under an exponential-backoff
//    budget;
//  * worker hang   — a heartbeat thread in each worker beats every
//    heartbeat_interval; a worker whose last beat is older than
//    hang_timeout is SIGKILLed and handled as a crash (this is how a
//    SIGSTOP — or a scheduler wedge — is caught);
//  * straggler     — when the queue drains and a worker still holds many
//    unfinished trials but its progress has stalled (no trial delivered
//    for several heartbeat intervals), the tail half of its shard is
//    migrated to an idle survivor; duplicate completions are idempotent
//    because both processes compute identical bytes for the same index.
//    A worker that keeps delivering is never split, so a healthy
//    campaign re-runs nothing;
//  * supervisor crash — completed trials are persisted through the
//    existing atomic checkpoint layer (CheckpointFile keyed by the
//    campaign identity); a restarted supervisor reloads it and re-executes
//    only missing slots, at any new worker/shard count;
//  * total worker loss — when the respawn budget is exhausted the
//    supervisor finishes the remaining trials in-process, so the campaign
//    converges even if every fork dies.
//
// Graceful shutdown: SIGTERM/SIGINT (install_graceful_shutdown) stops
// shard assignment, drains workers, saves a final checkpoint, and returns
// the partial outcome vector with unfinished slots marked `skipped`.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/resilience/resilient.h"
#include "core/shard/net.h"
#include "core/shard/worker.h"

namespace hwsec::core::shard {

struct ShardConfig {
  /// Worker processes to fork. 1 still exercises the full fork/pipe path.
  /// 0 (default) forks nothing: with no hosts and no listener either, the
  /// campaign runs in-process on the thread pool.
  unsigned processes = 0;
  /// Trials per shard. 0 = auto: guided shards that shrink as the
  /// campaign runs out (shard_end), so workers finish together instead of
  /// one idling while another runs a big last shard. (Trial frames are
  /// batched by the worker whatever the shard size.)
  std::size_t shard_size = 0;
  /// Worker heartbeat period (liveness beacons on the result pipe). Each
  /// beat also flushes the worker's pending trial batch, and a busy worker
  /// that delivers no trial for 4 beats (capped at hang_timeout / 2) is a
  /// straggler whose shard tail may be split off.
  std::chrono::milliseconds heartbeat_interval{25};
  /// A worker silent for longer than this is presumed hung, SIGKILLed
  /// (local) or disconnected (remote), and its shard migrated. 0 disables
  /// hang detection (crash-only recovery).
  std::chrono::milliseconds hang_timeout{2000};
  /// Total worker respawns allowed across the campaign (the retry budget
  /// of the process layer). Exhausting it shifts remaining work in-process.
  unsigned max_respawns = 8;
  /// Base respawn delay; doubles per respawn already spent (capped at
  /// 64x), so a crash-looping fleet backs off instead of fork-bombing.
  std::chrono::milliseconds respawn_backoff{5};

  // ---- multi-host (core/shard/net.h) ------------------------------------
  // Remote workers extend the failure matrix, never the result: an N-host
  // run is bit-identical to the 1-process run because trial i is a pure
  // function of (campaign seed, i) on every host.

  /// Remote worker endpoints the supervisor dials (each a listening
  /// hwsec-shard-worker). One worker slot per host.
  std::vector<HostSpec> hosts;
  /// Canonical campaign spec JSON shipped to remote workers in the
  /// kWelcome frame; its fnv1a64 is the campaign-identity digest. Empty =
  /// this campaign cannot accept remote workers (dialing/listening with an
  /// empty spec is a config error; inbound workers would be rejected).
  std::string remote_spec_json;
  /// Dial attempts per host across the campaign (the initial dial included
  /// — the network analogue of max_respawns). Exhausting every host's
  /// budget with no local workers left shifts remaining work in-process.
  unsigned max_reconnects = 4;
  /// Base re-dial delay; doubles per attempt already spent on that host
  /// (capped at 64x).
  std::chrono::milliseconds reconnect_backoff{25};
  /// TCP connect() wait per dial attempt.
  std::chrono::milliseconds connect_timeout{1000};
  /// Wait for the peer's half of the handshake.
  std::chrono::milliseconds handshake_timeout{2000};

  /// Accept inbound workers (hwsec-shard-worker --connect) on
  /// listen_address:listen_port (port 0 = kernel-assigned; read it from
  /// the on_listening callback).
  bool listen = false;
  std::string listen_address = "127.0.0.1";
  std::uint16_t listen_port = 0;
  std::function<void(std::uint16_t port)> on_listening;
  /// Inbound workers admitted at once (a loopback port is reachable by
  /// anything on the box; the handshake gates identity, this gates count).
  std::size_t max_inbound_workers = 16;
  /// Listen-mode liveness horizon: with no worker alive and none connected
  /// for this long, the supervisor stops waiting for inbound workers and
  /// falls back in-process (a listener alone must not stall a campaign
  /// forever).
  std::chrono::milliseconds listen_grace{2000};

  /// Test seam: replaces tcp_connect for dialed hosts (in-thread workers
  /// over socketpairs — how the fault matrix runs without real processes).
  std::function<std::unique_ptr<Transport>(const HostSpec& host, std::string& error)> dialer;
  /// Test seam: wraps every remote transport right after creation (before
  /// the handshake), e.g. in a FaultyTransport.
  std::function<std::unique_ptr<Transport>(std::unique_ptr<Transport>)> transport_decorator;
};

/// End of the planned shard that starts at trial `begin` of a campaign of
/// `trials`. config.shard_size cuts equal shards. Auto (0) with a fan-out
/// of F = processes + hosts cuts guided shards: each takes 1/(2F) of the
/// trials not yet planned, but no fewer than trials / (32F): the first
/// shard is half of one worker's share, the last ones 1/32 of it, so all
/// workers run out of work within a small shard of each other. With no
/// fan-out the campaign is one shard.
std::size_t shard_end(const ShardConfig& config, std::size_t trials, std::size_t begin);

/// Recovery/scheduling telemetry for one run_campaign call (also exported
/// as obs counters: shard_assignments, shard_migrations,
/// shard_worker_respawns, shard_worker_deaths, shard_worker_hangs,
/// shard_duplicate_trials, shard_fallback_trials). An in-process run
/// fills only shards_total (the plan shard_end cuts) and
/// trials_executed; every fleet counter stays zero.
struct ShardStats {
  std::uint64_t shards_total = 0;       ///< shards in the initial plan.
  std::uint64_t assignments = 0;        ///< assignment frames sent (incl. re-assignments).
  std::uint64_t migrations = 0;         ///< shards re-enqueued after a death/hang/stall split.
  std::uint64_t worker_deaths = 0;      ///< workers that exited without being told to.
  std::uint64_t worker_hangs = 0;       ///< workers killed by the heartbeat-age detector.
  std::uint64_t worker_respawns = 0;    ///< replacement workers forked.
  std::uint64_t duplicate_trials = 0;   ///< idempotently-ignored duplicate records.
  std::uint64_t fallback_trials = 0;    ///< trials finished in-process after worker loss.
  std::uint64_t trials_executed = 0;    ///< fresh trial records (not checkpoint-restored).
  std::uint64_t remote_workers = 0;     ///< remote links that completed the handshake.
  std::uint64_t remote_reconnects = 0;  ///< re-dial attempts after a remote death.
  std::uint64_t handshakes_rejected = 0;  ///< inbound/dialed handshakes refused or broken.
};

namespace detail_shard {

/// Type-erased campaign the supervisor core runs (the Result type lives
/// only in run_campaign).
struct ShardJob {
  std::uint64_t seed = 0;
  std::size_t trials = 0;
  std::size_t result_bytes = 0;
  /// Builds a trial runner (detail::make_trial_runner). Called once inside
  /// each forked worker (so every worker owns a private MachinePool) and
  /// once more for the in-process fallback path.
  std::function<TrialRunner()> make_runner;
};

struct SupervisorResult {
  std::map<std::size_t, CheckpointRecord> records;  ///< merged, keyed by trial index.
  std::set<std::size_t> restored;                   ///< loaded from checkpoint, not re-run.
  ShardStats stats;
  bool shutdown = false;       ///< graceful shutdown left trials unfinished.
  bool failfast_tripped = false;  ///< kFailFast saw a failed record.
};

/// The supervisor core: fork, schedule, supervise, merge. Implemented in
/// supervisor.cpp; deterministic merge is by trial index.
SupervisorResult run_sharded(const ShardJob& job, const ShardConfig& config,
                             const ResilienceConfig& res);

}  // namespace detail_shard

}  // namespace hwsec::core::shard
