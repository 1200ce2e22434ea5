// hwsecd — the campaign-as-a-service control plane.
//
// A long-running daemon that turns the campaign engine into a service:
// clients submit versioned JSON campaign specs over a Unix or local TCP
// socket, the daemon schedules them across a shared MachinePool with
// per-tenant quotas and fair-share priority, executes each job through the
// exact run_campaign path a direct caller would use (so results are
// bit-identical to a hand-launched run), streams
// incremental progress, and serves the obs metrics scrape as /status.
//
// Ownership model — the property everything else falls out of: a JOB
// BELONGS TO THE DAEMON, NOT TO THE CONNECTION THAT SUBMITTED IT.
// Connections are subscriptions: a client disconnect mid-run changes
// nothing about the job (service_detached_streams counts it), and any
// later connection can re-attach by job id and receive the same terminal
// result frame. Checkpoint identity is namespaced per job
// (scope = "tenant/job-id"), so two tenants submitting byte-identical
// specs keep disjoint checkpoint files — the cross-resume collision the
// config-only identity allowed is structurally gone.
//
// Scheduling: `executors` worker threads drain one shared queue.
// Admission rejects a tenant over max_queued_per_tenant and any spec over
// the per-spec resource caps (max_trials/max_workers/max_processes — a
// hostile {"workers":1000000} must bounce at submit, not fork-bomb the
// shared process); dispatch skips
// tenants at max_running_per_tenant and picks, among eligible jobs, the
// tenant with the fewest running jobs (fair share), then the higher
// priority, then FIFO. One MachinePool is shared by every in-process job,
// so concurrent tenants reuse each other's warmed machines (profiles are
// keyed by name; the pool contract already guarantees reset == fresh).
//
// Shutdown: the first SIGTERM/SIGINT (or a kStopDaemon frame) drains —
// admission closes, queued jobs fail with "daemon draining", running
// campaigns observe the global shutdown flag, mark unstarted trials
// skipped, and save their final checkpoint. A second signal escalates to
// _exit(128+sig) (core/shutdown.cpp). hwsecd exits 128+signal after a
// signal-initiated drain, 0 after a client-initiated stop.
//
// The /status endpoint speaks two dialects on the same port: a frame
// client sends kStatusRequest; anything opening with "GET " is answered as
// HTTP/1.0 with the same JSON body, so `curl --unix-socket` works against
// a live daemon.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/machine_pool.h"
#include "core/service/protocol.h"
#include "core/service/spec.h"
#include "core/shard/wire.h"

namespace hwsec::core::service {

struct ServiceConfig {
  /// Unix-domain listener path (empty disables). The daemon unlinks a
  /// stale socket at this path on start and removes it on stop.
  std::string unix_socket;
  /// Local TCP listener on 127.0.0.1 (0 disables; use 1-65535, or let the
  /// kernel pick with `tcp_port = 0` plus `tcp_enabled = true` and read
  /// the bound port back from tcp_port()).
  std::uint16_t tcp_port = 0;
  bool tcp_enabled = false;
  /// Concurrent job executor threads.
  unsigned executors = 2;
  /// Fair-share quota: jobs of one tenant running at once.
  unsigned max_running_per_tenant = 1;
  /// Admission quota: queued + running jobs per tenant.
  std::size_t max_queued_per_tenant = 16;
  /// Admission cap on spec.trials (a fat-fingered 10^12-trial spec should
  /// bounce at submit, not wedge an executor).
  std::uint64_t max_trials = 10'000'000;
  /// Admission cap on spec.workers: threads one job may ask for. Without
  /// it a single {"workers": 1000000} spec reaches ThreadPool's
  /// constructor and spawns (or dies trying to spawn) a million threads
  /// inside the shared daemon process.
  std::uint32_t max_workers = 256;
  /// Admission cap on spec.processes (shard supervisor fork count).
  std::uint32_t max_processes = 64;
  /// Admission cap on spec.hosts (remote shard workers one job may dial).
  /// The spec codec already bounds the list at kMaxSpecHosts; this is the
  /// tighter service policy — each host is an outbound connection the
  /// shared daemon opens on the tenant's behalf.
  std::size_t max_hosts = 8;
  /// Terminal (done/failed) jobs retained per tenant for attach-by-id
  /// replay. The oldest beyond this are evicted — records and all — when a
  /// job of the same tenant goes terminal, so a long-running daemon's
  /// memory is bounded instead of accreting every result blob forever.
  std::size_t max_finished_per_tenant = 64;
  /// Directory for per-job checkpoints (empty disables checkpointing).
  std::string checkpoint_dir;
  /// Progress-frame period for streaming subscriptions.
  std::chrono::milliseconds progress_interval{50};
};

/// Read-only job view for status/introspection.
struct JobInfo {
  std::string id;
  std::string tenant;
  std::string name;
  std::string kind;
  JobState state = JobState::kQueued;
  std::uint64_t done = 0;
  std::uint64_t total = 0;
  std::uint64_t digest = 0;
};

class Daemon {
 public:
  explicit Daemon(ServiceConfig config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds listeners and spawns executor/accept threads. Throws
  /// SimError(kConfigError) when no listener can be bound.
  void start();

  /// Full daemon main loop: start(), then block until a shutdown signal
  /// (install_graceful_shutdown first) or a client kStopDaemon, then drain
  /// and stop. Returns the process exit code (128+signal, or 0).
  int serve();

  /// Stops admission, fails queued jobs, lets running jobs finish (they
  /// cut short on their own only if the global shutdown flag is up), joins
  /// every thread, closes listeners. Idempotent.
  void stop();

  /// Asks serve() to return (as a client kStopDaemon does).
  void request_stop();

  /// Bound TCP port (after start) — useful with an ephemeral port.
  std::uint16_t tcp_port() const { return bound_tcp_port_; }

  std::vector<JobInfo> jobs() const;

  /// The /status document: service summary + per-job table + the full obs
  /// metrics scrape, one JSON object.
  std::string status_json() const;

 private:
  struct Job {
    std::string id;
    CampaignSpec spec;
    std::uint64_t seq = 0;
    std::atomic<JobState> state{JobState::kQueued};
    std::atomic<std::uint64_t> done{0};
    std::uint64_t total = 0;
    // Terminal fields, written once by the executor under jobs_mutex_
    // before state goes terminal (state is the release gate).
    std::string records;
    std::uint64_t digest = 0;
    std::string error;
  };

  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  // listeners / accept path
  int bind_unix();
  int bind_tcp();
  void accept_loop();
  void reap_finished_connections_locked();

  // connection protocol
  void connection_loop(int fd);
  void handle_http(int fd);
  void handle_submit(int fd, const std::string& payload);
  void handle_attach(int fd, const std::string& payload);
  void stream_job(int fd, const std::shared_ptr<Job>& job);
  bool send_service_frame(int fd, shard::FrameType type, const std::string& payload);

  // scheduling / execution
  void executor_loop();
  std::shared_ptr<Job> pick_job_locked();
  void run_job(const std::shared_ptr<Job>& job);
  void fail_queued_jobs_locked(const std::string& reason);
  void evict_finished_locked(const std::string& tenant);

  ServiceConfig config_;
  std::unique_ptr<shard::SigpipeIgnore> sigpipe_guard_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  std::uint16_t bound_tcp_port_ = 0;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};   ///< no new admissions/dispatches.
  std::atomic<bool> closing_{false};    ///< connection threads must wind down.
  std::atomic<bool> stop_requested_{false};

  MachinePool machines_;  ///< shared across every in-process job.

  mutable std::mutex jobs_mutex_;
  std::condition_variable executors_cv_;
  std::map<std::string, std::shared_ptr<Job>> jobs_;       ///< by id, all states.
  std::vector<std::shared_ptr<Job>> queue_;                ///< FIFO within arrival.
  std::map<std::string, unsigned> running_per_tenant_;
  std::map<std::string, std::size_t> admitted_per_tenant_; ///< queued + running.
  std::uint64_t next_seq_ = 1;

  std::vector<std::thread> executor_threads_;
  std::thread accept_thread_;

  std::mutex connections_mutex_;
  std::list<Connection> connections_;
};

}  // namespace hwsec::core::service
