#include "core/shard/supervisor.h"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <deque>
#include <thread>

#include "core/obs/metrics.h"
#include "core/obs/trace.h"
#include "core/shard/net.h"
#include "core/shard/transport.h"
#include "core/shard/wire.h"
#include "core/shutdown.h"

namespace hwsec::core::shard {

std::size_t planned_shard_size(const ShardConfig& config, std::size_t trials) {
  if (config.shard_size != 0) {
    return config.shard_size;
  }
  const std::size_t fan_out = static_cast<std::size_t>(config.processes) + config.hosts.size();
  return fan_out == 0 ? std::max<std::size_t>(1, trials)
                      : std::max<std::size_t>(1, trials / (fan_out * 4));
}

namespace detail_shard {

namespace {

struct Obs {
  static const obs::Counter& assignments() {
    static const obs::Counter c = obs::counter("shard_assignments");
    return c;
  }
  static const obs::Counter& migrations() {
    static const obs::Counter c = obs::counter("shard_migrations");
    return c;
  }
  static const obs::Counter& deaths() {
    static const obs::Counter c = obs::counter("shard_worker_deaths");
    return c;
  }
  static const obs::Counter& hangs() {
    static const obs::Counter c = obs::counter("shard_worker_hangs");
    return c;
  }
  static const obs::Counter& respawns() {
    static const obs::Counter c = obs::counter("shard_worker_respawns");
    return c;
  }
  static const obs::Counter& duplicates() {
    static const obs::Counter c = obs::counter("shard_duplicate_trials");
    return c;
  }
  static const obs::Counter& fallback() {
    static const obs::Counter c = obs::counter("shard_fallback_trials");
    return c;
  }
  static const obs::Counter& remote_workers() {
    static const obs::Counter c = obs::counter("shard_remote_workers");
    return c;
  }
  static const obs::Counter& reconnects() {
    static const obs::Counter c = obs::counter("shard_remote_reconnects");
    return c;
  }
  static const obs::Counter& rejected() {
    static const obs::Counter c = obs::counter("shard_handshakes_rejected");
    return c;
  }
  static const obs::Gauge& live_workers() {
    static const obs::Gauge g = obs::gauge("shard_live_workers");
    return g;
  }
  static const obs::Gauge& heartbeat_age_ms() {
    static const obs::Gauge g = obs::gauge("shard_heartbeat_age_ms");
    return g;
  }
};

using Clock = std::chrono::steady_clock;

struct Assignment {
  std::uint64_t shard_id = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint32_t attempt = 0;   ///< how many times this range was (re)assigned before.
  bool split_done = false;     ///< straggler tail already migrated once.
};

/// One worker the supervisor talks to — a forked child behind a pipe pair,
/// a dialed remote host, or an inbound TCP worker. The scheduler treats
/// them identically; only lifecycle differs (waitpid/SIGKILL for locals,
/// transport close + re-dial for remotes).
struct WorkerLink {
  pid_t pid = -1;  ///< >= 0: forked local worker (waitpid target).
  std::unique_ptr<Transport> transport;
  Clock::time_point last_seen;
  std::optional<Assignment> current;
  bool alive = false;
  bool kill_sent = false;  ///< hang detector already SIGKILLed it (locals).
  int host_index = -1;     ///< >= 0: dialed slot for config.hosts[host_index].
  bool inbound = false;    ///< accepted via the listener.

  bool idle() const { return alive && !current.has_value(); }
  bool local() const { return host_index < 0 && !inbound; }
};

/// Dial budget/backoff for one configured remote host.
struct HostState {
  unsigned attempts = 0;  ///< dial attempts spent (initial dial included).
  Clock::time_point next_attempt;
  WorkerLink* link = nullptr;  ///< the (stable) worker slot for this host.
};

class Supervisor {
 public:
  Supervisor(const ShardJob& job, const ShardConfig& config, const ResilienceConfig& res)
      : job_(job),
        config_(config),
        res_(res),
        checkpointing_(!res.checkpoint_path.empty()),
        checkpoint_(job.seed, job.trials, job.result_bytes, res.checkpoint_scope) {}

  SupervisorResult run() {
    obs::Span span("shard_campaign", static_cast<std::int64_t>(job_.trials), "trials");
    load_checkpoint();
    plan_shards();

    const bool remote = !config_.hosts.empty() || config_.listen;
    if (remote && config_.remote_spec_json.empty()) {
      throw SimError(ErrorKind::kConfigError,
                     "remote shard workers require a campaign spec "
                     "(ShardConfig::remote_spec_json is empty)");
    }
    if (done()) {
      // Nothing pending (no trials, or every slot restored): fork no
      // worker and dial no host.
      finish();
      return std::move(result_);
    }

    SigpipeIgnore no_sigpipe;
    if (remote) {
      remote_info_.spec_json = config_.remote_spec_json;
      remote_info_.digest = fnv1a64(config_.remote_spec_json);
      remote_info_.heartbeat_ms =
          static_cast<std::uint32_t>(config_.heartbeat_interval.count());
      remote_info_.wall_clock_timeout_ms =
          static_cast<std::uint32_t>(res_.wall_clock_timeout.count());
      remote_info_.chaos = res_.chaos;
    }
    for (unsigned i = 0; i < config_.processes; ++i) {
      workers_.push_back(std::make_unique<WorkerLink>());
      spawn(*workers_.back());
    }
    host_state_.resize(config_.hosts.size());
    for (std::size_t h = 0; h < config_.hosts.size(); ++h) {
      workers_.push_back(std::make_unique<WorkerLink>());
      workers_.back()->host_index = static_cast<int>(h);
      host_state_[h].link = workers_.back().get();
      dial_host(h);
    }
    if (config_.listen) {
      std::string error;
      listen_fd_ = tcp_listen(config_.listen_address, config_.listen_port, error);
      if (listen_fd_ < 0) {
        throw SimError(ErrorKind::kConfigError, "shard listener: " + error);
      }
      if (config_.on_listening) {
        config_.on_listening(tcp_local_port(listen_fd_));
      }
    }
    listen_deadline_ = Clock::now() + config_.listen_grace;

    while (!done() && !should_stop()) {
      pump_events();
      reap_exits();
      detect_hangs();
      revive_dead();
      assign_work();
      migrate_stragglers();
    }

    shutdown_fleet();
    if (!done() && !result_.shutdown && !result_.failfast_tripped) {
      // Every fork and every host avenue is exhausted but trials remain:
      // finish them here. Robustness means the campaign converges even
      // with zero workers anywhere.
      run_fallback();
    }
    finish();
    return std::move(result_);
  }

 private:
  // ---- planning ---------------------------------------------------------

  void load_checkpoint() {
    if (!checkpointing_ || !checkpoint_.load(res_.checkpoint_path)) {
      return;
    }
    for (const auto& [index, rec] : checkpoint_.records()) {
      result_.records[index] = rec;
      result_.restored.insert(index);
    }
  }

  void plan_shards() {
    const std::size_t shard_size = planned_shard_size(config_, job_.trials);
    std::uint64_t next_id = 0;
    for (std::size_t begin = 0; begin < job_.trials; begin += shard_size) {
      const std::size_t end = std::min(job_.trials, begin + shard_size);
      // Skip shards whose every trial is already restored from checkpoint.
      bool has_pending = false;
      for (std::size_t i = begin; i < end && !has_pending; ++i) {
        has_pending = result_.records.count(i) == 0;
      }
      if (has_pending) {
        pending_.push_back(Assignment{next_id, begin, end, 0, false});
      }
      ++next_id;
    }
    result_.stats.shards_total = pending_.size();
  }

  bool done() const { return result_.records.size() == job_.trials; }

  bool should_stop() {
    if (shutdown_requested()) {
      result_.shutdown = true;
      return true;
    }
    if (result_.failfast_tripped) {
      // Drain: stop once no worker still holds a shard (in-flight shards
      // finish and their slots are recorded/checkpointed, matching the
      // in-process fail-fast contract).
      return std::none_of(workers_.begin(), workers_.end(), [](const auto& w) {
        return w->alive && w->current;
      });
    }
    const bool any_alive = std::any_of(workers_.begin(), workers_.end(),
                                       [](const auto& w) { return w->alive; });
    if (any_alive) {
      // Someone is working; the inbound-wait horizon restarts from here.
      listen_deadline_ = Clock::now() + config_.listen_grace;
      return false;
    }
    // No way to make progress? (all dead; fork, re-dial, and inbound-wait
    // budgets gone) -> fallback.
    const bool fork_possible =
        config_.processes > 0 && result_.stats.worker_respawns < config_.max_respawns;
    const bool dial_possible =
        std::any_of(host_state_.begin(), host_state_.end(),
                    [this](const HostState& h) { return h.attempts < config_.max_reconnects; });
    const bool inbound_possible = listen_fd_ >= 0 && Clock::now() < listen_deadline_;
    return !fork_possible && !dial_possible && !inbound_possible;
  }

  // ---- local process management -----------------------------------------

  void spawn(WorkerLink& link) {
    int cmd_pipe[2];
    int out_pipe[2];
    if (pipe(cmd_pipe) != 0) {
      return;
    }
    if (pipe(out_pipe) != 0) {
      close(cmd_pipe[0]);
      close(cmd_pipe[1]);
      return;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      for (const int fd : {cmd_pipe[0], cmd_pipe[1], out_pipe[0], out_pipe[1]}) {
        close(fd);
      }
      return;
    }
    if (pid == 0) {
      // Child: keep only our two pipe ends; drop every other worker's
      // transport and the listener (closing them here touches only the
      // child's fd table).
      close(cmd_pipe[1]);
      close(out_pipe[0]);
      for (const auto& other : workers_) {
        if (other && other->transport) {
          other->transport->close();
        }
      }
      if (listen_fd_ >= 0) {
        close(listen_fd_);
      }
      WorkerEnv env;
      env.heartbeat_interval = config_.heartbeat_interval;
      env.chaos = res_.chaos;
      int code = 1;
      try {
        const TrialRunner runner = job_.make_runner();
        code = worker_loop(cmd_pipe[0], out_pipe[1], env, runner);
      } catch (...) {
        code = 4;  // runner construction failed; supervisor migrates.
      }
      _exit(code);  // never unwind into the forked parent's state.
    }
    close(cmd_pipe[0]);
    close(out_pipe[1]);
    link.pid = pid;
    auto transport =
        std::make_unique<FdTransport>(out_pipe[0], cmd_pipe[1], kMaxShardFramePayload);
    transport->set_label("pipe");
    link.transport = std::move(transport);
    link.current.reset();
    link.kill_sent = false;
    link.last_seen = Clock::now();
    link.alive = true;
    Obs::live_workers().set(static_cast<std::int64_t>(live_count()));
  }

  std::size_t live_count() const {
    return static_cast<std::size_t>(std::count_if(
        workers_.begin(), workers_.end(), [](const auto& w) { return w->alive; }));
  }

  // ---- remote host management -------------------------------------------

  /// One dial attempt against config_.hosts[h]: connect (or the test
  /// dialer), decorate, handshake, bind into the host's worker slot. The
  /// attempt spends budget whether or not it succeeds, so an unreachable
  /// host converges to fallback instead of spinning forever.
  bool dial_host(std::size_t h) {
    HostState& state = host_state_[h];
    state.attempts += 1;
    if (state.attempts > 1) {
      result_.stats.remote_reconnects += 1;
      Obs::reconnects().add(1);
    }
    const auto shift = std::min<unsigned>(state.attempts - 1, 6);
    state.next_attempt = Clock::now() + config_.reconnect_backoff * (1u << shift);

    const HostSpec& host = config_.hosts[h];
    std::string error;
    std::unique_ptr<Transport> transport;
    if (config_.dialer) {
      transport = config_.dialer(host, error);
    } else {
      const int fd = tcp_connect(host, config_.connect_timeout, error);
      if (fd >= 0) {
        auto fd_transport = std::make_unique<FdTransport>(fd, fd, kMaxShardFramePayload);
        fd_transport->set_label("tcp:" + host.host + ":" + std::to_string(host.port));
        transport = std::move(fd_transport);
      }
    }
    if (transport == nullptr) {
      return false;
    }
    if (config_.transport_decorator) {
      transport = config_.transport_decorator(std::move(transport));
    }
    if (!adopt_remote(*state.link, std::move(transport))) {
      return false;
    }
    state.link->host_index = static_cast<int>(h);
    return true;
  }

  /// Handshakes a fresh remote transport and, on success, binds it into
  /// `link` as a live worker.
  bool adopt_remote(WorkerLink& link, std::unique_ptr<Transport> transport) {
    HelloPayload hello;
    std::string error;
    if (!handshake_accept(*transport, remote_info_, config_.handshake_timeout, hello,
                          error)) {
      result_.stats.handshakes_rejected += 1;
      Obs::rejected().add(1);
      obs::Tracer::instance().instant("shard_handshake_rejected", 0, "count");
      transport->close();
      return false;
    }
    link.pid = -1;
    link.transport = std::move(transport);
    link.current.reset();
    link.kill_sent = false;
    link.last_seen = Clock::now();
    link.alive = true;
    result_.stats.remote_workers += 1;
    Obs::remote_workers().add(1);
    Obs::live_workers().set(static_cast<std::int64_t>(live_count()));
    return true;
  }

  void accept_inbound() {
    while (listen_fd_ >= 0) {
      const int fd = tcp_accept(listen_fd_);
      if (fd < 0) {
        return;
      }
      WorkerLink* slot = inbound_slot();
      if (slot == nullptr) {
        close(fd);  // over max_inbound_workers: refuse at the door.
        continue;
      }
      auto transport = std::make_unique<FdTransport>(fd, fd, kMaxShardFramePayload);
      transport->set_label("tcp-inbound");
      std::unique_ptr<Transport> wrapped = std::move(transport);
      if (config_.transport_decorator) {
        wrapped = config_.transport_decorator(std::move(wrapped));
      }
      adopt_remote(*slot, std::move(wrapped));
    }
  }

  /// A dead inbound slot to reuse, or a fresh one while under the cap
  /// (dead slots are recycled so reconnecting workers never grow the
  /// vector unboundedly).
  WorkerLink* inbound_slot() {
    std::size_t inbound_total = 0;
    WorkerLink* dead = nullptr;
    for (const auto& link : workers_) {
      if (!link->inbound) {
        continue;
      }
      inbound_total += 1;
      if (!link->alive && dead == nullptr) {
        dead = link.get();
      }
    }
    if (dead != nullptr) {
      return dead;
    }
    if (inbound_total >= config_.max_inbound_workers) {
      return nullptr;
    }
    workers_.push_back(std::make_unique<WorkerLink>());
    workers_.back()->inbound = true;
    return workers_.back().get();
  }

  // ---- death / revival --------------------------------------------------

  /// A worker stopped being useful (exit, hang-kill, disconnect, corrupt
  /// stream): salvage its unfinished shard for the survivors and account
  /// the death.
  void handle_death(WorkerLink& link, bool hang) {
    if (!link.alive) {
      return;
    }
    link.alive = false;
    if (link.transport) {
      link.transport->close();
      link.transport.reset();
    }
    if (stopping_) {
      // Told to exit; an exit during teardown is obedience, not a death.
      Obs::live_workers().set(static_cast<std::int64_t>(live_count()));
      return;
    }
    result_.stats.worker_deaths += 1;
    Obs::deaths().add(1);
    if (hang) {
      result_.stats.worker_hangs += 1;
      Obs::hangs().add(1);
    }
    obs::Tracer::instance().instant(hang ? "shard_worker_hang" : "shard_worker_death",
                                    static_cast<std::int64_t>(link.pid), "pid");
    if (link.current.has_value()) {
      Assignment migrated = *link.current;
      migrated.attempt += 1;
      migrated.split_done = false;
      link.current.reset();
      if (has_pending_trials(migrated)) {
        pending_.push_front(migrated);  // recover lost work first.
        result_.stats.migrations += 1;
        Obs::migrations().add(1);
      }
    }
    Obs::live_workers().set(static_cast<std::int64_t>(live_count()));
  }

  void reap_exits() {
    for (auto& worker : workers_) {
      WorkerLink& link = *worker;
      if (link.pid < 0) {
        continue;
      }
      int status = 0;
      const pid_t got = waitpid(link.pid, &status, WNOHANG);
      if (got == link.pid) {
        link.pid = -1;
        handle_death(link, /*hang=*/link.kill_sent);
      }
    }
  }

  void detect_hangs() {
    if (config_.hang_timeout.count() <= 0) {
      return;
    }
    const auto now = Clock::now();
    std::int64_t max_age_ms = 0;
    for (auto& worker : workers_) {
      WorkerLink& link = *worker;
      if (!link.alive || link.kill_sent) {
        continue;
      }
      const auto age =
          std::chrono::duration_cast<std::chrono::milliseconds>(now - link.last_seen);
      max_age_ms = std::max<std::int64_t>(max_age_ms, age.count());
      if (age > config_.hang_timeout) {
        if (link.pid >= 0) {
          // SIGKILL works on stopped processes too — this is the SIGSTOP
          // recovery path. The death is accounted when waitpid reaps it.
          kill(link.pid, SIGKILL);
          link.kill_sent = true;
        } else {
          // Remote hang: there is no process to kill, only a link to cut.
          // The heartbeat-timeout => disconnect => migrate row of the
          // failure matrix.
          handle_death(link, /*hang=*/true);
        }
      }
    }
    Obs::heartbeat_age_ms().set(max_age_ms);
  }

  void revive_dead() {
    if (pending_.empty() && done()) {
      return;
    }
    if (respawn_local()) {
      return;  // at most one revival per loop pass keeps backoff honest.
    }
    redial_hosts();
  }

  bool respawn_local() {
    const auto now = Clock::now();
    for (auto& worker : workers_) {
      WorkerLink& link = *worker;
      if (!link.local() || link.alive || link.pid >= 0) {
        continue;  // remote, alive, or dead-but-unreaped.
      }
      if (result_.stats.worker_respawns >= config_.max_respawns) {
        return false;
      }
      if (!respawn_after_.has_value()) {
        // Exponential backoff: 2^respawns * base, capped at 64x.
        const auto shift = std::min<std::uint64_t>(result_.stats.worker_respawns, 6);
        respawn_after_ = now + config_.respawn_backoff * (1 << shift);
      }
      if (now < *respawn_after_) {
        return false;  // back off before forking a replacement.
      }
      respawn_after_.reset();
      // The attempt spends budget whether or not fork() succeeds, so a
      // host that cannot fork converges to the in-process fallback instead
      // of spinning on retries forever.
      result_.stats.worker_respawns += 1;
      Obs::respawns().add(1);
      spawn(link);
      return true;
    }
    return false;
  }

  void redial_hosts() {
    const auto now = Clock::now();
    for (std::size_t h = 0; h < host_state_.size(); ++h) {
      HostState& state = host_state_[h];
      if (state.link->alive || state.link->pid >= 0) {
        continue;
      }
      if (state.attempts >= config_.max_reconnects || now < state.next_attempt) {
        continue;
      }
      dial_host(h);
      return;  // one dial per pass: a down fleet backs off, not storms.
    }
  }

  // ---- scheduling -------------------------------------------------------

  bool has_pending_trials(const Assignment& shard) const {
    for (std::uint64_t i = shard.begin; i < shard.end; ++i) {
      if (result_.records.count(static_cast<std::size_t>(i)) == 0) {
        return true;
      }
    }
    return false;
  }

  void assign_work() {
    if (result_.failfast_tripped || result_.shutdown) {
      return;
    }
    for (auto& worker : workers_) {
      WorkerLink& link = *worker;
      if (pending_.empty()) {
        return;
      }
      if (!link.idle() || !link.transport) {
        continue;
      }
      Assignment shard = pending_.front();
      pending_.pop_front();
      if (!has_pending_trials(shard)) {
        continue;  // a duplicate/straggler split fully absorbed elsewhere.
      }
      AssignPayload payload;
      payload.shard_id = shard.shard_id;
      payload.begin = shard.begin;
      payload.end = shard.end;
      payload.attempt = shard.attempt;
      payload.done_mask.assign((shard.end - shard.begin + 7) / 8, 0);
      for (std::uint64_t i = shard.begin; i < shard.end; ++i) {
        if (result_.records.count(static_cast<std::size_t>(i)) != 0) {
          payload.done_mask[static_cast<std::size_t>((i - shard.begin) >> 3)] |=
              static_cast<std::uint8_t>(1u << ((i - shard.begin) & 7));
        }
      }
      if (!link.transport->send(Frame{FrameType::kAssign, encode_assign(payload)})) {
        // The link died under the assignment (EPIPE / mid-frame drop): the
        // shard never reached the worker, so route it to a survivor. That
        // re-route is a migration even though the worker never held it.
        shard.attempt += 1;
        pending_.push_front(shard);
        result_.stats.migrations += 1;
        Obs::migrations().add(1);
        handle_death(link, /*hang=*/false);
        continue;
      }
      link.current = shard;
      result_.stats.assignments += 1;
      Obs::assignments().add(1);
    }
  }

  /// Straggler migration: the queue is dry, someone is idle, and a busy
  /// worker still owes many trials — peel off the tail half of its
  /// unfinished range for the idle one. Both may compute the overlap;
  /// records merge idempotently because trial bytes are index-pure.
  void migrate_stragglers() {
    if (!pending_.empty() || result_.failfast_tripped) {
      return;
    }
    const bool anyone_idle = std::any_of(workers_.begin(), workers_.end(),
                                         [](const auto& w) { return w->idle(); });
    if (!anyone_idle) {
      return;
    }
    for (auto& worker : workers_) {
      WorkerLink& link = *worker;
      if (!link.alive || !link.current.has_value() || link.current->split_done) {
        continue;
      }
      std::vector<std::uint64_t> unfinished;
      for (std::uint64_t i = link.current->begin; i < link.current->end; ++i) {
        if (result_.records.count(static_cast<std::size_t>(i)) == 0) {
          unfinished.push_back(i);
        }
      }
      if (unfinished.size() < 4) {
        continue;  // not worth the duplicate work.
      }
      Assignment tail;
      tail.shard_id = link.current->shard_id;
      tail.begin = unfinished[unfinished.size() / 2];
      tail.end = link.current->end;
      tail.attempt = link.current->attempt + 1;
      link.current->split_done = true;
      pending_.push_back(tail);
      result_.stats.migrations += 1;
      Obs::migrations().add(1);
      obs::Tracer::instance().instant("shard_straggler_split",
                                      static_cast<std::int64_t>(tail.begin), "begin");
      return;  // one split per pass.
    }
  }

  // ---- event pump -------------------------------------------------------

  void pump_events() {
    std::vector<pollfd> fds;
    std::vector<WorkerLink*> owners;
    for (auto& worker : workers_) {
      WorkerLink& link = *worker;
      if (link.alive && link.transport && link.transport->poll_fd() >= 0) {
        fds.push_back(pollfd{link.transport->poll_fd(), POLLIN, 0});
        owners.push_back(&link);
      }
    }
    const bool watch_listener = listen_fd_ >= 0 && !stopping_;
    if (watch_listener) {
      fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    }
    const int timeout_ms = 20;
    if (fds.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(timeout_ms));
      return;
    }
    const int ready = poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    if (ready <= 0) {
      return;
    }
    for (std::size_t i = 0; i < owners.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      WorkerLink& link = *owners[i];
      if (!link.alive || !link.transport) {
        continue;  // an earlier event this pass already tore it down.
      }
      const bool open = link.transport->pump();
      Frame frame;
      while (link.alive && link.transport && link.transport->next(frame)) {
        handle_frame(link, frame);
      }
      if (!link.alive || !link.transport) {
        continue;  // handle_frame declared it dead.
      }
      if (link.transport->corrupt()) {
        if (link.pid >= 0) {
          kill(link.pid, SIGKILL);  // desynchronized stream: fail hard.
        }
        handle_death(link, /*hang=*/false);
        continue;
      }
      if (!open && link.pid < 0) {
        // Remote EOF is the death event itself (there is no exit status
        // coming); local EOF resolves through waitpid as before.
        handle_death(link, /*hang=*/false);
      }
    }
    if (watch_listener && (fds.back().revents & POLLIN) != 0) {
      accept_inbound();
    }
  }

  void handle_frame(WorkerLink& link, const Frame& frame) {
    link.last_seen = Clock::now();
    switch (frame.type) {
      case FrameType::kHeartbeat:
        break;
      case FrameType::kTrial: {
        TrialPayload trial;
        if (!decode_trial(frame.payload, trial) || trial.index >= job_.trials ||
            (trial.record.ok && trial.record.payload.size() != job_.result_bytes)) {
          // Malformed or lying record: drop the worker (and the rest of
          // its buffered frames with it).
          if (link.pid >= 0) {
            kill(link.pid, SIGKILL);
          }
          handle_death(link, /*hang=*/false);
          return;
        }
        record_trial(static_cast<std::size_t>(trial.index), std::move(trial.record));
        break;
      }
      case FrameType::kShardDone: {
        std::uint64_t shard_id = 0;
        if (decode_shard_done(frame.payload, shard_id) && link.current.has_value() &&
            link.current->shard_id == shard_id) {
          link.current.reset();
        }
        break;
      }
      default:
        break;  // forward-compatible: ignore unknown frames from this version.
    }
  }

  void record_trial(std::size_t index, CheckpointRecord rec) {
    if (result_.records.count(index) != 0) {
      result_.stats.duplicate_trials += 1;  // straggler overlap: idempotent.
      Obs::duplicates().add(1);
      return;
    }
    if (!rec.ok && res_.policy == FailurePolicy::kFailFast) {
      result_.failfast_tripped = true;
    }
    if (checkpointing_) {
      checkpoint_.record(index, rec);
      if (++completions_since_save_ >= std::max<std::size_t>(1, res_.checkpoint_every)) {
        completions_since_save_ = 0;
        checkpoint_.save(res_.checkpoint_path);
      }
    }
    result_.records[index] = std::move(rec);
    result_.stats.trials_executed += 1;
  }

  // ---- teardown ---------------------------------------------------------

  void shutdown_fleet() {
    stopping_ = true;
    if (listen_fd_ >= 0) {
      close(listen_fd_);
      listen_fd_ = -1;
    }
    for (auto& worker : workers_) {
      WorkerLink& link = *worker;
      if (link.alive && link.transport) {
        link.transport->send(Frame{FrameType::kShutdown, {}});
        link.transport->shutdown_writes();
      }
    }
    // Grace period: workers drain their current shard, see the shutdown
    // frame (or EOF) and exit; anything still alive after it is killed
    // (locals) or cut (remotes).
    const auto deadline = Clock::now() + std::chrono::milliseconds(2000);
    while (Clock::now() < deadline) {
      pump_events();  // keep merging records workers flush while draining.
      reap_exits();
      const bool anything_left =
          std::any_of(workers_.begin(), workers_.end(),
                      [](const auto& w) { return w->pid >= 0 || (w->alive && w->pid < 0); });
      if (!anything_left) {
        break;
      }
    }
    for (auto& worker : workers_) {
      WorkerLink& link = *worker;
      if (link.pid >= 0) {
        kill(link.pid, SIGKILL);
        waitpid(link.pid, nullptr, 0);
        link.pid = -1;
        handle_death(link, /*hang=*/false);
      }
      link.alive = false;
      if (link.transport) {
        link.transport->close();
        link.transport.reset();
      }
    }
    Obs::live_workers().set(0);
  }

  void run_fallback() {
    const TrialRunner runner = job_.make_runner();
    for (std::size_t i = 0; i < job_.trials; ++i) {
      if (shutdown_requested()) {
        result_.shutdown = true;
        break;
      }
      if (result_.failfast_tripped) {
        break;
      }
      if (result_.records.count(i) != 0) {
        continue;
      }
      record_trial(i, runner(i));
      result_.stats.fallback_trials += 1;
      Obs::fallback().add(1);
    }
  }

  void finish() {
    if (checkpointing_) {
      checkpoint_.save(res_.checkpoint_path);
    }
  }

  const ShardJob& job_;
  const ShardConfig& config_;
  const ResilienceConfig& res_;
  const bool checkpointing_;
  CheckpointFile checkpoint_;
  std::size_t completions_since_save_ = 0;
  std::deque<Assignment> pending_;
  std::vector<std::unique_ptr<WorkerLink>> workers_;  ///< stable addresses for HostState.
  std::vector<HostState> host_state_;
  RemoteCampaignInfo remote_info_;
  int listen_fd_ = -1;
  Clock::time_point listen_deadline_;
  std::optional<Clock::time_point> respawn_after_;
  bool stopping_ = false;
  SupervisorResult result_;
};

}  // namespace

SupervisorResult run_sharded(const ShardJob& job, const ShardConfig& config,
                             const ResilienceConfig& res) {
  if (job.make_runner == nullptr) {
    throw SimError(ErrorKind::kConfigError, "sharded campaign without a trial runner");
  }
  Supervisor supervisor(job, config, res);
  return supervisor.run();
}

}  // namespace detail_shard

}  // namespace hwsec::core::shard
