#include "core/shard/worker.h"

#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <mutex>
#include <thread>
#include <vector>

#include "core/shard/wire.h"

namespace hwsec::core::shard {

namespace {

/// kTrial frames per coalesced write. Each write is a syscall and one
/// wake of the supervisor's poll(); a batch spreads both over this many
/// trials. Not a setting: the heartbeat flush already bounds how long a
/// finished trial can wait, whatever the batch size.
constexpr std::size_t kTrialFramesPerWrite = 32;

/// Serializes frame writes from the trial loop and the heartbeat thread
/// onto one transport, and coalesces kTrial frames into batches. The
/// pending batch leaves in one transport write:
///  * when it holds kTrialFramesPerWrite frames;
///  * at once when a record is not ok (fail-fast latency is unchanged);
///  * ahead of any other frame, in the same write: before kShardDone, and
///    with every kHeartbeat, so no finished trial waits longer than one
///    heartbeat_interval.
/// Each write holds the lock for the whole batch, so the two threads never
/// interleave partial frames. After one failed write every later call
/// fails at once: the peer is gone.
class FrameWriter {
 public:
  explicit FrameWriter(Transport& transport) : transport_(transport) {
    pending_.reserve(kTrialFramesPerWrite);
  }

  bool trial(const TrialPayload& trial) {
    std::string payload = encode_trial(trial);
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.push_back(Frame{FrameType::kTrial, std::move(payload)});
    if (pending_.size() < kTrialFramesPerWrite && trial.record.ok) {
      return !failed_;
    }
    return flush_locked();
  }

  /// Sends the pending batch with one more frame at its end.
  bool send(FrameType type, std::string payload = {}) {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.push_back(Frame{type, std::move(payload)});
    return flush_locked();
  }

 private:
  bool flush_locked() {
    if (!failed_ && !transport_.send_frames(pending_)) {
      failed_ = true;
    }
    pending_.clear();
    return !failed_;
  }

  Transport& transport_;
  std::mutex mutex_;
  std::vector<Frame> pending_;
  bool failed_ = false;
};

/// Background liveness beacon; each beat also carries out the pending
/// trial batch. Joinable and stopped before the worker exits normally;
/// when the worker SIGKILLs itself the thread dies with the process, which
/// is exactly the silence the supervisor listens for.
class HeartbeatThread {
 public:
  HeartbeatThread(FrameWriter& writer, std::chrono::milliseconds interval)
      : writer_(writer), interval_(interval) {
    if (interval_.count() > 0) {
      thread_ = std::thread([this] { loop(); });
    }
  }

  ~HeartbeatThread() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
      lock.unlock();
      writer_.send(FrameType::kHeartbeat);
      lock.lock();
      cv_.wait_for(lock, interval_, [this] { return stopping_; });
    }
  }

  FrameWriter& writer_;
  const std::chrono::milliseconds interval_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace

int worker_loop(Transport& transport, const WorkerEnv& env, const TrialRunner& run_trial) {
  // The supervisor owns our lifetime; if it dies, writes fail with EPIPE
  // (not a fatal signal) and the loop exits.
  SigpipeIgnore no_sigpipe;
  FrameWriter writer(transport);
  HeartbeatThread heartbeat(writer, env.heartbeat_interval);

  Frame frame;
  while (transport.recv_blocking(frame, std::chrono::milliseconds(-1))) {
    if (frame.type == FrameType::kShutdown) {
      return 0;
    }
    if (frame.type != FrameType::kAssign) {
      continue;  // unknown-but-valid frame type: ignore (forward compat).
    }
    AssignPayload assign;
    if (!decode_assign(frame.payload, assign)) {
      return 2;  // malformed assignment: die loudly; the supervisor migrates.
    }
    for (std::uint64_t index = assign.begin; index < assign.end; ++index) {
      if (assign.done(index)) {
        continue;  // restored from checkpoint; never re-run finished trials.
      }
      // Seeded self-fault BEFORE the trial: the crash loses this trial's
      // result and the unsent batch before it (never reported), forcing
      // the supervisor down the migrate-and-retry path. Keyed by
      // assignment attempt, so the retry rolls fresh dice and the campaign
      // converges.
      const WorkerFault fault =
          ChaosInjector(env.chaos, static_cast<std::size_t>(index), assign.attempt + 1)
              .roll_worker_fault();
      if (fault == WorkerFault::kKill) {
        raise(SIGKILL);
      } else if (fault == WorkerFault::kStop) {
        raise(SIGSTOP);  // hangs here until the supervisor SIGKILLs us.
      }
      TrialPayload trial;
      trial.index = index;
      trial.record = run_trial(static_cast<std::size_t>(index));
      if (!writer.trial(trial)) {
        return 3;  // supervisor gone; nothing left to report to.
      }
    }
    if (!writer.send(FrameType::kShardDone, encode_shard_done(assign.shard_id))) {
      return 3;
    }
  }
  return 0;  // command stream EOF: supervisor closed us out.
}

int worker_loop(int cmd_fd, int out_fd, const WorkerEnv& env, const TrialRunner& run_trial) {
  FdTransport transport(cmd_fd, out_fd, kMaxShardFramePayload);
  transport.set_label("pipe");
  return worker_loop(transport, env, run_trial);
}

}  // namespace hwsec::core::shard
