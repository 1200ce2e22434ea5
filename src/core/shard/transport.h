// Transport: the byte-moving seam under the shard frame protocol.
//
// PR 7 built the supervisor on raw pipe fds; the multi-host engine needs
// the same protocol over TCP sockets, over socketpairs in tests, and over
// a deliberately misbehaving wire in the fault-injection suite. Transport
// is that seam: frames in (a batch per write), frames out, with the
// FrameBuffer reassembly and corrupt-stream poisoning from wire.h
// underneath, so every transport speaks the identical versioned format
// and the supervisor never learns which kind of wire a worker is behind
// ("a dead host is a dead worker writ large" — DESIGN.md S21, now
// literal).
//
//   FdTransport     pipes (distinct read/write fds) and sockets (one fd
//                   for both). Read side is non-blocking + FrameBuffer;
//                   writes ride write_all_fd's EINTR/EAGAIN loop.
//   FaultyTransport FdTransport with a seeded fault plan: short writes,
//                   byte-at-a-time delivery, mid-frame disconnects, stalls
//                   past heartbeat age, duplicated terminal frames. Faults
//                   are rolled per frame index from a splitmix64 stream,
//                   so a given (seed, plan) misbehaves reproducibly, and
//                   an outbound fault can land inside a multi-frame write.
//
// Poll integration: poll_fd() exposes the readable fd so the supervisor
// multiplexes any number of transports with the one poll() loop it always
// had; pump() drains whatever arrived, next() yields reassembled frames.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "core/shard/wire.h"

namespace hwsec::core::shard {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Writes `frames` back to back, in order, in one write where the wire
  /// allows: several whole frames per write are a legal stream (the peer's
  /// FrameBuffer splits them). False = peer unreachable (treated by callers
  /// as a worker/supervisor death, never an exception); frames of a failed
  /// batch may or may not have arrived.
  virtual bool send_frames(std::span<const Frame> frames) = 0;

  /// The one-frame case of send_frames.
  bool send(const Frame& frame) { return send_frames({&frame, 1}); }

  /// Readable fd for poll() multiplexing; -1 once closed.
  virtual int poll_fd() const = 0;

  /// Drains available bytes into the reassembly buffer without blocking.
  /// False = EOF or hard error (peer gone). Buffered complete frames are
  /// still retrievable via next() after pump() turns false.
  virtual bool pump() = 0;

  /// Extracts the next complete frame; false when more bytes are needed.
  virtual bool next(Frame& out) = 0;

  /// True once the inbound stream is poisoned (bad magic/version or a
  /// payload length over the cap). No further frames will be produced.
  virtual bool corrupt() const = 0;

  /// Half-close: no more sends, but inbound frames still flow — the
  /// supervisor's shutdown drain (send kShutdown, keep merging records the
  /// worker flushes on its way out) depends on this.
  virtual void shutdown_writes() = 0;

  virtual void close() = 0;

  /// Human-readable endpoint ("pipe", "tcp:host:port") for error strings.
  virtual std::string describe() const = 0;

  /// Blocking receive built on pump()/next(): polls until a frame arrives,
  /// the stream dies, or `timeout` passes (timeout < 0 waits forever).
  /// This is the worker side's inbox read.
  bool recv_blocking(Frame& out, std::chrono::milliseconds timeout);
};

/// Frame transport over one or two file descriptors. Pass distinct fds for
/// a pipe pair, the same fd twice for a socket. Owns the fds: close() (and
/// the destructor) closes them. The read fd is switched to non-blocking.
class FdTransport : public Transport {
 public:
  FdTransport(int read_fd, int write_fd, std::uint32_t max_payload = kMaxShardFramePayload);
  ~FdTransport() override;

  FdTransport(const FdTransport&) = delete;
  FdTransport& operator=(const FdTransport&) = delete;

  bool send_frames(std::span<const Frame> frames) override;
  int poll_fd() const override { return read_fd_; }
  bool pump() override;
  bool next(Frame& out) override { return inbuf_.next(out); }
  bool corrupt() const override { return inbuf_.corrupt(); }
  void shutdown_writes() override;
  void close() override;
  std::string describe() const override { return label_; }

  void set_label(std::string label) { label_ = std::move(label); }

 protected:
  /// Seams the fault decorator overrides. write_bytes must deliver (or
  /// deliberately fail to deliver) the full span; read_some mirrors one
  /// ::read call and reports EAGAIN as `would_block`.
  virtual bool write_bytes(const char* data, std::size_t n);
  virtual ssize_t read_some(char* data, std::size_t n, bool& would_block);

  int read_fd_ = -1;
  int write_fd_ = -1;
  FrameBuffer inbuf_;

 private:
  std::string label_ = "fd";
};

/// Faults that actually fired. Tests share one via FaultPlan::counts to
/// assert a chaos run was not vacuous — the transport itself dies with
/// the supervisor, so its own tally is unreadable after a run. Atomic:
/// transports on several worker threads may share one tally.
struct FaultCounts {
  std::atomic<std::uint64_t> short_writes{0};
  std::atomic<std::uint64_t> disconnects{0};
  /// Disconnects that cut a multi-frame write after at least one whole
  /// frame of it had gone out (the batch's tail is lost mid-write).
  std::atomic<std::uint64_t> mid_batch_disconnects{0};
  std::atomic<std::uint64_t> stalls{0};
  std::atomic<std::uint64_t> duplicates{0};
};

/// Deterministic wire-chaos decorator for the network failure-matrix
/// tests. Each fault class rolls its own dice per outbound/inbound frame
/// index, so one plan can mix several faults and still replay exactly.
struct FaultPlan {
  std::uint64_t seed = 1;
  /// Optional shared tally; every fault fired also increments this (it
  /// accumulates across sessions when re-dials copy the plan).
  std::shared_ptr<FaultCounts> counts;
  /// Outbound: deliver the frame's bytes in small scattered writes.
  double short_write_probability = 0.0;
  /// Outbound: write the batch's frames before this one and roughly half
  /// of this one, then close both directions mid-frame — the peer sees a
  /// truncated stream (EOF or poisoning).
  double disconnect_probability = 0.0;
  /// Inbound (rolled per received frame, so it triggers amid the steady
  /// heartbeat stream): go silent in BOTH directions for stall_duration —
  /// reads stop, sends are dropped — so the reader's heartbeat-age
  /// detector must fire and migrate, exactly like a wedged link.
  double stall_probability = 0.0;
  std::chrono::milliseconds stall_duration{0};
  /// Inbound: deliver kTrial / kShardDone terminal frames twice (the
  /// duplicate-merge idempotency test).
  double duplicate_probability = 0.0;
  /// Inbound: deliver at most one byte per pump() — every frame crosses
  /// the reassembly path in maximally hostile fragmentation.
  bool byte_trickle = false;
};

class FaultyTransport : public FdTransport {
 public:
  FaultyTransport(int read_fd, int write_fd, const FaultPlan& plan,
                  std::uint32_t max_payload = kMaxShardFramePayload);

  bool send_frames(std::span<const Frame> frames) override;
  bool pump() override;
  bool next(Frame& out) override;

  /// This transport's own tally (valid only while it lives; use
  /// FaultPlan::counts to observe a whole campaign).
  const FaultCounts& fired() const { return fired_; }

 protected:
  ssize_t read_some(char* data, std::size_t n, bool& would_block) override;

 private:
  bool stalled() const;
  /// Uniform [0,1) roll for fault `lane` at frame `index` — pure in
  /// (seed, lane, index), so the fault schedule is a replayable function
  /// of the plan, not of scheduler timing.
  double roll(std::uint64_t lane, std::uint64_t index) const;

  FaultPlan plan_;
  FaultCounts fired_;
  std::uint64_t frames_out_ = 0;
  std::uint64_t frames_in_ = 0;
  std::chrono::steady_clock::time_point stall_until_{};
  bool has_pending_dup_ = false;
  Frame pending_dup_;
};

}  // namespace hwsec::core::shard
