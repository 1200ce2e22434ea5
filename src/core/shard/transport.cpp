#include "core/shard/transport.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

namespace hwsec::core::shard {

bool Transport::recv_blocking(Frame& out, std::chrono::milliseconds timeout) {
  using Clock = std::chrono::steady_clock;
  const bool bounded = timeout.count() >= 0;
  const Clock::time_point deadline = Clock::now() + timeout;
  while (true) {
    if (next(out)) {
      return true;
    }
    if (corrupt()) {
      return false;
    }
    const int fd = poll_fd();
    if (fd < 0) {
      return false;
    }
    int wait_ms = 100;
    if (bounded) {
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
      if (left.count() <= 0) {
        return false;
      }
      wait_ms = static_cast<int>(std::min<std::int64_t>(left.count(), 100));
    }
    pollfd pfd{fd, POLLIN, 0};
    poll(&pfd, 1, wait_ms);
    if (!pump()) {
      // EOF may still have completed a buffered frame; surface it before
      // reporting the stream dead.
      return next(out);
    }
  }
}

FdTransport::FdTransport(int read_fd, int write_fd, std::uint32_t max_payload)
    : read_fd_(read_fd), write_fd_(write_fd), inbuf_(max_payload) {
  if (read_fd_ >= 0) {
    fcntl(read_fd_, F_SETFL, O_NONBLOCK);
  }
}

FdTransport::~FdTransport() { FdTransport::close(); }

bool FdTransport::send_frames(std::span<const Frame> frames) {
  if (write_fd_ < 0) {
    return false;
  }
  std::string wire;
  for (const Frame& frame : frames) {
    wire += encode_frame(frame);
  }
  return write_bytes(wire.data(), wire.size());
}

bool FdTransport::write_bytes(const char* data, std::size_t n) {
  return write_all_fd(write_fd_, data, n);
}

ssize_t FdTransport::read_some(char* data, std::size_t n, bool& would_block) {
  would_block = false;
  while (true) {
    const ssize_t got = ::read(read_fd_, data, n);
    if (got >= 0) {
      return got;  // 0 = EOF.
    }
    if (errno == EINTR) {
      continue;
    }
    would_block = errno == EAGAIN || errno == EWOULDBLOCK;
    return -1;
  }
}

bool FdTransport::pump() {
  if (read_fd_ < 0) {
    return false;
  }
  char chunk[4096];
  while (true) {
    bool would_block = false;
    const ssize_t got = read_some(chunk, sizeof(chunk), would_block);
    if (got > 0) {
      inbuf_.append(chunk, static_cast<std::size_t>(got));
      continue;
    }
    if (got == 0) {
      return false;  // peer closed.
    }
    return would_block;
  }
}

void FdTransport::shutdown_writes() {
  if (write_fd_ < 0) {
    return;
  }
  if (write_fd_ == read_fd_) {
    ::shutdown(write_fd_, SHUT_WR);  // socket: half-close, reads continue.
  } else {
    ::close(write_fd_);  // pipe pair: closing the command end is the EOF.
  }
  write_fd_ = -1;
}

void FdTransport::close() {
  if (read_fd_ >= 0) {
    ::close(read_fd_);
  }
  if (write_fd_ >= 0 && write_fd_ != read_fd_) {
    ::close(write_fd_);
  }
  read_fd_ = -1;
  write_fd_ = -1;
}

// ---- FaultyTransport ----------------------------------------------------

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

FaultyTransport::FaultyTransport(int read_fd, int write_fd, const FaultPlan& plan,
                                 std::uint32_t max_payload)
    : FdTransport(read_fd, write_fd, max_payload), plan_(plan) {
  set_label("faulty");
}

double FaultyTransport::roll(std::uint64_t lane, std::uint64_t index) const {
  const std::uint64_t bits =
      splitmix64(splitmix64(plan_.seed ^ (lane * 0x9E3779B97F4A7C15ull)) ^ index);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

bool FaultyTransport::stalled() const {
  return plan_.stall_duration.count() > 0 &&
         std::chrono::steady_clock::now() < stall_until_;
}

bool FaultyTransport::send_frames(std::span<const Frame> frames) {
  if (write_fd_ < 0) {
    return false;
  }
  if (stalled()) {
    frames_out_ += frames.size();
    return true;  // a wedged link swallows writes without erroring.
  }
  // Faults roll per frame, so one can land anywhere inside a batch; the
  // unfaulted frames before it still leave in one write.
  std::string wire;
  for (const Frame& frame : frames) {
    const std::uint64_t index = frames_out_++;
    const std::size_t start = wire.size();
    wire += encode_frame(frame);
    if (roll(/*lane=*/1, index) < plan_.disconnect_probability) {
      const std::uint64_t mid_batch = start > 0 ? 1 : 0;
      fired_.disconnects += 1;
      fired_.mid_batch_disconnects += mid_batch;
      if (plan_.counts) {
        plan_.counts->disconnects += 1;
        plan_.counts->mid_batch_disconnects += mid_batch;
      }
      write_bytes(wire.data(), start + (wire.size() - start) / 2);  // truncated mid-frame...
      close();                                                       // ...then the link drops.
      return false;
    }
    if (roll(/*lane=*/2, index) < plan_.short_write_probability) {
      fired_.short_writes += 1;
      if (plan_.counts) {
        plan_.counts->short_writes += 1;
      }
      // Scatter the frame across many tiny writes; the peer's FrameBuffer
      // must reassemble across arbitrary fragmentation.
      if (start > 0 && !write_bytes(wire.data(), start)) {
        return false;
      }
      for (std::size_t off = start; off < wire.size(); off += 3) {
        const std::size_t n = std::min<std::size_t>(3, wire.size() - off);
        if (!write_bytes(wire.data() + off, n)) {
          return false;
        }
      }
      wire.clear();
    }
  }
  return wire.empty() || write_bytes(wire.data(), wire.size());
}

ssize_t FaultyTransport::read_some(char* data, std::size_t n, bool& would_block) {
  if (stalled()) {
    would_block = true;  // bytes exist, but the wedged link yields none.
    return -1;
  }
  if (plan_.byte_trickle) {
    n = 1;
  }
  return FdTransport::read_some(data, n, would_block);
}

bool FaultyTransport::pump() {
  if (stalled()) {
    return true;
  }
  if (!plan_.byte_trickle) {
    return FdTransport::pump();
  }
  // One byte per pump: the slowest wire that still makes progress.
  char byte = 0;
  bool would_block = false;
  const ssize_t got = read_some(&byte, 1, would_block);
  if (got > 0) {
    inbuf_.append(&byte, 1);
    return true;
  }
  if (got == 0) {
    return false;
  }
  return would_block;
}

bool FaultyTransport::next(Frame& out) {
  if (has_pending_dup_) {
    out = pending_dup_;
    has_pending_dup_ = false;
    return true;
  }
  if (!FdTransport::next(out)) {
    return false;
  }
  const std::uint64_t index = frames_in_++;
  if ((out.type == FrameType::kTrial || out.type == FrameType::kShardDone) &&
      roll(/*lane=*/3, index) < plan_.duplicate_probability) {
    fired_.duplicates += 1;
    if (plan_.counts) {
      plan_.counts->duplicates += 1;
    }
    pending_dup_ = out;
    has_pending_dup_ = true;
  }
  if (roll(/*lane=*/4, index) < plan_.stall_probability) {
    fired_.stalls += 1;
    if (plan_.counts) {
      plan_.counts->stalls += 1;
    }
    stall_until_ = std::chrono::steady_clock::now() + plan_.stall_duration;
  }
  return true;
}

}  // namespace hwsec::core::shard
