#include "core/shard/wire.h"

#include <csignal>
#include <cstring>
#include <poll.h>
#include <unistd.h>

#include <cerrno>

namespace hwsec::core::shard {

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>(v >> 8 & 0xFF));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>(v >> shift & 0xFF));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>(v >> shift & 0xFF));
  }
}

void put_bytes(std::string& out, const std::string& bytes) {
  put_u32(out, static_cast<std::uint32_t>(bytes.size()));
  out.append(bytes);
}

namespace {

constexpr std::size_t kHeaderBytes = 12;  // magic u32, version u16, type u16, length u32.

bool read_all(int fd, char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t got = ::read(fd, data, n);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) {
      return false;  // EOF mid-frame.
    }
    data += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

/// Parses and validates a frame header. THE single validation point for
/// every read path — blocking read_frame and incremental FrameBuffer both
/// come through here, so there is exactly one definition of "acceptable
/// header": magic, version, AND payload length within the caller's cap.
/// (Before this was unified, the length check lived separately in each
/// reader; supervisor-side shard reads inherited the codec-wide 1 GiB
/// default instead of a worker-sized cap.) Returns false on a
/// desynchronized, cross-build, or lying header — always BEFORE any
/// payload allocation.
bool parse_header(const char* raw, FrameType& type, std::uint32_t& length,
                  std::uint32_t max_payload) {
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint16_t type_raw = 0;
  std::memcpy(&magic, raw, 4);
  std::memcpy(&version, raw + 4, 2);
  std::memcpy(&type_raw, raw + 6, 2);
  std::memcpy(&length, raw + 8, 4);
  if (magic != kWireMagic || version != kWireVersion || length > max_payload) {
    return false;
  }
  type = static_cast<FrameType>(type_raw);
  return true;
}

}  // namespace

std::string encode_frame(const Frame& frame) {
  std::string wire;
  wire.reserve(kHeaderBytes + frame.payload.size());
  put_u32(wire, kWireMagic);
  put_u16(wire, kWireVersion);
  put_u16(wire, static_cast<std::uint16_t>(frame.type));
  put_u32(wire, static_cast<std::uint32_t>(frame.payload.size()));
  wire.append(frame.payload);
  return wire;
}

bool write_all_fd(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t wrote = ::write(fd, data, n);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Non-blocking fd with a full buffer: wait for writability. The
        // peer draining (or dying: POLLERR/POLLHUP) wakes us either way.
        pollfd pfd{fd, POLLOUT, 0};
        poll(&pfd, 1, /*timeout_ms=*/100);
        continue;
      }
      return false;
    }
    data += wrote;
    n -= static_cast<std::size_t>(wrote);
  }
  return true;
}

bool write_frame(int fd, const Frame& frame) {
  const std::string wire = encode_frame(frame);
  return write_all_fd(fd, wire.data(), wire.size());
}

bool read_frame(int fd, Frame& out, std::uint32_t max_payload) {
  char header[kHeaderBytes];
  if (!read_all(fd, header, sizeof(header))) {
    return false;
  }
  std::uint32_t length = 0;
  if (!parse_header(header, out.type, length, max_payload)) {
    return false;  // bad magic/version or lying length: reject pre-alloc.
  }
  out.payload.resize(length);
  return length == 0 || read_all(fd, out.payload.data(), length);
}

void FrameBuffer::append(const char* data, std::size_t n) {
  buffer_.erase(0, consumed_);
  consumed_ = 0;
  buffer_.append(data, n);
}

bool FrameBuffer::next(Frame& out) {
  const std::size_t available = buffer_.size() - consumed_;
  if (corrupt_ || available < kHeaderBytes) {
    return false;
  }
  const char* head = buffer_.data() + consumed_;
  std::uint32_t length = 0;
  if (!parse_header(head, out.type, length, max_payload_)) {
    corrupt_ = true;
    return false;
  }
  if (available < kHeaderBytes + length) {
    return false;
  }
  out.payload.assign(head + kHeaderBytes, length);
  consumed_ += kHeaderBytes + length;
  return true;
}

bool drain_fd(int fd, FrameBuffer& buffer) {
  char chunk[4096];
  while (true) {
    const ssize_t got = ::read(fd, chunk, sizeof(chunk));
    if (got > 0) {
      buffer.append(chunk, static_cast<std::size_t>(got));
      continue;
    }
    if (got == 0) {
      return false;  // peer closed.
    }
    if (errno == EINTR) {
      continue;
    }
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
}

std::string encode_assign(const AssignPayload& assign) {
  std::string out;
  put_u64(out, assign.shard_id);
  put_u64(out, assign.begin);
  put_u64(out, assign.end);
  put_u32(out, assign.attempt);
  std::string mask(assign.done_mask.begin(), assign.done_mask.end());
  put_bytes(out, mask);
  return out;
}

bool decode_assign(const std::string& payload, AssignPayload& out) {
  Reader r(payload);
  std::string mask;
  if (!r.get_u64(out.shard_id) || !r.get_u64(out.begin) || !r.get_u64(out.end) ||
      !r.get_u32(out.attempt) || !r.get_bytes(mask) || !r.exhausted()) {
    return false;
  }
  out.done_mask.assign(mask.begin(), mask.end());
  return out.begin <= out.end;
}

std::string encode_trial(const TrialPayload& trial) {
  std::string out;
  put_u64(out, trial.index);
  out.push_back(trial.record.ok ? 1 : 0);
  put_u32(out, trial.record.attempts);
  out.push_back(static_cast<char>(trial.record.kind));
  put_bytes(out, trial.record.payload);
  put_bytes(out, trial.record.detail);
  put_bytes(out, trial.record.machine);
  return out;
}

bool decode_trial(const std::string& payload, TrialPayload& out) {
  Reader r(payload);
  std::uint8_t ok = 0;
  std::uint8_t kind = 0;
  std::uint32_t attempts = 0;
  if (!r.get_u64(out.index) || !r.get_u8(ok) || !r.get_u32(attempts) || !r.get_u8(kind) ||
      !r.get_bytes(out.record.payload) || !r.get_bytes(out.record.detail) ||
      !r.get_bytes(out.record.machine) || !r.exhausted()) {
    return false;
  }
  out.record.ok = ok != 0;
  out.record.attempts = attempts == 0 ? 1 : attempts;
  out.record.kind = kind;
  return true;
}

std::string encode_shard_done(std::uint64_t shard_id) {
  std::string out;
  put_u64(out, shard_id);
  return out;
}

bool decode_shard_done(const std::string& payload, std::uint64_t& shard_id) {
  Reader r(payload);
  return r.get_u64(shard_id) && r.exhausted();
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ull;
  }
  return hash;
}

SigpipeIgnore::SigpipeIgnore() : previous_(new struct sigaction) {
  struct sigaction ignore {};
  ignore.sa_handler = SIG_IGN;
  sigemptyset(&ignore.sa_mask);
  installed_ =
      sigaction(SIGPIPE, &ignore, static_cast<struct sigaction*>(previous_)) == 0;
}

SigpipeIgnore::~SigpipeIgnore() {
  if (installed_) {
    sigaction(SIGPIPE, static_cast<struct sigaction*>(previous_), nullptr);
  }
  delete static_cast<struct sigaction*>(previous_);
}

}  // namespace hwsec::core::shard
