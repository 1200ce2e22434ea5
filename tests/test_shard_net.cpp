// Multi-host sharded campaigns (core/shard transport + net layers).
//
// The invariant under test extends PR 7's: a campaign spread over N hosts
// — behind real loopback TCP, behind socketpairs, or behind a transport
// that deliberately short-writes, trickles bytes, disconnects mid-frame,
// stalls past the heartbeat horizon, or duplicates terminal frames —
// produces exactly the outcome vector the in-process resilient runner
// produces. The wire moves work, never results that depend on where (or
// how badly) they traveled.
//
// Process hygiene: every fork-based test lives in the MultiHostProc suite
// so sanitizer jobs that cannot mix fork with threads (TSan) can filter
// them with --gtest_filter=-MultiHostProc.*; everything else runs workers
// as plain threads over socketpairs.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "core/service/catalog.h"
#include "core/service/remote_worker.h"
#include "core/service/spec.h"
#include "core/shard/net.h"
#include "core/shard/supervisor.h"
#include "core/shard/transport.h"
#include "core/shard/wire.h"
#include "core/shard/worker.h"
#include "sim/rng.h"

namespace core = hwsec::core;
namespace shard = hwsec::core::shard;
namespace service = hwsec::core::service;
using hwsec::ErrorKind;
using hwsec::SimError;

namespace {

std::string ckpt_path(const std::string& name) {
  const char* dir = std::getenv("HWSEC_CHECKPOINT_DIR");
  const std::string base = (dir != nullptr && *dir != '\0') ? dir : ".";
  return base + "/" + name + "." + std::to_string(::getpid()) + ".ckpt";
}

service::CampaignSpec mix_spec(std::uint64_t seed, std::uint64_t trials) {
  service::CampaignSpec spec;
  spec.tenant = "nettest";
  spec.kind = "mix";
  spec.seed = seed;
  spec.trials = trials;
  return spec;
}

/// The reference every multi-host run must be bit-identical to: the same
/// spec through the plain in-process resilient runner.
service::ServiceOutcomes reference_run(const service::CampaignSpec& spec) {
  service::CampaignSpec local = spec;
  local.processes = 0;
  local.hosts.clear();
  return service::run_spec(local, core::ResilienceConfig{});
}

void expect_identical(const service::ServiceOutcomes& got,
                      const service::ServiceOutcomes& want, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].ok(), want[i].ok()) << label << " slot " << i;
    if (want[i].ok()) {
      EXPECT_EQ(got[i].value(), want[i].value()) << label << " slot " << i;
    }
  }
}

/// Runs `spec` through the sharded supervisor exactly the way
/// service::run_spec's sharded path does (same body, same folded knobs),
/// but with the caller's ShardConfig — the door to the dialer/fault seams.
service::ServiceOutcomes run_sharded_spec(const service::CampaignSpec& spec,
                                          shard::ShardConfig shard_cfg,
                                          shard::ShardStats* stats = nullptr,
                                          core::ResilienceConfig res = {}) {
  core::CampaignConfig cfg;
  cfg.seed = spec.seed;
  cfg.trials = static_cast<std::size_t>(spec.trials);
  cfg.workers = spec.workers;
  cfg.resilience = service::spec_resilience(spec, std::move(res));
  cfg.shard = std::move(shard_cfg);
  cfg.shard.remote_spec_json = service::encode_spec(spec);
  return core::run_campaign<service::ServiceTrialResult>(cfg, service::make_trial_body(spec),
                                                         stats);
}

// ---- in-thread worker fleet (TSan-safe: no fork anywhere) ---------------

/// Joinable bag of worker threads; keeps fault-matrix tests leak-free even
/// when a transport dies mid-session.
struct ThreadFleet {
  std::vector<std::thread> threads;
  std::mutex mutex;

  ~ThreadFleet() { join(); }

  void join() {
    std::vector<std::thread> local;
    {
      std::lock_guard<std::mutex> lock(mutex);
      local.swap(threads);
    }
    for (auto& t : local) {
      if (t.joinable()) {
        t.join();
      }
    }
  }
};

/// A dialer that "reaches" an in-thread remote worker over a socketpair:
/// every dial spawns a fresh serve_supervisor session thread and hands the
/// supervisor its end — wrapped in a FaultyTransport when `plan` is set.
/// Re-dials after a death naturally get a brand-new worker, mirroring a
/// remote machine whose worker process was restarted. Each dial advances
/// the fault seed: a replayable plan that killed session k at frame j
/// would otherwise kill session k+1 at frame j too, and a host whose
/// handshake dies once could never join at all.
std::function<std::unique_ptr<shard::Transport>(const shard::HostSpec&, std::string&)>
thread_worker_dialer(ThreadFleet& fleet, const shard::FaultPlan* plan = nullptr,
                     std::uint64_t expect_digest = 0) {
  auto dials = std::make_shared<std::uint64_t>(0);
  return [&fleet, plan, expect_digest, dials](
             const shard::HostSpec&, std::string& error) -> std::unique_ptr<shard::Transport> {
    int sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      error = "socketpair failed";
      return nullptr;
    }
    {
      std::lock_guard<std::mutex> lock(fleet.mutex);
      fleet.threads.emplace_back([fd = sv[1], expect_digest] {
        shard::FdTransport transport(fd, fd);
        transport.set_label("thread-worker");
        shard::HelloPayload hello;
        hello.worker_name = "thread";
        hello.expect_digest = expect_digest;
        std::string err;
        service::serve_supervisor(transport, hello, std::chrono::milliseconds(2000), err);
      });
    }
    if (plan != nullptr) {
      shard::FaultPlan session_plan = *plan;
      session_plan.seed = plan->seed + 1000 * (*dials)++;
      return std::make_unique<shard::FaultyTransport>(sv[0], sv[0], session_plan);
    }
    return std::make_unique<shard::FdTransport>(sv[0], sv[0]);
  };
}

/// N fake host entries (the dialer ignores the address; each entry is one
/// remote worker slot with its own dial/backoff budget).
std::vector<shard::HostSpec> fake_hosts(std::size_t n) {
  std::vector<shard::HostSpec> hosts;
  for (std::size_t i = 0; i < n; ++i) {
    hosts.push_back(shard::HostSpec{"worker" + std::to_string(i),
                                    static_cast<std::uint16_t>(7000 + i)});
  }
  return hosts;
}

// ---- wire: socket framing + the unified payload cap ---------------------

TEST(NetWire, FramesRoundTripOverASocketTransport) {
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  shard::FdTransport a(sv[0], sv[0]);
  shard::FdTransport b(sv[1], sv[1]);

  shard::TrialPayload trial;
  trial.index = 41;
  trial.record.ok = true;
  trial.record.payload = std::string("\x10\x20\x30\x40", 4);
  ASSERT_TRUE(a.send({shard::FrameType::kTrial, shard::encode_trial(trial)}));
  ASSERT_TRUE(a.send({shard::FrameType::kHeartbeat, {}}));

  shard::Frame frame;
  ASSERT_TRUE(b.recv_blocking(frame, std::chrono::milliseconds(2000)));
  ASSERT_EQ(frame.type, shard::FrameType::kTrial);
  shard::TrialPayload got;
  ASSERT_TRUE(shard::decode_trial(frame.payload, got));
  EXPECT_EQ(got.index, 41u);
  EXPECT_EQ(got.record.payload, trial.record.payload);
  ASSERT_TRUE(b.recv_blocking(frame, std::chrono::milliseconds(2000)));
  EXPECT_EQ(frame.type, shard::FrameType::kHeartbeat);

  // Half-close: a's writes end, but the reverse direction still works.
  ASSERT_TRUE(b.send({shard::FrameType::kShutdown, {}}));
  a.shutdown_writes();
  ASSERT_TRUE(a.recv_blocking(frame, std::chrono::milliseconds(2000)));
  EXPECT_EQ(frame.type, shard::FrameType::kShutdown);
  EXPECT_FALSE(b.recv_blocking(frame, std::chrono::milliseconds(2000)));  // EOF.
}

TEST(NetWire, EncodeFrameMatchesWriteFrameBytes) {
  const shard::Frame frame{shard::FrameType::kAssign, "payload-bytes"};
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  ASSERT_TRUE(shard::write_frame(fds[1], frame));
  char raw[128];
  const ssize_t n = read(fds[0], raw, sizeof(raw));
  close(fds[0]);
  close(fds[1]);
  const std::string encoded = shard::encode_frame(frame);
  ASSERT_EQ(static_cast<std::size_t>(n), encoded.size());
  EXPECT_EQ(std::memcmp(raw, encoded.data(), encoded.size()), 0);
}

// Regression for the unified header check: a length field over the shard
// cap (but under the generic 1 GiB wire cap) must poison BOTH decode
// paths — FrameBuffer::next and read_frame ran separate checks before
// wire.cpp's parse_header unified them, and only one enforced the cap a
// remote worker is held to.
TEST(NetWire, OversizedLengthFromAWorkerPoisonsEveryDecodePath) {
  std::string header = shard::encode_frame({shard::FrameType::kTrial, {}});
  const std::uint32_t hostile = shard::kMaxShardFramePayload + 1;
  header[8] = static_cast<char>(hostile & 0xFF);
  header[9] = static_cast<char>((hostile >> 8) & 0xFF);
  header[10] = static_cast<char>((hostile >> 16) & 0xFF);
  header[11] = static_cast<char>((hostile >> 24) & 0xFF);

  shard::FrameBuffer buf(shard::kMaxShardFramePayload);
  buf.append(header.data(), header.size());
  shard::Frame out;
  EXPECT_FALSE(buf.next(out));
  EXPECT_TRUE(buf.corrupt());

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  ASSERT_EQ(write(fds[1], header.data(), header.size()),
            static_cast<ssize_t>(header.size()));
  close(fds[1]);
  EXPECT_FALSE(shard::read_frame(fds[0], out, shard::kMaxShardFramePayload));
  close(fds[0]);

  // The same bytes under the generic cap are a legal (if huge) length —
  // proving the rejection above came from the per-channel cap, not luck.
  shard::FrameBuffer wide(shard::kMaxFramePayload);
  wide.append(header.data(), header.size());
  EXPECT_FALSE(wide.next(out));   // waiting for the payload...
  EXPECT_FALSE(wide.corrupt());   // ...not poisoned.
}

// ---- handshake codecs + fuzz --------------------------------------------

TEST(NetHandshake, PayloadCodecsRoundTrip) {
  shard::HelloPayload hello;
  hello.capabilities = shard::kCapSpecRunner | (1u << 7);
  hello.expect_digest = 0xDEADBEEFCAFEF00Dull;
  hello.worker_name = "rig-b.worker-3";
  shard::HelloPayload hello2;
  ASSERT_TRUE(shard::decode_hello(shard::encode_hello(hello), hello2));
  EXPECT_EQ(hello2.wire_version, shard::kWireVersion);
  EXPECT_EQ(hello2.capabilities, hello.capabilities);
  EXPECT_EQ(hello2.expect_digest, hello.expect_digest);
  EXPECT_EQ(hello2.worker_name, hello.worker_name);

  shard::WelcomePayload welcome;
  welcome.spec_json = service::encode_spec(mix_spec(9, 50));
  welcome.campaign_digest = shard::fnv1a64(welcome.spec_json);
  welcome.heartbeat_ms = 15;
  welcome.wall_clock_timeout_ms = 30000;
  welcome.chaos.seed = 77;
  welcome.chaos.throw_probability = 0.125;
  welcome.chaos.worker_kill_probability = 0.0625;
  welcome.chaos.max_delay_us = 1234;
  shard::WelcomePayload welcome2;
  ASSERT_TRUE(shard::decode_welcome(shard::encode_welcome(welcome), welcome2));
  EXPECT_EQ(welcome2.campaign_digest, welcome.campaign_digest);
  EXPECT_EQ(welcome2.spec_json, welcome.spec_json);
  EXPECT_EQ(welcome2.heartbeat_ms, 15u);
  EXPECT_EQ(welcome2.wall_clock_timeout_ms, 30000u);
  EXPECT_EQ(welcome2.chaos.seed, 77u);
  EXPECT_EQ(welcome2.chaos.throw_probability, 0.125);
  EXPECT_EQ(welcome2.chaos.worker_kill_probability, 0.0625);
  EXPECT_EQ(welcome2.chaos.max_delay_us, 1234u);

  shard::RejectPayload reject{"campaign digest mismatch: worker expects 1, this campaign is 2"};
  shard::RejectPayload reject2;
  ASSERT_TRUE(shard::decode_reject(shard::encode_reject(reject), reject2));
  EXPECT_EQ(reject2.reason, reject.reason);
}

TEST(NetHandshake, TruncatedPayloadsNeverDecode) {
  shard::WelcomePayload welcome;
  welcome.spec_json = service::encode_spec(mix_spec(3, 10));
  welcome.campaign_digest = shard::fnv1a64(welcome.spec_json);
  const std::string hello_bytes = shard::encode_hello(shard::HelloPayload{});
  const std::string welcome_bytes = shard::encode_welcome(welcome);
  for (std::size_t n = 0; n < hello_bytes.size(); ++n) {
    shard::HelloPayload out;
    EXPECT_FALSE(shard::decode_hello(hello_bytes.substr(0, n), out)) << "prefix " << n;
  }
  for (std::size_t n = 0; n < welcome_bytes.size(); ++n) {
    shard::WelcomePayload out;
    EXPECT_FALSE(shard::decode_welcome(welcome_bytes.substr(0, n), out)) << "prefix " << n;
  }
}

TEST(NetHandshake, GarbagePayloadFuzzNeverCrashes) {
  hwsec::sim::Rng rng(0xF00DF00Dull);
  for (int round = 0; round < 400; ++round) {
    const std::size_t len = static_cast<std::size_t>(rng.below(200));
    std::string bytes(len, '\0');
    for (auto& c : bytes) {
      c = static_cast<char>(rng.next_u64() & 0xFF);
    }
    shard::HelloPayload hello;
    shard::WelcomePayload welcome;
    shard::RejectPayload reject;
    (void)shard::decode_hello(bytes, hello);
    (void)shard::decode_welcome(bytes, welcome);
    (void)shard::decode_reject(bytes, reject);
  }
  SUCCEED();  // no crash, no sanitizer report.
}

// ---- handshake protocol over socketpairs --------------------------------

struct HandshakeRig {
  int sv[2] = {-1, -1};
  std::unique_ptr<shard::FdTransport> supervisor;
  std::unique_ptr<shard::FdTransport> worker;

  HandshakeRig() {
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    supervisor = std::make_unique<shard::FdTransport>(sv[0], sv[0]);
    worker = std::make_unique<shard::FdTransport>(sv[1], sv[1]);
  }
};

shard::RemoteCampaignInfo campaign_info(const service::CampaignSpec& spec) {
  shard::RemoteCampaignInfo info;
  info.spec_json = service::encode_spec(spec);
  info.digest = shard::fnv1a64(info.spec_json);
  info.heartbeat_ms = 10;
  return info;
}

TEST(NetHandshake, WorkerJoinsAndReceivesTheCampaign) {
  HandshakeRig rig;
  const auto info = campaign_info(mix_spec(5, 25));
  std::thread accept_thread([&] {
    shard::HelloPayload hello;
    std::string error;
    EXPECT_TRUE(shard::handshake_accept(*rig.supervisor, info,
                                        std::chrono::milliseconds(2000), hello, error))
        << error;
    EXPECT_EQ(hello.worker_name, "w1");
  });
  shard::HelloPayload hello;
  hello.worker_name = "w1";
  shard::WelcomePayload welcome;
  std::string error;
  ASSERT_TRUE(shard::handshake_connect(*rig.worker, hello, std::chrono::milliseconds(2000),
                                       welcome, error))
      << error;
  EXPECT_EQ(welcome.campaign_digest, info.digest);
  EXPECT_EQ(welcome.spec_json, info.spec_json);
  EXPECT_EQ(welcome.heartbeat_ms, 10u);
  accept_thread.join();
}

TEST(NetHandshake, OldWireVersionIsRejectedByName) {
  HandshakeRig rig;
  const auto info = campaign_info(mix_spec(5, 25));
  // A worker built against wire v0: craft the hello by hand.
  std::string payload = shard::encode_hello(shard::HelloPayload{});
  payload[0] = 0;  // wire_version low byte.
  payload[1] = 0;
  ASSERT_TRUE(rig.worker->send({shard::FrameType::kHello, payload}));

  shard::HelloPayload hello;
  std::string error;
  EXPECT_FALSE(shard::handshake_accept(*rig.supervisor, info,
                                       std::chrono::milliseconds(2000), hello, error));
  EXPECT_NE(error.find("wire version mismatch"), std::string::npos) << error;

  // The worker got the same named reason in a kReject frame, not silence.
  shard::Frame frame;
  ASSERT_TRUE(rig.worker->recv_blocking(frame, std::chrono::milliseconds(2000)));
  ASSERT_EQ(frame.type, shard::FrameType::kReject);
  shard::RejectPayload reject;
  ASSERT_TRUE(shard::decode_reject(frame.payload, reject));
  EXPECT_NE(reject.reason.find("wire version mismatch"), std::string::npos) << reject.reason;
}

TEST(NetHandshake, StaleWorkerDigestIsRejectedByName) {
  HandshakeRig rig;
  const auto info = campaign_info(mix_spec(5, 25));
  std::thread accept_thread([&] {
    shard::HelloPayload hello;
    std::string error;
    EXPECT_FALSE(shard::handshake_accept(*rig.supervisor, info,
                                         std::chrono::milliseconds(2000), hello, error));
    EXPECT_NE(error.find("campaign digest mismatch"), std::string::npos) << error;
  });
  shard::HelloPayload hello;
  hello.expect_digest = info.digest ^ 0xBAD;  // pinned to some other campaign.
  shard::WelcomePayload welcome;
  std::string error;
  EXPECT_FALSE(shard::handshake_connect(*rig.worker, hello,
                                        std::chrono::milliseconds(2000), welcome, error));
  EXPECT_NE(error.find("campaign digest mismatch"), std::string::npos) << error;
  accept_thread.join();
}

TEST(NetHandshake, MissingCapabilityIsRejectedByName) {
  HandshakeRig rig;
  const auto info = campaign_info(mix_spec(5, 25));
  shard::HelloPayload bare;
  bare.capabilities = 0;  // cannot run spec campaigns.
  ASSERT_TRUE(rig.worker->send({shard::FrameType::kHello, shard::encode_hello(bare)}));
  shard::HelloPayload hello;
  std::string error;
  EXPECT_FALSE(shard::handshake_accept(*rig.supervisor, info,
                                       std::chrono::milliseconds(2000), hello, error));
  EXPECT_NE(error.find("capability"), std::string::npos) << error;
}

TEST(NetHandshake, WorkerRefusesAWelcomeWhoseSpecDoesNotHashToTheDigest) {
  HandshakeRig rig;
  std::thread lying_supervisor([&] {
    shard::Frame frame;
    ASSERT_TRUE(rig.supervisor->recv_blocking(frame, std::chrono::milliseconds(2000)));
    ASSERT_EQ(frame.type, shard::FrameType::kHello);
    shard::WelcomePayload welcome;
    welcome.spec_json = service::encode_spec(mix_spec(5, 25));
    welcome.campaign_digest = shard::fnv1a64(welcome.spec_json) ^ 1;  // lie.
    ASSERT_TRUE(
        rig.supervisor->send({shard::FrameType::kWelcome, shard::encode_welcome(welcome)}));
  });
  shard::WelcomePayload welcome;
  std::string error;
  EXPECT_FALSE(shard::handshake_connect(*rig.worker, shard::HelloPayload{},
                                        std::chrono::milliseconds(2000), welcome, error));
  EXPECT_NE(error.find("digest"), std::string::npos) << error;
  lying_supervisor.join();
}

// ---- host discovery ------------------------------------------------------

TEST(NetDiscovery, ParsesHostListsAndNamesEveryRejection) {
  std::vector<shard::HostSpec> hosts;
  std::string error;
  ASSERT_TRUE(shard::parse_hosts("127.0.0.1:7700,rig-b.lan:7701", hosts, error)) << error;
  ASSERT_EQ(hosts.size(), 2u);
  EXPECT_EQ(hosts[0].host, "127.0.0.1");
  EXPECT_EQ(hosts[0].port, 7700);
  EXPECT_EQ(hosts[1].host, "rig-b.lan");
  EXPECT_EQ(hosts[1].port, 7701);

  for (const char* bad : {"127.0.0.1", "host:", ":7700", "host:0", "host:99999",
                          "host:7x00", "a,b", "evil;rm:7700", ""}) {
    hosts.clear();
    error.clear();
    EXPECT_FALSE(shard::parse_hosts(bad, hosts, error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(NetDiscovery, EnvironmentFallbackParsesAndReportsErrors) {
  setenv("HWSEC_SHARD_HOSTS", "127.0.0.1:7812", 1);
  std::string error;
  auto hosts = shard::hosts_from_env(error);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_EQ(hosts.size(), 1u);
  EXPECT_EQ(hosts[0].port, 7812);

  setenv("HWSEC_SHARD_HOSTS", "not-a-host-list", 1);
  hosts = shard::hosts_from_env(error);
  EXPECT_TRUE(hosts.empty());
  EXPECT_NE(error.find("HWSEC_SHARD_HOSTS"), std::string::npos) << error;

  unsetenv("HWSEC_SHARD_HOSTS");
  error.clear();
  hosts = shard::hosts_from_env(error);
  EXPECT_TRUE(hosts.empty());
  EXPECT_TRUE(error.empty());
}

TEST(NetDiscovery, SpecsCarryAndValidateHostLists) {
  service::CampaignSpec spec = mix_spec(11, 6);
  spec.hosts = {"127.0.0.1:7700", "127.0.0.1:7701"};
  const std::string json = service::encode_spec(spec);
  service::CampaignSpec decoded;
  std::string error;
  ASSERT_TRUE(service::decode_spec(json, decoded, error)) << error;
  EXPECT_EQ(decoded.hosts, spec.hosts);
  // The digest covers the host list: same spec, different hosts => a
  // different campaign identity.
  service::CampaignSpec other = spec;
  other.hosts = {"127.0.0.1:7700"};
  EXPECT_NE(shard::fnv1a64(service::encode_spec(spec)),
            shard::fnv1a64(service::encode_spec(other)));

  service::CampaignSpec bad;
  EXPECT_FALSE(service::decode_spec(
      R"({"hwsec_spec_version": 1, "tenant": "t", "kind": "mix", "trials": 1,)"
      R"( "hosts": ["no-port"]})",
      bad, error));
  EXPECT_NE(error.find("hosts"), std::string::npos) << error;
  EXPECT_FALSE(service::decode_spec(
      R"({"hwsec_spec_version": 1, "tenant": "t", "kind": "mix", "trials": 1,)"
      R"( "hosts": "127.0.0.1:1"})",
      bad, error));
}

// ---- the network failure matrix (threads over socketpairs) --------------

TEST(NetFault, ShortWritesAreReassembledBitIdentically) {
  const auto spec = mix_spec(0xA11CE, 30);
  const auto want = reference_run(spec);
  ThreadFleet fleet;
  shard::FaultPlan plan;
  plan.seed = 11;
  plan.short_write_probability = 1.0;  // every frame scattered into 3-byte writes.
  plan.counts = std::make_shared<shard::FaultCounts>();
  shard::ShardConfig cfg;
  cfg.processes = 0;
  cfg.hosts = fake_hosts(1);
  cfg.dialer = thread_worker_dialer(fleet, &plan);
  shard::ShardStats stats;
  const auto got = run_sharded_spec(spec, cfg, &stats);
  fleet.join();
  expect_identical(got, want, "short-writes");
  EXPECT_GT(plan.counts->short_writes, 0u);
  EXPECT_EQ(stats.remote_workers, 1u);
}

TEST(NetFault, ByteAtATimeDeliveryIsBitIdentical) {
  const auto spec = mix_spec(0xB17E, 12);
  const auto want = reference_run(spec);
  ThreadFleet fleet;
  shard::FaultPlan plan;
  plan.byte_trickle = true;  // worst-case fragmentation on the inbound path.
  shard::ShardConfig cfg;
  cfg.processes = 0;
  cfg.hosts = fake_hosts(1);
  cfg.shard_size = 3;
  cfg.dialer = thread_worker_dialer(fleet, &plan);
  const auto got = run_sharded_spec(spec, cfg);
  fleet.join();
  expect_identical(got, want, "byte-trickle");
}

TEST(NetFault, MidFrameDisconnectMigratesAndReconnects) {
  const auto spec = mix_spec(0xD15C, 40);
  const auto want = reference_run(spec);
  ThreadFleet fleet;
  shard::FaultPlan plan;
  plan.seed = 5;
  plan.disconnect_probability = 0.2;  // dies within a few outbound frames.
  shard::ShardConfig cfg;
  cfg.processes = 0;
  cfg.hosts = fake_hosts(2);
  cfg.shard_size = 4;
  cfg.max_reconnects = 8;
  cfg.reconnect_backoff = std::chrono::milliseconds(5);
  cfg.dialer = thread_worker_dialer(fleet, &plan);
  shard::ShardStats stats;
  const auto got = run_sharded_spec(spec, cfg, &stats);
  fleet.join();
  expect_identical(got, want, "mid-frame-disconnect");
  EXPECT_GT(stats.worker_deaths, 0u);
  EXPECT_GT(stats.migrations, 0u);
  EXPECT_GT(stats.remote_reconnects, 0u);
}

TEST(NetFault, StallPastHeartbeatAgeIsDetectedAndMigrated) {
  const auto spec = mix_spec(0x57A11, 24);
  const auto want = reference_run(spec);
  ThreadFleet fleet;
  shard::FaultPlan plan;
  plan.seed = 3;
  plan.stall_probability = 0.3;  // rolled per inbound frame (heartbeats!).
  plan.stall_duration = std::chrono::milliseconds(2000);
  plan.counts = std::make_shared<shard::FaultCounts>();
  shard::ShardConfig cfg;
  cfg.processes = 0;
  cfg.hosts = fake_hosts(2);
  cfg.shard_size = 4;
  cfg.heartbeat_interval = std::chrono::milliseconds(10);
  cfg.hang_timeout = std::chrono::milliseconds(150);  // << stall_duration.
  cfg.max_reconnects = 8;
  cfg.reconnect_backoff = std::chrono::milliseconds(5);
  cfg.dialer = thread_worker_dialer(fleet, &plan);
  shard::ShardStats stats;
  const auto got = run_sharded_spec(spec, cfg, &stats);
  fleet.join();
  expect_identical(got, want, "stall");
  EXPECT_GT(plan.counts->stalls, 0u);
  EXPECT_GT(stats.worker_hangs, 0u);
  EXPECT_GT(stats.migrations, 0u);
}

TEST(NetFault, DuplicatedTerminalFramesMergeIdempotently) {
  const auto spec = mix_spec(0xD0B1E, 30);
  const auto want = reference_run(spec);
  ThreadFleet fleet;
  shard::FaultPlan plan;
  plan.seed = 7;
  plan.duplicate_probability = 1.0;  // every kTrial/kShardDone delivered twice.
  plan.counts = std::make_shared<shard::FaultCounts>();
  shard::ShardConfig cfg;
  cfg.processes = 0;
  cfg.hosts = fake_hosts(1);
  cfg.dialer = thread_worker_dialer(fleet, &plan);
  shard::ShardStats stats;
  const auto got = run_sharded_spec(spec, cfg, &stats);
  fleet.join();
  expect_identical(got, want, "duplicate-frames");
  EXPECT_GT(plan.counts->duplicates, 0u);
  EXPECT_GT(stats.duplicate_trials, 0u);
}

TEST(NetFault, CombinedFaultSoupConvergesAcrossSeeds) {
  const auto spec = mix_spec(0x50FA, 36);
  const auto want = reference_run(spec);
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    ThreadFleet fleet;
    shard::FaultPlan plan;
    plan.seed = seed;
    plan.short_write_probability = 0.5;
    plan.disconnect_probability = 0.05;
    plan.duplicate_probability = 0.3;
    shard::ShardConfig cfg;
    cfg.processes = 0;
    cfg.hosts = fake_hosts(2);
    cfg.shard_size = 4;
    cfg.max_reconnects = 16;
    cfg.reconnect_backoff = std::chrono::milliseconds(2);
    cfg.dialer = thread_worker_dialer(fleet, &plan);
    const auto got = run_sharded_spec(spec, cfg);
    fleet.join();
    expect_identical(got, want, "fault-soup seed=" + std::to_string(seed));
  }
}

TEST(NetFault, UnreachableHostsExhaustBackoffBudgetAndFallBack) {
  const auto spec = mix_spec(0xFA11, 14);
  const auto want = reference_run(spec);
  unsigned dials = 0;
  shard::ShardConfig cfg;
  cfg.processes = 0;
  cfg.hosts = fake_hosts(1);
  cfg.max_reconnects = 3;
  cfg.reconnect_backoff = std::chrono::milliseconds(2);
  cfg.dialer = [&dials](const shard::HostSpec&,
                        std::string& error) -> std::unique_ptr<shard::Transport> {
    ++dials;
    error = "connection refused";
    return nullptr;
  };
  shard::ShardStats stats;
  const auto got = run_sharded_spec(spec, cfg, &stats);
  expect_identical(got, want, "unreachable-host");
  EXPECT_EQ(dials, 3u);  // the budget, exactly — backoff never spins free retries.
  EXPECT_EQ(stats.fallback_trials, spec.trials);
  EXPECT_EQ(stats.remote_workers, 0u);
}

TEST(NetFault, NothingPendingDialsNoHost) {
  unsigned dials = 0;
  shard::ShardConfig cfg;
  cfg.processes = 0;
  cfg.hosts = fake_hosts(2);
  cfg.dialer = [&dials](const shard::HostSpec&,
                        std::string& error) -> std::unique_ptr<shard::Transport> {
    ++dials;
    error = "connection refused";
    return nullptr;
  };

  // A resume whose checkpoint already holds every slot.
  const std::string path = ckpt_path("net_nothing_pending");
  std::remove(path.c_str());
  const auto spec = mix_spec(0x0DD, 12);
  core::ResilienceConfig res;
  res.checkpoint_path = path;
  const auto want = service::run_spec(spec, res);
  shard::ShardStats stats;
  const auto resumed = run_sharded_spec(spec, cfg, &stats, res);
  expect_identical(resumed, want, "fully-restored");
  for (const auto& o : resumed) {
    EXPECT_TRUE(o.from_checkpoint);
  }
  EXPECT_EQ(stats.trials_executed, 0u);
  EXPECT_EQ(dials, 0u);
  std::remove(path.c_str());

  // A campaign with no trials at all.
  EXPECT_TRUE(run_sharded_spec(mix_spec(0x0DD, 0), cfg).empty());
  EXPECT_EQ(dials, 0u);
}

TEST(NetFault, EveryRemoteDyingShiftsWorkInProcess) {
  const auto spec = mix_spec(0xDEAD, 16);
  const auto want = reference_run(spec);
  ThreadFleet fleet;
  shard::FaultPlan plan;
  plan.seed = 9;
  // Aggressive but not certain per frame: some sessions survive the
  // welcome, then die on the next frames — deaths AND handshake
  // rejections both drain the dial budget until nothing remote is left.
  plan.disconnect_probability = 0.55;
  shard::ShardConfig cfg;
  cfg.processes = 0;
  cfg.hosts = fake_hosts(2);
  cfg.max_reconnects = 3;
  cfg.reconnect_backoff = std::chrono::milliseconds(2);
  cfg.dialer = thread_worker_dialer(fleet, &plan);
  shard::ShardStats stats;
  const auto got = run_sharded_spec(spec, cfg, &stats);
  fleet.join();
  expect_identical(got, want, "all-remotes-gone");
  EXPECT_GT(stats.fallback_trials, 0u);
  EXPECT_GT(stats.worker_deaths, 0u);
}

TEST(NetFault, StaleWorkerIsTurnedAwayAndTheCampaignStillConverges) {
  const auto spec = mix_spec(0x57A1E, 10);
  const auto want = reference_run(spec);
  ThreadFleet fleet;
  shard::ShardConfig cfg;
  cfg.processes = 0;
  cfg.hosts = fake_hosts(1);
  cfg.max_reconnects = 2;
  cfg.reconnect_backoff = std::chrono::milliseconds(2);
  // Every dialed worker pins a digest from some other campaign.
  cfg.dialer = thread_worker_dialer(fleet, nullptr, /*expect_digest=*/0x1BAD);
  shard::ShardStats stats;
  const auto got = run_sharded_spec(spec, cfg, &stats);
  fleet.join();
  expect_identical(got, want, "stale-worker");
  EXPECT_EQ(stats.handshakes_rejected, 2u);  // both dial attempts refused.
  EXPECT_EQ(stats.remote_workers, 0u);
  EXPECT_EQ(stats.fallback_trials, spec.trials);
}

TEST(NetFault, MixedLocalProcessesAndThreadHostsStayBitIdentical) {
  const auto spec = mix_spec(0x3117, 44);
  const auto want = reference_run(spec);
  ThreadFleet fleet;
  shard::ShardConfig cfg;
  cfg.processes = 0;  // keep this suite fork-free; MultiHostProc covers the mix.
  cfg.hosts = fake_hosts(3);
  cfg.shard_size = 4;
  cfg.dialer = thread_worker_dialer(fleet);
  shard::ShardStats stats;
  const auto got = run_sharded_spec(spec, cfg, &stats);
  fleet.join();
  expect_identical(got, want, "three-thread-hosts");
  EXPECT_EQ(stats.remote_workers, 3u);
  EXPECT_EQ(stats.trials_executed, spec.trials);
}

// ---- batched trial frames (a worker_loop driven by the test) ------------

/// Transport decorator that counts writes (send_frames calls) and logs the
/// trial index of every kTrial frame that went out, in write order;
/// everything else forwards to the wrapped transport.
class CountingTransport : public shard::Transport {
 public:
  explicit CountingTransport(std::unique_ptr<shard::Transport> inner)
      : inner_(std::move(inner)) {}

  bool send_frames(std::span<const shard::Frame> frames) override {
    const bool sent = inner_->send_frames(frames);
    std::lock_guard<std::mutex> lock(mutex_);
    writes_ += 1;
    for (const shard::Frame& frame : frames) {
      shard::TrialPayload trial;
      if (frame.type == shard::FrameType::kTrial && shard::decode_trial(frame.payload, trial)) {
        sent_trials_.push_back(trial.index);
      }
    }
    return sent;
  }
  int poll_fd() const override { return inner_->poll_fd(); }
  bool pump() override { return inner_->pump(); }
  bool next(shard::Frame& out) override { return inner_->next(out); }
  bool corrupt() const override { return inner_->corrupt(); }
  void shutdown_writes() override { inner_->shutdown_writes(); }
  void close() override { inner_->close(); }
  std::string describe() const override { return "counting:" + inner_->describe(); }

  std::uint64_t writes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return writes_;
  }
  std::vector<std::uint64_t> sent_trials() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return sent_trials_;
  }

 private:
  std::unique_ptr<shard::Transport> inner_;
  mutable std::mutex mutex_;
  std::uint64_t writes_ = 0;
  std::vector<std::uint64_t> sent_trials_;
};

/// A shard worker_loop in a thread behind a CountingTransport; the test is
/// its supervisor on the other end of a socketpair.
class LoopUnderTest {
 public:
  LoopUnderTest() {
    int sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      ADD_FAILURE() << "socketpair failed";
      return;
    }
    supervisor_ = std::make_unique<shard::FdTransport>(sv[0], sv[0]);
    worker_ =
        std::make_unique<CountingTransport>(std::make_unique<shard::FdTransport>(sv[1], sv[1]));
  }
  ~LoopUnderTest() {
    if (thread_.joinable()) {
      supervisor_->send({shard::FrameType::kShutdown, {}});
      thread_.join();
    }
  }

  void start(shard::WorkerEnv env, shard::TrialRunner runner) {
    thread_ = std::thread([this, env, runner = std::move(runner)] {
      exit_code_ = shard::worker_loop(*worker_, env, runner);
    });
  }

  void assign(std::uint64_t shard_id, std::uint64_t begin, std::uint64_t end) {
    shard::AssignPayload assign;
    assign.shard_id = shard_id;
    assign.begin = begin;
    assign.end = end;
    ASSERT_TRUE(supervisor_->send({shard::FrameType::kAssign, shard::encode_assign(assign)}));
  }

  /// The next kTrial or kShardDone frame (heartbeats skipped).
  bool next_result(shard::Frame& out) {
    while (supervisor_->recv_blocking(out, std::chrono::milliseconds(10000))) {
      if (out.type != shard::FrameType::kHeartbeat) {
        return true;
      }
    }
    return false;
  }

  /// Shuts the loop down and returns its exit code.
  int finish() {
    supervisor_->send({shard::FrameType::kShutdown, {}});
    thread_.join();
    return exit_code_;
  }

  const CountingTransport& worker() const { return *worker_; }

 private:
  std::unique_ptr<shard::FdTransport> supervisor_;
  std::unique_ptr<CountingTransport> worker_;
  std::thread thread_;
  int exit_code_ = -1;
};

core::CheckpointRecord ok_record(std::size_t index) {
  core::CheckpointRecord rec;
  rec.ok = true;
  rec.payload = std::string(8, static_cast<char>(index));
  return rec;
}

TEST(NetBatch, ShardTrialsShareWritesAndMergeInIndexOrder) {
  LoopUnderTest loop;
  shard::WorkerEnv env;
  env.heartbeat_interval = std::chrono::milliseconds(0);  // count trial writes only.
  loop.start(env, ok_record);
  loop.assign(/*shard_id=*/9, 0, 256);
  shard::Frame frame;
  for (std::uint64_t i = 0; i < 256; ++i) {
    ASSERT_TRUE(loop.next_result(frame)) << "trial " << i;
    ASSERT_EQ(frame.type, shard::FrameType::kTrial) << "trial " << i;
    shard::TrialPayload trial;
    ASSERT_TRUE(shard::decode_trial(frame.payload, trial));
    ASSERT_EQ(trial.index, i);
    EXPECT_EQ(trial.record.payload, ok_record(i).payload);
  }
  ASSERT_TRUE(loop.next_result(frame));
  ASSERT_EQ(frame.type, shard::FrameType::kShardDone);
  std::uint64_t shard_id = 0;
  ASSERT_TRUE(shard::decode_shard_done(frame.payload, shard_id));
  EXPECT_EQ(shard_id, 9u);
  EXPECT_EQ(loop.finish(), 0);
  // worker.cpp batches 32 kTrial frames per write: 256 trials are 8 full
  // batches, kShardDone rides with the last one or alone, plus one spare.
  EXPECT_LE(loop.worker().writes(), 256u / 32u + 2u);
  EXPECT_EQ(loop.worker().sent_trials().size(), 256u);
}

TEST(NetBatch, FailedRecordIsWrittenBeforeTheNextTrialRuns) {
  LoopUnderTest loop;
  shard::WorkerEnv env;
  env.heartbeat_interval = std::chrono::milliseconds(0);  // no flush but the fail-fast one.
  std::atomic<bool> failure_out_before_next{false};
  loop.start(env, [&loop, &failure_out_before_next](std::size_t index) {
    if (index == 6) {
      const auto sent = loop.worker().sent_trials();
      failure_out_before_next = std::find(sent.begin(), sent.end(), 5u) != sent.end();
    }
    if (index != 5) {
      return ok_record(index);
    }
    core::CheckpointRecord rec;
    rec.ok = false;
    rec.kind = static_cast<std::uint8_t>(ErrorKind::kGuestFault);
    rec.detail = "trial 5 failed";
    return rec;
  });
  loop.assign(/*shard_id=*/1, 0, 10);
  shard::Frame frame;
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(loop.next_result(frame)) << "trial " << i;
    shard::TrialPayload trial;
    ASSERT_TRUE(shard::decode_trial(frame.payload, trial));
    ASSERT_EQ(trial.index, i);
    EXPECT_EQ(trial.record.ok, i != 5) << "trial " << i;
  }
  ASSERT_TRUE(loop.next_result(frame));
  EXPECT_EQ(frame.type, shard::FrameType::kShardDone);
  EXPECT_EQ(loop.finish(), 0);
  EXPECT_TRUE(failure_out_before_next.load());
}

TEST(NetBatch, HeartbeatCarriesOutAPartialBatch) {
  // Trial 3 blocks until the supervisor end holds trials 0..2. Nothing but
  // the heartbeat thread can send them: the batch is far from full and
  // every record is ok.
  LoopUnderTest loop;
  shard::WorkerEnv env;
  env.heartbeat_interval = std::chrono::milliseconds(5);
  std::promise<void> first_three_arrived;
  std::shared_future<void> arrived = first_three_arrived.get_future().share();
  std::atomic<bool> released_in_time{false};
  loop.start(env, [arrived, &released_in_time](std::size_t index) {
    if (index == 3) {
      released_in_time =
          arrived.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
    }
    return ok_record(index);
  });
  loop.assign(/*shard_id=*/2, 0, 6);
  shard::Frame frame;
  for (std::uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(loop.next_result(frame)) << "trial " << i;
    shard::TrialPayload trial;
    ASSERT_TRUE(shard::decode_trial(frame.payload, trial));
    ASSERT_EQ(trial.index, i);
    if (i == 2) {
      first_three_arrived.set_value();
    }
  }
  ASSERT_TRUE(loop.next_result(frame));
  EXPECT_EQ(frame.type, shard::FrameType::kShardDone);
  EXPECT_EQ(loop.finish(), 0);
  EXPECT_TRUE(released_in_time.load());
}

// ---- straggler splits: only on stalled progress -------------------------

TEST(NetStraggler, HealthyTwoHostFleetNeverSplitsOrDuplicates) {
  auto spec = mix_spec(0x4EA1, 210);
  spec.trial_delay_us = 300;  // shards overlap in time, as real trials do.
  const auto want = reference_run(spec);
  ThreadFleet fleet;
  shard::ShardConfig cfg;
  cfg.processes = 0;
  cfg.hosts = fake_hosts(2);
  cfg.shard_size = 30;  // 7 shards: one host idles while the other runs the last.
  cfg.dialer = thread_worker_dialer(fleet);
  shard::ShardStats stats;
  const auto got = run_sharded_spec(spec, cfg, &stats);
  fleet.join();
  expect_identical(got, want, "healthy-fleet");
  EXPECT_EQ(stats.remote_workers, 2u);
  EXPECT_EQ(stats.migrations, 0u);
  EXPECT_EQ(stats.duplicate_trials, 0u);
  EXPECT_EQ(stats.trials_executed, spec.trials);
}

/// A dialer like thread_worker_dialer whose FIRST worker sleeps `delay`
/// before each trial: a live worker (its heartbeats keep flowing) whose
/// trials stall past the straggler threshold. Later dials are prompt.
std::function<std::unique_ptr<shard::Transport>(const shard::HostSpec&, std::string&)>
slow_first_worker_dialer(ThreadFleet& fleet, std::chrono::milliseconds delay) {
  auto dials = std::make_shared<unsigned>(0);
  return [&fleet, delay, dials](const shard::HostSpec&,
                                std::string& error) -> std::unique_ptr<shard::Transport> {
    int sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      error = "socketpair failed";
      return nullptr;
    }
    const bool slow = (*dials)++ == 0;
    std::lock_guard<std::mutex> lock(fleet.mutex);
    fleet.threads.emplace_back([fd = sv[1], slow, delay] {
      // serve_supervisor's session, with the trial runner wrapped.
      shard::FdTransport transport(fd, fd);
      shard::HelloPayload hello;
      hello.worker_name = slow ? "slow" : "prompt";
      shard::WelcomePayload welcome;
      std::string err;
      service::CampaignSpec spec;
      if (!shard::handshake_connect(transport, hello, std::chrono::milliseconds(2000), welcome,
                                    err) ||
          !service::decode_spec(welcome.spec_json, spec, err)) {
        return;
      }
      core::ResilienceConfig res;
      res.chaos = welcome.chaos;
      const shard::TrialRunner runner =
          core::detail::make_trial_runner<service::ServiceTrialResult>(
              spec.seed, service::spec_resilience(spec, res), service::make_trial_body(spec));
      shard::WorkerEnv env;
      env.heartbeat_interval = std::chrono::milliseconds(welcome.heartbeat_ms);
      shard::worker_loop(transport, env, [&runner, slow, delay](std::size_t index) {
        if (slow) {
          std::this_thread::sleep_for(delay);
        }
        return runner(index);
      });
    });
    return std::make_unique<shard::FdTransport>(sv[0], sv[0]);
  };
}

TEST(NetStraggler, StalledWorkerTailIsSplitAndStaysBitIdentical) {
  const auto spec = mix_spec(0x510E, 16);
  const auto want = reference_run(spec);
  ThreadFleet fleet;
  shard::ShardConfig cfg;
  cfg.processes = 0;
  cfg.hosts = fake_hosts(2);
  cfg.shard_size = 8;  // one shard each; the slow worker's is the straggler.
  cfg.heartbeat_interval = std::chrono::milliseconds(10);  // stall threshold 40 ms.
  cfg.dialer = slow_first_worker_dialer(fleet, std::chrono::milliseconds(80));
  shard::ShardStats stats;
  const auto got = run_sharded_spec(spec, cfg, &stats);
  fleet.join();
  expect_identical(got, want, "stalled-worker");
  EXPECT_GT(stats.migrations, 0u) << "the stalled worker's tail was never split";
  EXPECT_EQ(stats.worker_deaths, 0u);  // a split, not a hang kill.
}

/// A dialer whose in-thread workers speak through a FaultyTransport (the
/// outbound faults hit the worker's batched trial writes). Heartbeats
/// must be off in campaigns that use it: a disconnect rolled on the
/// heartbeat thread would close the transport under the trial loop.
std::function<std::unique_ptr<shard::Transport>(const shard::HostSpec&, std::string&)>
faulty_worker_dialer(ThreadFleet& fleet, const shard::FaultPlan& plan) {
  auto dials = std::make_shared<std::uint64_t>(0);
  return [&fleet, plan, dials](const shard::HostSpec&,
                               std::string& error) -> std::unique_ptr<shard::Transport> {
    int sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      error = "socketpair failed";
      return nullptr;
    }
    shard::FaultPlan session_plan = plan;
    session_plan.seed = plan.seed + 1000 * (*dials)++;
    std::lock_guard<std::mutex> lock(fleet.mutex);
    fleet.threads.emplace_back([fd = sv[1], session_plan] {
      shard::FaultyTransport transport(fd, fd, session_plan);
      shard::HelloPayload hello;
      hello.worker_name = "faulty-thread";
      std::string err;
      service::serve_supervisor(transport, hello, std::chrono::milliseconds(2000), err);
    });
    return std::make_unique<shard::FdTransport>(sv[0], sv[0]);
  };
}

TEST(NetFault, MidBatchDisconnectMigratesTheUnsentTail) {
  const auto spec = mix_spec(0xBA7C4, 192);
  const auto want = reference_run(spec);
  ThreadFleet fleet;
  shard::FaultPlan plan;
  plan.seed = 21;
  plan.disconnect_probability = 0.02;  // ~1 in 50 outbound frames: most land mid-batch.
  plan.counts = std::make_shared<shard::FaultCounts>();
  shard::ShardConfig cfg;
  cfg.processes = 0;
  cfg.hosts = fake_hosts(2);
  cfg.shard_size = 64;
  cfg.heartbeat_interval = std::chrono::milliseconds(0);
  cfg.max_reconnects = 32;
  cfg.reconnect_backoff = std::chrono::milliseconds(1);
  cfg.dialer = faulty_worker_dialer(fleet, plan);
  shard::ShardStats stats;
  const auto got = run_sharded_spec(spec, cfg, &stats);
  fleet.join();
  expect_identical(got, want, "mid-batch-disconnect");
  EXPECT_GT(plan.counts->mid_batch_disconnects, 0u) << "no disconnect cut a batch; vacuous";
  EXPECT_GT(stats.worker_deaths, 0u);
  EXPECT_GT(stats.migrations, 0u);
}

// ---- real TCP loopback, forked workers (filtered out under TSan) --------

/// Forks a hwsec-shard-worker process in listen mode on an ephemeral port
/// and reports the port the kernel assigned. The child serves sessions
/// until killed (or exits after one when `once`).
pid_t fork_tcp_worker(std::uint16_t& port_out, bool once = false) {
  int port_pipe[2];
  if (pipe(port_pipe) != 0) {
    return -1;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(port_pipe[0]);
    close(port_pipe[1]);
    return -1;
  }
  if (pid == 0) {
    close(port_pipe[0]);
    service::RemoteWorkerOptions options;
    options.listen_port = 0;
    options.serve_forever = !once;
    options.worker_name = "tcp-worker";
    options.on_listening = [fd = port_pipe[1]](std::uint16_t port) {
      (void)!write(fd, &port, sizeof(port));
      close(fd);
    };
    _exit(service::run_remote_worker(options));
  }
  close(port_pipe[1]);
  std::uint16_t port = 0;
  const ssize_t n = read(port_pipe[0], &port, sizeof(port));
  close(port_pipe[0]);
  if (n != sizeof(port)) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    return -1;
  }
  port_out = port;
  return pid;
}

void reap_worker(pid_t pid) {
  if (pid > 0) {
    kill(pid, SIGTERM);
    // SIGTERM only interrupts a listening worker between sessions; escalate
    // so the test never wedges on a worker mid-poll.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
}

TEST(MultiHostProc, LoopbackEquivalenceMatrixAcrossHostCounts) {
  const auto spec = mix_spec(0x10CA1, 60);
  const auto want = reference_run(spec);
  for (const std::size_t n_hosts : {1u, 2u, 4u}) {
    std::vector<pid_t> workers;
    service::CampaignSpec remote = spec;
    for (std::size_t i = 0; i < n_hosts; ++i) {
      std::uint16_t port = 0;
      const pid_t pid = fork_tcp_worker(port);
      ASSERT_GT(pid, 0) << "worker " << i;
      workers.push_back(pid);
      remote.hosts.push_back("127.0.0.1:" + std::to_string(port));
    }
    // Through the same entry point hwsecd uses: the spec's host list
    // routes the campaign onto the wire.
    const auto got = service::run_spec(remote, core::ResilienceConfig{});
    expect_identical(got, want, "loopback hosts=" + std::to_string(n_hosts));
    for (const pid_t pid : workers) {
      reap_worker(pid);
    }
  }
}

TEST(MultiHostProc, WorkerSigkillMidCampaignMigratesToSurvivors) {
  service::CampaignSpec spec = mix_spec(0x516C11, 48);
  const auto want = reference_run(spec);
  std::uint16_t port_a = 0;
  std::uint16_t port_b = 0;
  const pid_t worker_a = fork_tcp_worker(port_a);
  const pid_t worker_b = fork_tcp_worker(port_b);
  ASSERT_GT(worker_a, 0);
  ASSERT_GT(worker_b, 0);

  shard::ShardConfig cfg;
  cfg.processes = 0;
  std::string error;
  ASSERT_TRUE(shard::parse_hosts("127.0.0.1:" + std::to_string(port_a) + ",127.0.0.1:" +
                                     std::to_string(port_b),
                                 cfg.hosts, error))
      << error;
  cfg.shard_size = 4;
  cfg.max_reconnects = 1;  // the killed worker stays dead; survivors absorb.
  // Pace trials so the kill lands mid-campaign deterministically enough.
  spec.trial_delay_us = 3000;

  std::thread assassin([worker_a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    kill(worker_a, SIGKILL);
  });
  shard::ShardStats stats;
  const auto got = run_sharded_spec(spec, cfg, &stats);
  assassin.join();

  // The reference must use the SAME spec bytes (trial_delay_us changed).
  const auto paced_want = reference_run(spec);
  expect_identical(got, paced_want, "sigkill-migration");
  expect_identical(got, want, "pacing-must-not-change-results");
  EXPECT_GT(stats.worker_deaths, 0u);
  EXPECT_GT(stats.migrations, 0u);
  reap_worker(worker_a);
  reap_worker(worker_b);
}

TEST(MultiHostProc, CheckpointResumeAcrossADifferentHostCount) {
  const std::string path = ckpt_path("shard_net_resume");
  std::remove(path.c_str());
  const auto spec = mix_spec(0xC4EC, 24);
  const auto want = reference_run(spec);

  // Hand-build a partial checkpoint (the artifact a killed 1-host run
  // leaves behind), then finish on TWO hosts.
  core::CheckpointFile partial(spec.seed, spec.trials, sizeof(service::ServiceTrialResult));
  std::size_t prefilled = 0;
  for (std::size_t i = 0; i < spec.trials; i += 3) {
    core::CheckpointRecord rec;
    rec.ok = true;
    const service::ServiceTrialResult v = want[i].value();
    rec.payload.assign(reinterpret_cast<const char*>(&v), sizeof(v));
    partial.record(i, rec);
    ++prefilled;
  }
  ASSERT_TRUE(partial.save(path));

  std::uint16_t port_a = 0;
  std::uint16_t port_b = 0;
  const pid_t worker_a = fork_tcp_worker(port_a);
  const pid_t worker_b = fork_tcp_worker(port_b);
  ASSERT_GT(worker_a, 0);
  ASSERT_GT(worker_b, 0);

  shard::ShardConfig cfg;
  cfg.processes = 0;
  std::string error;
  ASSERT_TRUE(shard::parse_hosts("127.0.0.1:" + std::to_string(port_a) + ",127.0.0.1:" +
                                     std::to_string(port_b),
                                 cfg.hosts, error))
      << error;
  cfg.shard_size = 5;
  core::ResilienceConfig res;
  res.checkpoint_path = path;
  shard::ShardStats stats;
  const auto got = run_sharded_spec(spec, cfg, &stats, res);
  expect_identical(got, want, "resume-two-hosts");
  EXPECT_EQ(stats.trials_executed, spec.trials - prefilled);
  for (std::size_t i = 0; i < spec.trials; i += 3) {
    EXPECT_TRUE(got[i].from_checkpoint) << "slot " << i;
  }
  reap_worker(worker_a);
  reap_worker(worker_b);
  std::remove(path.c_str());
}

TEST(MultiHostProc, InboundWorkerDialsAListeningSupervisor) {
  const auto spec = mix_spec(0x1B0, 20);
  const auto want = reference_run(spec);

  shard::ShardConfig cfg;
  cfg.processes = 0;
  cfg.listen = true;
  cfg.listen_port = 0;
  cfg.listen_grace = std::chrono::milliseconds(10000);
  pid_t worker = -1;
  cfg.on_listening = [&worker](std::uint16_t port) {
    // The supervisor's port exists only now: launch the worker that dials
    // back in (the --connect direction of the tool).
    worker = fork();
    if (worker == 0) {
      service::RemoteWorkerOptions options;
      options.connect_host = "127.0.0.1";
      options.connect_port = port;
      options.worker_name = "dialer";
      _exit(service::run_remote_worker(options));
    }
  };
  shard::ShardStats stats;
  const auto got = run_sharded_spec(spec, cfg, &stats);
  expect_identical(got, want, "inbound-worker");
  EXPECT_EQ(stats.remote_workers, 1u);
  EXPECT_EQ(stats.trials_executed, spec.trials);
  EXPECT_EQ(stats.fallback_trials, 0u);
  ASSERT_GT(worker, 0);
  int status = 0;
  waitpid(worker, &status, 0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST(MultiHostProc, ListenGraceExpiresIntoFallbackWhenNobodyDials) {
  const auto spec = mix_spec(0x9A4CE, 8);
  const auto want = reference_run(spec);
  shard::ShardConfig cfg;
  cfg.processes = 0;
  cfg.listen = true;
  cfg.listen_port = 0;
  cfg.listen_grace = std::chrono::milliseconds(150);
  shard::ShardStats stats;
  const auto got = run_sharded_spec(spec, cfg, &stats);
  expect_identical(got, want, "listen-grace-fallback");
  EXPECT_EQ(stats.remote_workers, 0u);
  EXPECT_EQ(stats.fallback_trials, spec.trials);
}

}  // namespace
