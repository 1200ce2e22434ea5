// hwsec-client — CLI for the hwsecd campaign service.
//
//   hwsec-client submit --socket PATH (--spec FILE | --spec-json JSON)
//                [--detach] [--quiet] [--print-records]
//   hwsec-client attach --socket PATH --job ID [--quiet] [--print-records]
//   hwsec-client status --socket PATH
//   hwsec-client stop   --socket PATH
//   hwsec-client run-direct (--spec FILE | --spec-json JSON) [--print-records]
//
// `--tcp PORT` replaces `--socket` for a TCP daemon. Exit codes: 0 job
// done (or command ok), 1 job failed, 2 usage, 3 rejected by the daemon,
// 4 transport failure. submit/attach print one final line
// `job <id> <state> digest=<hex16> records=<n>` that scripts (and the CI
// smoke job) parse; the digest is fnv1a-64 over the encoded outcome
// records, directly comparable between a daemon run and a direct
// run_campaign run of the same spec — `run-direct` executes the
// spec in-process through exactly that path and prints the same line, so
// `submit` vs `run-direct` digest equality IS the daemon's bit-identity
// guarantee, checkable from a shell.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/resilience/resilient.h"
#include "core/service/catalog.h"
#include "core/service/client.h"

namespace service = hwsec::core::service;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s submit (--socket PATH | --tcp PORT) (--spec FILE | --spec-json JSON)\n"
               "          [--detach] [--quiet] [--print-records]\n"
               "       %s attach (--socket PATH | --tcp PORT) --job ID [--quiet] [--print-records]\n"
               "       %s status (--socket PATH | --tcp PORT)\n"
               "       %s stop   (--socket PATH | --tcp PORT)\n"
               "       %s run-direct (--spec FILE | --spec-json JSON) [--print-records]\n",
               argv0, argv0, argv0, argv0, argv0);
}

void print_records(const service::JobResultPayload& result) {
  std::vector<service::OutcomeRecord> records;
  if (!service::decode_outcomes(result.records, records)) {
    std::fprintf(stderr, "warning: result records failed to decode\n");
    return;
  }
  for (const auto& rec : records) {
    if (rec.ok) {
      std::uint64_t lo = 0;
      std::uint64_t hi = 0;
      std::memcpy(&lo, rec.payload.data(), sizeof(lo));
      std::memcpy(&hi, rec.payload.data() + sizeof(lo), sizeof(hi));
      std::printf("trial %" PRIu64 " ok lo=%016" PRIx64 " hi=%016" PRIx64 " attempts=%u\n",
                  rec.index, lo, hi, rec.attempts);
    } else if (rec.skipped) {
      std::printf("trial %" PRIu64 " skipped\n", rec.index);
    } else {
      std::printf("trial %" PRIu64 " error kind=%u detail=%s\n", rec.index,
                  static_cast<unsigned>(rec.kind), rec.detail.c_str());
    }
  }
}

int stream_to_exit_code(service::ServiceClient& client, const std::string& job_id, bool quiet,
                        bool dump_records) {
  service::JobResultPayload result;
  std::string error;
  const bool got = client.wait_result(
      result, error, [&](const service::JobUpdatePayload& update) {
        if (!quiet) {
          std::fprintf(stderr, "job %s %s %" PRIu64 "/%" PRIu64 "\n", update.job_id.c_str(),
                       service::job_state_name(update.state), update.done, update.total);
        }
      });
  if (!got) {
    std::fprintf(stderr, "error: %s (job %s keeps running; reattach with --job %s)\n",
                 error.c_str(), job_id.c_str(), job_id.c_str());
    return 4;
  }
  std::vector<service::OutcomeRecord> records;
  const std::size_t record_count =
      service::decode_outcomes(result.records, records) ? records.size() : 0;
  std::printf("job %s %s digest=%016" PRIx64 " records=%zu\n", result.job_id.c_str(),
              service::job_state_name(result.state), result.digest, record_count);
  if (!result.error.empty()) {
    std::fprintf(stderr, "job error: %s\n", result.error.c_str());
  }
  if (dump_records) {
    print_records(result);
  }
  return result.state == service::JobState::kDone ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(argv[0]);
    return 2;
  }
  const std::string command = argv[1];
  service::ClientConfig config;
  std::string spec_json;
  std::string spec_file;
  std::string job_id;
  bool detach = false;
  bool quiet = false;
  bool dump_records = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--socket" && has_value) {
      config.unix_socket = argv[++i];
    } else if (arg == "--tcp" && has_value) {
      config.tcp_port = static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--spec" && has_value) {
      spec_file = argv[++i];
    } else if (arg == "--spec-json" && has_value) {
      spec_json = argv[++i];
    } else if (arg == "--job" && has_value) {
      job_id = argv[++i];
    } else if (arg == "--timeout-ms" && has_value) {
      config.recv_timeout = std::chrono::milliseconds(std::strtol(argv[++i], nullptr, 10));
    } else if (arg == "--detach") {
      detach = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--print-records") {
      dump_records = true;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (!spec_file.empty()) {
    std::ifstream in(spec_file);
    if (!in) {
      std::fprintf(stderr, "error: cannot read spec file %s\n", spec_file.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    spec_json = buffer.str();
  }

  if (command == "run-direct") {
    // The spec, executed in-process through the same run_campaign path the
    // daemon uses — the reference half of a daemon-vs-direct digest check.
    if (spec_json.empty()) {
      usage(argv[0]);
      return 2;
    }
    service::CampaignSpec spec;
    std::string decode_error;
    if (!service::decode_spec(spec_json, spec, decode_error)) {
      std::fprintf(stderr, "rejected: %s\n", decode_error.c_str());
      return 3;
    }
    try {
      const service::ServiceOutcomes outcomes =
          service::run_spec(spec, hwsec::core::ResilienceConfig{});
      service::JobResultPayload result;
      result.job_id = "direct";
      result.state = service::JobState::kDone;
      result.records = service::encode_outcomes(outcomes);
      result.digest = service::fnv1a64(result.records);
      std::vector<service::OutcomeRecord> records;
      const std::size_t count =
          service::decode_outcomes(result.records, records) ? records.size() : 0;
      std::printf("job direct done digest=%016" PRIx64 " records=%zu\n", result.digest,
                  count);
      if (dump_records) {
        print_records(result);
      }
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  if (config.unix_socket.empty() && config.tcp_port == 0) {
    usage(argv[0]);
    return 2;
  }

  service::ServiceClient client(config);
  std::string error;

  if (command == "submit") {
    if (spec_json.empty()) {
      usage(argv[0]);
      return 2;
    }
    service::SubmittedPayload ack;
    if (!client.submit(spec_json, ack, error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 4;
    }
    if (!ack.accepted) {
      std::fprintf(stderr, "rejected: %s\n", ack.message.c_str());
      return 3;
    }
    std::printf("submitted %s\n", ack.job_id.c_str());
    if (detach) {
      client.disconnect();
      return 0;
    }
    return stream_to_exit_code(client, ack.job_id, quiet, dump_records);
  }

  if (command == "attach") {
    if (job_id.empty()) {
      usage(argv[0]);
      return 2;
    }
    service::SubmittedPayload ack;
    if (!client.attach(job_id, ack, error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 4;
    }
    if (!ack.accepted) {
      std::fprintf(stderr, "rejected: %s\n", ack.message.c_str());
      return 3;
    }
    return stream_to_exit_code(client, ack.job_id, quiet, dump_records);
  }

  if (command == "status") {
    std::string json;
    if (!client.status(json, error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 4;
    }
    std::printf("%s\n", json.c_str());
    return 0;
  }

  if (command == "stop") {
    if (!client.stop_daemon(error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 4;
    }
    std::printf("stopping\n");
    return 0;
  }

  usage(argv[0]);
  return 2;
}
