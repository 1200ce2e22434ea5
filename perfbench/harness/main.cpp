// perfbench_harness: runs one benchmark workload in-process and prints one
// JSON line of raw samples for run.py.
//
//   perfbench_harness --workload <spectre_sharded|cpa_stream>
//                    --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 times the workload with tracing off. --trace 1 alternates
// traced and untraced units of the same workload (the ratio is the tracing
// overhead), adds the per-call layer probes and writes the per-trial
// simulated counts at the default seed.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "common.h"
#include "core/json.h"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

/// Layer metrics that only some workloads exercise. A traced run reports
/// every one of them; a layer the workload never enters did no work, so
/// it reads 0.
const char* const kWorkloadLayers[] = {
    "core.shard.setup_s",
    "core.shard.supervisor_cpu_frac",
    "core.shard.assignments",
    "core.shard.migrations",
    "core.shard.worker_deaths",
    "core.shard.fallback_trials",
    "core.shard.duplicate_frac",
    "core.capture.wait_us_per_batch",
    "sca.cpa.rank_ms",
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string str(const std::string& s) { return "\"" + hwsec::core::json_escape(s) + "\""; }

double peak_rss_mib() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

std::string to_json(const Options& opt, const Record& rec) {
  std::ostringstream out;
  out << "{\"workload\":" << str(opt.workload) << ",\"seed\":" << opt.seed
      << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"setup_s\":[";
  for (std::size_t i = 0; i < rec.setup_s.size(); ++i) {
    out << (i ? "," : "") << num(rec.setup_s[i]);
  }
  out << "],\"units\":[";
  for (std::size_t i = 0; i < rec.units.size(); ++i) {
    const Unit& u = rec.units[i];
    out << (i ? "," : "") << "[" << num(u.seconds) << "," << num(u.trials) << ","
        << num(u.traces) << "]";
  }
  out << "],\"attempted\":" << rec.attempted << ",\"failed\":" << rec.failed
      << ",\"peak_rss_mib\":" << num(peak_rss_mib()) << ",\"checks\":{";
  bool first = true;
  for (const auto& [k, v] : rec.checks) {
    out << (first ? "" : ",") << str(k) << ":" << str(v);
    first = false;
  }
  out << "},\"failures\":[";
  for (std::size_t i = 0; i < rec.failures.size(); ++i) {
    out << (i ? "," : "") << str(rec.failures[i]);
  }
  out << "],\"layers\":{";
  first = true;
  for (const auto& [k, v] : rec.layers) {
    out << (first ? "" : ",") << str(k) << ":" << num(v);
    first = false;
  }
  out << "},\"sim_counts\":{";
  first = true;
  for (const auto& [k, values] : rec.sim_counts) {
    out << (first ? "" : ",") << str(k) << ":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out << (i ? "," : "") << num(values[i]);
    }
    out << "]";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  Record rec;
  if (opt.trace) {
    for (const char* name : kWorkloadLayers) {
      rec.layers[name] = 0.0;
    }
  }
  try {
    if (opt.workload == "spectre_sharded") {
      run_spectre_sharded(opt, rec);
    } else if (opt.workload == "cpa_stream") {
      run_cpa_stream(opt, rec);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
      return 2;
    }
    if (opt.trace) {
      run_layer_probes(rec);
      collect_sim_counts(rec);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s aborted: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  std::cout << to_json(opt, rec) << std::endl;
  return 0;
}
