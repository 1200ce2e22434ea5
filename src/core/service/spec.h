// Versioned campaign-spec wire format for the hwsecd campaign service.
//
// A spec is what a tenant submits over the socket: one JSON object that
// fully determines a campaign — which catalog workload to run, the seed,
// the trial count, and the execution/resilience knobs. Because trial i of
// a campaign is a pure function of (seed, i), a spec is also a complete
// *reproducibility* capsule: running the same spec through the daemon,
// through hwsec-client run-direct, or by hand against run_campaign yields
// bit-identical outcome vectors.
//
// Versioning: every document carries "hwsec_spec_version". Decoders accept
// exactly the versions they know (currently 1) and reject everything else
// with a message naming both versions — a future daemon can add fields
// under v1 freely (unknown keys are ignored: forward-compatible), and
// breaking changes bump the version. This is the contract that lets specs
// cross machines in the multi-HOST roadmap item.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/resilience/outcome.h"

namespace hwsec::core::service {

inline constexpr int kSpecVersion = 1;

/// Everything a campaign needs, flattened for the wire. Field semantics
/// match CampaignConfig and its `resilience` and `shard` members
/// one-to-one (service::run_spec does the mapping).
struct CampaignSpec {
  int version = kSpecVersion;
  std::string tenant;          ///< owner id, [A-Za-z0-9._-]+ (quota/checkpoint key).
  std::string name;            ///< optional human label.
  std::string kind;            ///< catalog workload (see catalog.h).
  std::uint64_t seed = 1;
  std::uint64_t trials = 0;
  std::uint32_t workers = 1;       ///< threads inside the job (0 = host default).
  std::uint32_t processes = 0;     ///< >0: run via the sharded supervisor.
  FailurePolicy policy = FailurePolicy::kCollect;
  std::uint32_t max_attempts = 3;       ///< kRetry budget.
  std::uint64_t trial_cycle_budget = 0; ///< deterministic per-trial watchdog.
  std::uint64_t trial_delay_us = 0;     ///< artificial per-trial pacing (tests/demos);
                                        ///< never feeds the result, only wall time.
  std::int32_t priority = 0;            ///< higher = sooner within a tenant.
  /// Remote worker endpoints ("host:port") the supervisor dials; nonempty
  /// routes the campaign through the sharded supervisor even when
  /// processes == 0. Each element must satisfy shard::parse_host; at most
  /// kMaxSpecHosts entries. The spec itself is shipped to remote workers,
  /// so its canonical encoding always includes this field (an empty array
  /// when unused) — the campaign-identity digest covers the host list.
  std::vector<std::string> hosts;
};

/// Ceiling on CampaignSpec::hosts (wire-level sanity; the daemon may
/// enforce a lower admission cap).
inline constexpr std::size_t kMaxSpecHosts = 32;

/// Canonical JSON encoding (all fields explicit, names escaped).
std::string encode_spec(const CampaignSpec& spec);

/// Parses and validates one spec document. On failure returns false and
/// puts a human-readable reason in `error`. Unknown keys are ignored;
/// unknown versions, malformed JSON, bad field types, empty/hostile tenant
/// or kind strings, and zero trials are rejected.
bool decode_spec(const std::string& json, CampaignSpec& out, std::string& error);

/// True when `id` is a safe tenant/name token: nonempty, <= 64 chars,
/// [A-Za-z0-9._-] only. Keeps ids embeddable in paths, scopes, and JSON.
bool valid_identifier(const std::string& id);

}  // namespace hwsec::core::service
