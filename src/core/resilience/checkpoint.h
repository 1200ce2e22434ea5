// Crash-safe persistence for long campaigns.
//
// Two layers:
//  * write_file_atomic — write-to-temp + std::rename, so a reader (or a
//    resumed run) only ever sees the previous complete file or the new
//    complete file, never a torn write. Used for every BENCH_*.json and
//    for checkpoint saves.
//  * CheckpointFile — a keyed store of completed trial slots for one
//    campaign, identified by (campaign seed, trial count, result size)
//    plus an optional owner scope. run_campaign saves it
//    periodically; on restart, load() restores finished slots and the
//    runner re-executes only the rest. Because trial i's result is a pure
//    function of (seed, i), a resumed campaign is bit-identical to an
//    uninterrupted one.
//
// The scope exists because campaign-config identity alone is too weak in
// a multi-tenant world: two hwsecd tenants submitting byte-identical specs
// would otherwise share one checkpoint identity and silently cross-resume
// each other's jobs. A non-empty scope (the daemon uses "tenant/job-id")
// is folded into the header, so a same-config checkpoint written under a
// different scope is rejected as a header mismatch. An empty scope keeps
// the v2 header byte-identical to pre-scope files.
//
// File format (text, one record per line, hex-encoded payloads):
//   hwsec-checkpoint v2 seed=<u64> trials=<n> result_bytes=<k>[ scope=<hex>]
//   ok <index> <attempts> <hex result bytes>
//   err <index> <attempts> <kind> <hex detail> <hex machine>
//   end <record count> <fnv1a-64 of header+records, 16 hex digits>
// load() never throws: a file whose header does not match the campaign,
// whose trailer is missing/inconsistent (a torn write), or whose content
// checksum disagrees (a bit flip inside otherwise well-formed hex) is
// ignored wholesale with a stderr warning — the campaign starts fresh.
// v1 files (no checksum) are likewise rejected as a header mismatch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace hwsec::core {

/// Atomically replaces `path` with `content`. Returns false (leaving any
/// previous file intact) if the temporary cannot be written or renamed.
bool write_file_atomic(const std::string& path, const std::string& content);

struct CheckpointRecord {
  bool ok = false;
  unsigned attempts = 1;
  std::string payload;    ///< raw Result bytes when ok.
  std::uint8_t kind = 0;  ///< ErrorKind when !ok.
  std::string detail;     ///< error detail when !ok.
  std::string machine;    ///< machine profile attribution when !ok (may be empty).
};

class CheckpointFile {
 public:
  /// `scope` namespaces the checkpoint identity beyond the campaign config
  /// (empty = legacy single-owner identity). Arbitrary bytes are fine; the
  /// header stores it hex-encoded.
  CheckpointFile(std::uint64_t seed, std::size_t trials, std::size_t result_bytes,
                 std::string scope = {});

  /// Restores records from `path`. Returns true iff the file exists, its
  /// header matches this campaign, every record parses, and the content
  /// checksum verifies; otherwise the store is left empty. Never throws:
  /// a rejected (present but damaged) file logs a warning and bumps the
  /// checkpoint_load_rejected counter; an absent file is silently fresh.
  bool load(const std::string& path);

  /// Inserts or replaces the record for `index`. Not thread-safe; the
  /// caller serializes (run_campaign holds one mutex around
  /// record+save).
  void record(std::size_t index, CheckpointRecord rec);

  const std::map<std::size_t, CheckpointRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

  /// Serializes the store and writes it via write_file_atomic. Best
  /// effort: returns false on I/O failure (the campaign keeps running).
  bool save(const std::string& path) const;

 private:
  bool load_or_reject(std::istream& in, const std::string& path);
  static void warn_rejected(const std::string& path, const std::string& reason);

  std::string header_line() const;

  std::uint64_t seed_;
  std::size_t trials_;
  std::size_t result_bytes_;
  std::string scope_;
  std::map<std::size_t, CheckpointRecord> records_;
};

}  // namespace hwsec::core
