// Graceful SIGTERM/SIGINT shutdown for campaign runners.
//
// An operator's Ctrl-C (or a scheduler's SIGTERM) must never lose completed
// trials: the runner should stop scheduling new trials, flush a final
// checkpoint plus the obs metrics/trace artifacts, and exit nonzero so the
// caller knows the sweep is partial.
//
// The mechanism is a process-wide flag: install_graceful_shutdown() points
// SIGTERM/SIGINT at a handler that records the signal (async-signal-safe:
// one sig_atomic_t store). Cooperative consumers poll shutdown_requested():
//  * run_campaign's in-process path skips not-yet-started trials (marking their
//    slots `skipped`), lets in-flight trials finish, and writes its final
//    checkpoint exactly as on a normal exit;
//  * the shard supervisor stops assigning shards, tells workers to drain,
//    and saves the merged checkpoint;
//  * binaries (bench_campaign, examples) then write their metrics/trace
//    dumps and return shutdown_exit_code() — the conventional 128+signal.
//
// Installation is explicit and idempotent; a library must not hijack
// signals behind a host application's back.
#pragma once

namespace hwsec::core {

/// Installs the SIGTERM/SIGINT flag handler. Idempotent; call it early in
/// main() of any long-running campaign binary.
///
/// Escalation contract (the daemon case): the FIRST signal only sets the
/// flag — consumers drain (stop admitting work, finish/checkpoint what is
/// running) and exit 128+signal on their own schedule. A SECOND
/// SIGTERM/SIGINT aborts immediately from the handler with _exit(128+sig):
/// a drain that is stuck (or merely slower than the operator's patience)
/// can always be overridden by signalling again.
void install_graceful_shutdown();

/// True once SIGTERM or SIGINT arrived (always false if the handler was
/// never installed). Checked by the campaign runners between trials.
bool shutdown_requested();

/// The signal that requested shutdown, or 0.
int shutdown_signal();

/// Conventional exit code for a signal-interrupted run: 128 + signal
/// (130 for SIGINT, 143 for SIGTERM); 0 when no shutdown was requested.
int shutdown_exit_code();

/// Clears the flag (test helper — production code never un-requests a
/// shutdown).
void reset_shutdown_for_test();

}  // namespace hwsec::core
