#pragma once
// Retry, hedging and deadline policies for resilient run submission.
//
// The paper's Fig. 3 shows tool QoR as a noise distribution over seeds: a
// crashed or hung run re-submitted with a jittered seed often succeeds, so
// retry-with-seed-perturbation is the first line of defense against flaky
// tools. Hedging (Dean's "tail at scale" trick) addresses stragglers: after
// a delay calibrated to the journal's p95 wall time, a duplicate of the
// slow run launches with the *same* seed — whichever twin finishes first
// wins and the loser is cancelled. Because both twins share one seed, the
// winning value is identical either way and the executor's determinism
// contract survives hedging.
//
// All derivations are pure functions (retry_seed below), so a retried
// campaign replays bitwise-identically at any thread count.

#include <cstdint>
#include <stdexcept>

namespace maestro::resil {

/// Retry schedule for one logical run. max_attempts counts the first try:
/// max_attempts = 1 means no retries.
struct RetryPolicy {
  int max_attempts = 1;
  /// Base backoff before retry k (k >= 1): backoff_ms * backoff_factor^(k-1),
  /// capped at max_backoff_ms. 0 retries immediately.
  double backoff_ms = 0.0;
  double backoff_factor = 2.0;
  double max_backoff_ms = 2000.0;
  /// Derive a fresh seed per attempt (retry_seed). Off = identical re-run,
  /// which only helps against transient infrastructure faults.
  bool perturb_seed = true;

  double backoff_for(int retry_index) const;
};

/// Seed for attempt `attempt` (0-based) of a run with base seed `base`.
/// Attempt 0 is always the base seed; later attempts splitmix-derive from
/// (base, attempt) so a retry samples fresh tool noise deterministically.
std::uint64_t retry_seed(std::uint64_t base, int attempt, bool perturb = true);

/// Duplicate-submission hedging. delay_ms < 0 calibrates the delay from the
/// executor journal's wall p95 at submit time (1 ms floor when the journal
/// is empty).
struct HedgePolicy {
  bool enabled = false;
  double delay_ms = -1.0;
};

/// Everything the executor's resilient launcher needs to know about one
/// logical run (exec::SubmitOptions::resilience). Every knob off (the
/// default) means one plain attempt.
struct ResilOptions {
  RetryPolicy retry;
  HedgePolicy hedge;
  /// Wall-clock budget for the logical run (all attempts). 0 = none. On
  /// expiry the watchdog cooperatively cancels every in-flight attempt,
  /// the run is journaled TimedOut (license released by the normal worker
  /// path) and the caller's future throws RunTimedOut.
  double deadline_ms = 0.0;

  bool enabled() const {
    return retry.max_attempts > 1 || hedge.enabled || deadline_ms > 0.0;
  }
};

/// Thrown through the caller's future when a resilient run exceeds its
/// deadline.
struct RunTimedOut : std::runtime_error {
  RunTimedOut() : std::runtime_error("run exceeded its deadline") {}
};

}  // namespace maestro::resil
