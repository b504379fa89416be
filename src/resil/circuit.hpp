#pragma once
// CircuitBreaker — deterministic arm cooldown for schedulers.
//
// When an arm (a knob configuration, a frequency target) exhausts its
// retries repeatedly, continuing to pull it burns licenses on runs that
// will crash again. The breaker counts *consecutive* hard failures per arm
// and, past a threshold, opens the arm for a fixed number of scheduler
// rounds. Cooldowns are counted in rounds — not wall time — so a campaign's
// arm-selection sequence is identical at any thread count, preserving the
// determinism contract.
//
// Open arms are advisory: the scheduler redirects the pull to the nearest
// closed arm (deterministically) rather than skipping the pull, so batch
// sizes and seed indices stay schedule-independent.

#include <cstddef>
#include <utility>
#include <vector>

namespace maestro::resil {

class CircuitBreaker {
 public:
  struct Options {
    /// Consecutive exhausted-retry failures before the arm opens.
    int failure_threshold = 2;
    /// Rounds the arm stays open once tripped.
    int cooldown_rounds = 3;
  };

  struct ArmState {
    int consecutive_failures = 0;
    int cooldown_left = 0;
  };

  explicit CircuitBreaker(std::size_t arms) : opt_{}, arms_(arms) {}
  CircuitBreaker(std::size_t arms, Options opt) : opt_(opt), arms_(arms) {}

  /// One exhausted-retry failure on `arm`. Trips the breaker (and resets
  /// the consecutive count) once failure_threshold is reached.
  void record_failure(std::size_t arm);
  /// A successful pull closes the failure streak.
  void record_success(std::size_t arm);
  /// Tick every open arm's cooldown by one scheduler round.
  void advance_round();

  bool open(std::size_t arm) const;
  std::size_t open_count() const;
  /// Nearest closed arm to `arm` (ties go low); `arm` itself when every arm
  /// is open. Deterministic, so redirected pulls replay exactly.
  std::size_t nearest_closed(std::size_t arm) const;

  /// Per-arm state, for checkpointing a campaign; restore() takes it back
  /// (one entry per arm).
  const std::vector<ArmState>& arm_states() const { return arms_; }
  void restore(std::vector<ArmState> arms) { arms_ = std::move(arms); }

 private:
  Options opt_;
  std::vector<ArmState> arms_;
};

}  // namespace maestro::resil
