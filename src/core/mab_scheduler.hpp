#pragma once
// Multi-armed-bandit tool-run scheduling (paper Section 3.1, Fig. 7; [25]).
//
// Arms are target clock frequencies for a full SP&R flow. Each iteration
// launches B concurrent tool runs (B = available licenses), observes each
// run's reward, and updates the policy. Reward = achieved frequency when the
// run meets its power/area constraints, else 0 — so the policy concentrates
// samples just below the highest feasible frequency, which is exactly the
// Fig. 7 trajectory.

#include <functional>
#include <memory>
#include <vector>

#include "exec/executor.hpp"
#include "flow/flow.hpp"
#include "ml/bandit.hpp"
#include "resil/circuit.hpp"
#include "resil/retry.hpp"
#include "store/run_cache.hpp"
#include "store/run_store.hpp"

namespace maestro::core {

/// Abstracts "run the flow at a target frequency with a seed" so the
/// scheduler can drive the real FlowManager or a fast synthetic oracle. The
/// executor's RunContext lets the flow observe cooperative cancellation
/// (deadline watchdog, hedged-twin loss) mid-run. `seed` is the attempt
/// seed (RunContext::seed): the submission seed on a first attempt, a
/// perturbed value on a retry, so flaky tool noise is re-rolled.
using FlowOracle =
    std::function<flow::FlowResult(double target_ghz, std::uint64_t seed, exec::RunContext& ctx)>;

/// Build an oracle over the real flow for a fixed design and knob set. It
/// threads the attempt seed and the RunContext's cancel token into the
/// recipe, so injected hangs are cancellable and retries sample fresh tool
/// noise.
FlowOracle make_flow_oracle(const flow::FlowManager& manager, const flow::DesignSpec& design,
                            const flow::FlowTrajectory& knobs,
                            const flow::FlowConstraints& constraints);

enum class MabAlgorithm { Thompson, Softmax, EpsilonGreedy, Ucb1 };
const char* to_string(MabAlgorithm a);

struct MabOptions {
  std::vector<double> frequency_arms_ghz;  ///< the arms
  std::size_t iterations = 40;             ///< Fig. 7: 40
  std::size_t concurrency = 5;             ///< Fig. 7: 5 tool licenses
  MabAlgorithm algorithm = MabAlgorithm::Thompson;
  double epsilon = 0.1;  ///< e-greedy only
  double tau = 0.08;     ///< softmax only

  /// Optional content-addressed memoization: when set, every run's key is
  /// `cache_key` plus (target_ghz, derived seed), and duplicate
  /// configurations — reissued arms, repeated campaigns over the same
  /// MAESTRO_STORE — resolve from the cache instead of dispatching.
  store::FlowCache* cache = nullptr;
  /// Key template for cached runs: design name plus the fixed knob context
  /// the oracle closes over (see store::run_key_for).
  store::RunKey cache_key;

  /// Optional durable checkpointing: posteriors, the sampled trajectory,
  /// the circuit breaker and the RNG state persist to this store after
  /// every iteration under "mab:<campaign_id>". A later run with the same
  /// id and options resumes where it left off — bitwise identical to the
  /// uninterrupted campaign — instead of restarting; a finished campaign
  /// short-circuits entirely.
  store::RunStore* checkpoint = nullptr;
  std::string campaign_id = "mab";

  /// Retry budget, hedging and per-run deadline applied to every
  /// dispatched arm pull (off by default).
  resil::ResilOptions resilience;
  /// Circuit breaker over arms: an arm whose pulls keep dying (crashes,
  /// timeouts, exhausted retries) is cooled down for a few iterations and
  /// its selections redirected to the nearest closed arm.
  resil::CircuitBreaker::Options breaker;
};

/// One tool run in the sampling trajectory (one dot of Fig. 7).
struct MabSample {
  std::size_t iteration = 0;
  double frequency_ghz = 0.0;
  bool success = false;
  double reward = 0.0;
  /// True when the run died (crash/timeout after exhausting its retry
  /// budget) and produced no observation: the posterior is not updated and
  /// the sample is excluded from regret — a censored pull, not a zero.
  bool censored = false;
};

struct MabRunResult {
  std::vector<MabSample> samples;       ///< iterations x concurrency dots
  std::vector<double> best_per_iteration;  ///< running best feasible frequency
  double best_feasible_ghz = 0.0;
  std::size_t total_runs = 0;
  std::size_t successful_runs = 0;
  std::size_t censored_runs = 0;  ///< pulls that died without an observation
  /// Regret vs. always playing the best *feasible* arm discovered over the
  /// whole corpus (highest empirical mean reward among arms with >= 1
  /// successful run), per footnote 3's regret-minimization formulation.
  /// Censored pulls are excluded — they carry no reward observation.
  double total_regret = 0.0;
};

class MabScheduler {
 public:
  explicit MabScheduler(MabOptions options);

  /// Run the explore/exploit campaign against the oracle. Each iteration's B
  /// concurrent runs execute in parallel on `pool`, each submitted with
  /// `options().resilience` (retries with perturbed seeds, optional hedging
  /// and per-run deadline) and, when `options().cache` is set, memoized.
  /// A pull that still dies becomes a *censored* sample — no posterior
  /// update, excluded from regret — and feeds the per-arm circuit breaker,
  /// which cools repeatedly-dying arms down and redirects their selections
  /// to the nearest closed arm. Every run's seed derives from (campaign
  /// seed, run index), so the sampled trajectory is bitwise identical at
  /// any pool size (MAESTRO_THREADS=1 == MAESTRO_THREADS=8), under injected
  /// faults too, and a checkpointed campaign resumes bitwise identical.
  MabRunResult run(const FlowOracle& oracle, util::Rng& rng, exec::RunExecutor& pool) const;
  /// Convenience: runs on a private pool sized by MAESTRO_THREADS /
  /// hardware concurrency.
  MabRunResult run(const FlowOracle& oracle, util::Rng& rng) const;

  const MabOptions& options() const { return options_; }

 private:
  std::unique_ptr<ml::BanditPolicy> make_policy() const;
  MabOptions options_;
};

/// Evenly spaced frequency arms in [lo, hi].
std::vector<double> frequency_arms(double lo_ghz, double hi_ghz, std::size_t count);

}  // namespace maestro::core
