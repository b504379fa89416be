#include "core/mab_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <optional>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace maestro::core {

namespace {

/// Per-arm aggregates the regret computation needs; checkpointed alongside
/// the policy posteriors so a resumed campaign's regret matches the
/// uninterrupted one.
struct ArmAgg {
  std::size_t pulls = 0;
  std::size_t successes = 0;
  double reward_sum = 0.0;
};

util::Json u64_json(std::uint64_t v) { return util::Json{std::to_string(v)}; }
std::uint64_t u64_from(const util::Json& j) {
  return std::strtoull(j.as_string().c_str(), nullptr, 10);
}

/// Everything needed to continue (or short-circuit) a MAB campaign.
struct MabCampaignState {
  std::uint64_t base_seed = 0;
  std::uint64_t run_index = 0;
  std::size_t next_iteration = 0;
  double best = 0.0;
  std::vector<MabSample> samples;
  std::vector<double> best_per_iteration;
  std::vector<ArmAgg> agg;
  std::vector<ml::ArmStats> policy;
  /// Empty when restored from a checkpoint written before the breaker was
  /// checkpointed: the campaign resumes with a fresh breaker.
  std::vector<resil::CircuitBreaker::ArmState> breaker;
  util::Json rng_state;
};

util::Json mab_state_json(const MabCampaignState& st, const MabOptions& opt) {
  util::JsonObject o;
  // Campaign identity, validated on resume: a checkpoint from different
  // options must not be continued.
  o["algorithm"] = util::Json{to_string(opt.algorithm)};
  util::JsonArray arms;
  for (const double a : opt.frequency_arms_ghz) arms.push_back(util::Json{a});
  o["arms"] = util::Json{std::move(arms)};
  o["concurrency"] = util::Json{opt.concurrency};

  o["base_seed"] = u64_json(st.base_seed);
  o["run_index"] = u64_json(st.run_index);
  o["next_iteration"] = util::Json{st.next_iteration};
  o["best"] = util::Json{st.best};
  o["rng"] = st.rng_state;
  util::JsonArray samples;
  for (const auto& s : st.samples) {
    util::JsonObject so;
    so["it"] = util::Json{s.iteration};
    so["ghz"] = util::Json{s.frequency_ghz};
    so["ok"] = util::Json{s.success};
    so["r"] = util::Json{s.reward};
    so["cen"] = util::Json{s.censored};
    samples.push_back(util::Json{std::move(so)});
  }
  o["samples"] = util::Json{std::move(samples)};
  util::JsonArray bests;
  for (const double b : st.best_per_iteration) bests.push_back(util::Json{b});
  o["best_per_iteration"] = util::Json{std::move(bests)};
  util::JsonArray agg;
  for (const auto& a : st.agg) {
    util::JsonObject ao;
    ao["pulls"] = util::Json{a.pulls};
    ao["succ"] = util::Json{a.successes};
    ao["rsum"] = util::Json{a.reward_sum};
    agg.push_back(util::Json{std::move(ao)});
  }
  o["agg"] = util::Json{std::move(agg)};
  util::JsonArray policy;
  for (const auto& p : st.policy) {
    util::JsonObject po;
    po["pulls"] = util::Json{p.pulls};
    po["rsum"] = util::Json{p.reward_sum};
    po["rsq"] = util::Json{p.reward_sq_sum};
    policy.push_back(util::Json{std::move(po)});
  }
  o["policy"] = util::Json{std::move(policy)};
  util::JsonArray breaker;
  for (const auto& b : st.breaker) {
    util::JsonObject bo;
    bo["fail"] = util::Json{b.consecutive_failures};
    bo["cool"] = util::Json{b.cooldown_left};
    breaker.push_back(util::Json{std::move(bo)});
  }
  o["breaker"] = util::Json{std::move(breaker)};
  return util::Json{std::move(o)};
}

std::optional<MabCampaignState> mab_state_from_json(const util::Json& j,
                                                    const MabOptions& opt) {
  if (!j.is_object()) return std::nullopt;
  if (j.at("algorithm").as_string() != to_string(opt.algorithm)) return std::nullopt;
  const auto& arms = j.at("arms").as_array();
  if (arms.size() != opt.frequency_arms_ghz.size()) return std::nullopt;
  for (std::size_t i = 0; i < arms.size(); ++i) {
    if (arms[i].as_number() != opt.frequency_arms_ghz[i]) return std::nullopt;
  }
  if (static_cast<std::size_t>(j.at("concurrency").as_number()) != opt.concurrency) {
    return std::nullopt;  // seed derivation depends on the batch width
  }
  MabCampaignState st;
  st.base_seed = u64_from(j.at("base_seed"));
  st.run_index = u64_from(j.at("run_index"));
  st.next_iteration = static_cast<std::size_t>(j.at("next_iteration").as_number());
  st.best = j.at("best").as_number();
  st.rng_state = j.at("rng");
  if (st.rng_state.as_array().size() != 6) return std::nullopt;
  for (const auto& s : j.at("samples").as_array()) {
    MabSample sample;
    sample.iteration = static_cast<std::size_t>(s.at("it").as_number());
    sample.frequency_ghz = s.at("ghz").as_number();
    sample.success = s.at("ok").as_bool();
    sample.reward = s.at("r").as_number();
    // Absent in pre-resilience checkpoints: default to "observed".
    sample.censored = s.at("cen").as_bool(false);
    st.samples.push_back(sample);
  }
  for (const auto& b : j.at("best_per_iteration").as_array()) {
    st.best_per_iteration.push_back(b.as_number());
  }
  for (const auto& a : j.at("agg").as_array()) {
    ArmAgg agg;
    agg.pulls = static_cast<std::size_t>(a.at("pulls").as_number());
    agg.successes = static_cast<std::size_t>(a.at("succ").as_number());
    agg.reward_sum = a.at("rsum").as_number();
    st.agg.push_back(agg);
  }
  for (const auto& p : j.at("policy").as_array()) {
    ml::ArmStats stats;
    stats.pulls = static_cast<std::size_t>(p.at("pulls").as_number());
    stats.reward_sum = p.at("rsum").as_number();
    stats.reward_sq_sum = p.at("rsq").as_number();
    st.policy.push_back(stats);
  }
  for (const auto& b : j.at("breaker").as_array()) {  // absent: fresh breaker
    resil::CircuitBreaker::ArmState arm;
    arm.consecutive_failures = static_cast<int>(b.at("fail").as_number());
    arm.cooldown_left = static_cast<int>(b.at("cool").as_number());
    st.breaker.push_back(arm);
  }
  if (!st.breaker.empty() && st.breaker.size() != opt.frequency_arms_ghz.size()) {
    return std::nullopt;
  }
  if (st.agg.size() != opt.frequency_arms_ghz.size()) return std::nullopt;
  if (st.policy.size() != opt.frequency_arms_ghz.size()) return std::nullopt;
  return st;
}

}  // namespace

const char* to_string(MabAlgorithm a) {
  switch (a) {
    case MabAlgorithm::Thompson: return "thompson";
    case MabAlgorithm::Softmax: return "softmax";
    case MabAlgorithm::EpsilonGreedy: return "eps_greedy";
    case MabAlgorithm::Ucb1: return "ucb1";
  }
  return "?";
}

FlowOracle make_flow_oracle(const flow::FlowManager& manager, const flow::DesignSpec& design,
                            const flow::FlowTrajectory& knobs,
                            const flow::FlowConstraints& constraints) {
  return [&manager, design, knobs, constraints](double target_ghz, std::uint64_t seed,
                                                exec::RunContext& ctx) {
    flow::FlowRecipe recipe;
    recipe.design = design;
    recipe.target_ghz = target_ghz;
    recipe.knobs = knobs;
    // The attempt seed, not the submission seed: a retried pull re-rolls its
    // tool noise (and its fault-site deviates) instead of replaying the
    // crash deterministically.
    recipe.seed = seed;
    // The executor's token, so deadline watchdogs and hedged-twin losses
    // cancel the flow mid-step (injected hangs poll this token).
    recipe.cancel = ctx.cancel;
    return manager.run(recipe, constraints);
  };
}

std::vector<double> frequency_arms(double lo_ghz, double hi_ghz, std::size_t count) {
  assert(count >= 2 && hi_ghz > lo_ghz);
  std::vector<double> arms(count);
  for (std::size_t i = 0; i < count; ++i) {
    arms[i] = lo_ghz + (hi_ghz - lo_ghz) * static_cast<double>(i) /
                           static_cast<double>(count - 1);
  }
  return arms;
}

MabScheduler::MabScheduler(MabOptions options) : options_(std::move(options)) {
  assert(!options_.frequency_arms_ghz.empty());
}

std::unique_ptr<ml::BanditPolicy> MabScheduler::make_policy() const {
  const std::size_t n = options_.frequency_arms_ghz.size();
  switch (options_.algorithm) {
    case MabAlgorithm::Thompson: return std::make_unique<ml::ThompsonGaussian>(n);
    case MabAlgorithm::Softmax: return std::make_unique<ml::Softmax>(n, options_.tau);
    case MabAlgorithm::EpsilonGreedy:
      return std::make_unique<ml::EpsilonGreedy>(n, options_.epsilon);
    case MabAlgorithm::Ucb1: return std::make_unique<ml::Ucb1>(n);
  }
  return std::make_unique<ml::ThompsonGaussian>(n);
}

MabRunResult MabScheduler::run(const FlowOracle& oracle, util::Rng& rng) const {
  exec::RunExecutor pool;
  return run(oracle, rng, pool);
}

MabRunResult MabScheduler::run(const FlowOracle& oracle, util::Rng& rng,
                               exec::RunExecutor& pool) const {
  MabRunResult res;
  auto policy = make_policy();
  const auto& arms = options_.frequency_arms_ghz;

  obs::Span run_span("mab_run", "sched");
  run_span.arg("algorithm", to_string(options_.algorithm))
      .arg("arms", static_cast<double>(arms.size()))
      .arg("iterations", static_cast<double>(options_.iterations));

  std::vector<ArmAgg> agg(arms.size());
  resil::CircuitBreaker breaker(arms.size(), options_.breaker);

  double best = 0.0;
  std::uint64_t base_seed = 0;
  std::uint64_t run_index = 0;
  std::size_t start_iteration = 0;
  const std::string state_key = "mab:" + options_.campaign_id;

  // Resume: restore posteriors, aggregates, the breaker, the sampled
  // trajectory and the RNG from the last persisted iteration. The restored
  // stream is bitwise identical to the uninterrupted campaign
  // (tests/test_store.cpp and tests/test_resil.cpp assert equality
  // sample-by-sample); a checkpoint written under different options is
  // ignored and the campaign starts fresh.
  bool resumed = false;
  if (options_.checkpoint) {
    if (const auto saved = options_.checkpoint->get_state(state_key)) {
      if (auto st = mab_state_from_json(*saved, options_)) {
        base_seed = st->base_seed;
        run_index = st->run_index;
        start_iteration = st->next_iteration;
        best = st->best;
        res.samples = std::move(st->samples);
        res.best_per_iteration = std::move(st->best_per_iteration);
        for (const auto& s : res.samples) {
          ++res.total_runs;
          if (s.success) ++res.successful_runs;
          if (s.censored) ++res.censored_runs;
        }
        agg = std::move(st->agg);
        policy->restore_stats(st->policy);
        if (!st->breaker.empty()) breaker.restore(std::move(st->breaker));
        store::rng_state_from_json(rng, st->rng_state);
        resumed = true;
        obs::Registry::global().counter("store.campaign_resumed").add();
      }
    }
  }
  if (!resumed) base_seed = rng.next();
  run_span.arg("start_iteration", static_cast<double>(start_iteration));

  const auto save_checkpoint = [&](std::size_t next_iteration) {
    if (!options_.checkpoint) return;
    MabCampaignState st;
    st.base_seed = base_seed;
    st.run_index = run_index;
    st.next_iteration = next_iteration;
    st.best = best;
    st.samples = res.samples;
    st.best_per_iteration = res.best_per_iteration;
    st.agg = agg;
    st.policy = policy->export_stats();
    st.breaker = breaker.arm_states();
    st.rng_state = store::rng_state_to_json(rng);
    options_.checkpoint->put_state(state_key, mab_state_json(st, options_));
  };

  for (std::size_t it = start_iteration; it < options_.iterations; ++it) {
    // The iteration span covers arm selection, the parallel batch and the
    // barrier — where the batch stalls on licenses shows up as its tail.
    obs::Span it_span("mab_iter", "sched");
    it_span.arg("iteration", static_cast<double>(it));

    // Serial: arm selection consumes the shared Rng in a fixed order; open
    // (cooling-down) arms are redirected to the nearest closed one so the
    // batch width and seed indices stay schedule-independent.
    std::vector<std::size_t> chosen;
    chosen.reserve(options_.concurrency);
    for (std::size_t b = 0; b < options_.concurrency; ++b) {
      std::size_t arm = policy->select(rng);
      if (breaker.open(arm)) {
        const std::size_t redirect = breaker.nearest_closed(arm);
        if (redirect != arm) {
          obs::Registry::global().counter("sched.arm_cooldown_redirects").add();
          arm = redirect;
        }
      }
      chosen.push_back(arm);
    }
    obs::Registry::global().counter("sched.mab_pulls").add(chosen.size());

    // Parallel: the iteration's B concurrent tool runs (Fig. 7's "5
    // concurrent samples"). Submission seeds depend only on (base_seed,
    // run_index), retries derive theirs from the submission seed and hedge
    // twins share their attempt's seed, so the trajectory is bitwise
    // identical at any pool size, under injected faults too. With a cache,
    // a run's key is the campaign's fixed context plus its (frequency,
    // seed), so a repeated campaign against the same store answers from it.
    std::vector<std::future<flow::FlowResult>> futures;
    futures.reserve(chosen.size());
    for (std::size_t b = 0; b < chosen.size(); ++b) {
      const double freq = arms[chosen[b]];
      const std::uint64_t seed = exec::derive_run_seed(base_seed, run_index + b);
      std::optional<store::KeyedRunCache> memo;
      if (options_.cache) {
        store::RunKey key = options_.cache_key;
        key.set("target_ghz", freq);
        key.seed = seed;
        memo.emplace(*options_.cache, std::move(key));
      }
      futures.push_back(pool.submit(
          "mab#" + std::to_string(run_index + b), seed,
          [&oracle, freq](exec::RunContext& ctx) { return oracle(freq, ctx.seed, ctx); },
          exec::SubmitOptions{{}, options_.resilience}, std::move(memo)));
    }
    run_index += chosen.size();

    // Barrier, then serial: observe rewards and update the policy in
    // submission order — exactly the serial schedule.
    for (std::size_t b = 0; b < chosen.size(); ++b) {
      const std::size_t arm = chosen[b];
      const double freq = arms[arm];
      flow::FlowResult fr;
      bool observed = true;
      try {
        fr = futures[b].get();
      } catch (const std::exception&) {
        // The run died (injected crash, timeout, exhausted retries, ...)
        // and produced no observation. Censor the pull: no posterior or
        // aggregate update — updating with reward 0 would conflate
        // "crashed" with "infeasible" and poison the policy — just record
        // the gap in the trajectory and feed the breaker.
        observed = false;
      }
      if (!observed) {
        obs::Registry::global().counter("sched.censored_runs").add();
        breaker.record_failure(arm);
        MabSample s;
        s.iteration = it;
        s.frequency_ghz = freq;
        s.censored = true;
        res.samples.push_back(s);
        ++res.total_runs;
        ++res.censored_runs;
        continue;
      }
      breaker.record_success(arm);
      // Reward: achieved (target) frequency when the run succeeds under its
      // constraints, else zero. Bounded, scale-free in GHz.
      const double reward = fr.success() ? freq : 0.0;
      policy->update(arm, reward);
      ArmAgg& a = agg[arm];
      ++a.pulls;
      a.reward_sum += reward;

      MabSample s;
      s.iteration = it;
      s.frequency_ghz = freq;
      s.success = fr.success();
      s.reward = reward;
      res.samples.push_back(s);
      ++res.total_runs;
      if (fr.success()) {
        ++a.successes;
        ++res.successful_runs;
        best = std::max(best, freq);
      }
    }
    breaker.advance_round();
    res.best_per_iteration.push_back(best);
    it_span.arg("best_feasible_ghz", best);
    save_checkpoint(it + 1);
  }
  res.best_feasible_ghz = best;
  run_span.arg("best_feasible_ghz", best)
      .arg("total_runs", static_cast<double>(res.total_runs))
      .arg("censored_runs", static_cast<double>(res.censored_runs));

  // Regret vs. the best *feasible* arm discovered over the whole corpus:
  // mu* is the highest empirical mean reward among arms with at least one
  // successful run (mean reward = frequency x empirical success rate). Each
  // pull is charged mu* minus the reward it actually obtained. A campaign
  // that never found a feasible arm has zero regret — nothing better was
  // discoverable.
  double best_feasible_mean = 0.0;
  for (const auto& a : agg) {
    if (a.successes > 0) {
      best_feasible_mean =
          std::max(best_feasible_mean, a.reward_sum / static_cast<double>(a.pulls));
    }
  }
  double regret = 0.0;
  for (const auto& s : res.samples) {
    if (!s.censored) regret += best_feasible_mean - s.reward;
  }
  res.total_regret = std::max(regret, 0.0);
  return res;
}

}  // namespace maestro::core
