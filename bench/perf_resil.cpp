// perf_resil — the chaos benchmark and resilience acceptance check.
//
// Runs the Fig. 7-style MAB campaign under injected fault plans of rising
// severity (0%, 10%, 25% of tool runs crash or hang) and checks that the
// orchestration stack degrades gracefully instead of falling over:
//
//   * the 10%-fault campaign finishes every pull (crashed pulls are retried
//     or censored, never fatal) and still finds a feasible frequency;
//   * its regret does not regress more than 2x over the fault-free baseline
//     (+5.0 floor so a near-zero baseline is not an impossible bar);
//   * injected chaos actually exercised the machinery (nonzero retries);
//   * a deadline-watchdog run lands in the journal as TimedOut;
//   * the 10% campaign replays bitwise-identically on a 1-thread and an
//     N-thread pool — chaos is seed-derived, so determinism survives it.
//
// A regression exits nonzero so the check gates CI as a ctest (label
// "resil"). Results are written as machine-readable JSON:
//   perf_resil [output.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/mab_scheduler.hpp"
#include "exec/executor.hpp"
#include "obs/registry.hpp"
#include "resil/fault.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

using namespace maestro;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// The synthetic feasibility-cliff oracle of perf_store_cache with injected
/// chaos: faults are decided at site "oracle" purely from the attempt seed,
/// so every campaign replays exactly.
core::FlowOracle chaos_cliff(double max_ghz) {
  return [max_ghz](double target_ghz, std::uint64_t seed, exec::RunContext& ctx) {
    switch (resil::FaultInjector::decide("oracle", seed)) {
      case resil::FaultKind::Crash:
        throw resil::InjectedCrash{"oracle"};
      case resil::FaultKind::Hang:
        resil::injected_hang([&] { return ctx.should_stop(); },
                             resil::FaultInjector::plan()->hang_ms());
        break;
      default:
        break;
    }
    util::Rng rng{seed};
    flow::FlowResult res;
    res.completed = true;
    const double margin = max_ghz + rng.gauss(0.0, 0.03) - target_ghz;
    res.timing_met = margin > 0.0;
    res.drc_clean = true;
    res.constraints_met = true;
    res.wns_ps = margin * 100.0;
    res.area_um2 = 1000.0;
    res.power_mw = target_ghz * 2.0;
    res.tat_minutes = 60.0;
    return res;
  };
}

void install_faults(double rate) {
  if (rate <= 0.0) {
    resil::FaultInjector::clear();
    return;
  }
  resil::FaultRates rates;
  rates.crash = rate * 0.8;  // most chaos is crashes, some is hangs
  rates.hang = rate * 0.2;
  resil::FaultPlan plan{rates, 7};
  plan.set_hang_ms(2.0);  // short cooperative stalls keep the bench fast
  resil::FaultInjector::install(plan);
}

struct CampaignStats {
  bool completed = false;
  core::MabRunResult result;
  std::uint64_t retries = 0;
  double secs = 0.0;
};

CampaignStats run_campaign(const core::MabOptions& opt, double fault_rate,
                           std::size_t threads) {
  install_faults(fault_rate);
  CampaignStats stats;
  const std::uint64_t retries0 = counter("exec.retries");
  const auto t0 = std::chrono::steady_clock::now();
  try {
    exec::RunExecutor pool{{.threads = threads}};
    util::Rng rng{2018};
    stats.result = core::MabScheduler{opt}.run(chaos_cliff(1.6), rng, pool);
    stats.completed = stats.result.total_runs == opt.iterations * opt.concurrency;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign at %.0f%% faults threw: %s\n", fault_rate * 100.0,
                 e.what());
  }
  stats.secs = seconds_since(t0);
  stats.retries = counter("exec.retries") - retries0;
  resil::FaultInjector::clear();
  return stats;
}

bool samples_identical(const core::MabRunResult& a, const core::MabRunResult& b) {
  if (a.samples.size() != b.samples.size()) return false;
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    if (a.samples[i].frequency_ghz != b.samples[i].frequency_ghz ||
        a.samples[i].success != b.samples[i].success ||
        a.samples[i].reward != b.samples[i].reward ||
        a.samples[i].censored != b.samples[i].censored) {
      return false;
    }
  }
  return a.total_regret == b.total_regret && a.censored_runs == b.censored_runs;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_resil.json";

  core::MabOptions opt;
  opt.frequency_arms_ghz = core::frequency_arms(1.0, 2.2, 7);
  opt.iterations = 20;
  opt.concurrency = 5;  // Fig. 7: 5 concurrent tool licenses
  opt.resilience.retry.max_attempts = 3;

  util::JsonObject report;
  report["schema"] = util::Json{"maestro.bench.resil.v1"};

  // ------------------------------------------------ chaos severity sweep
  // Explicitly wider than one worker so the serial-vs-parallel determinism
  // check below is meaningful even on single-core CI machines.
  const std::size_t wide = std::max<std::size_t>(4, exec::default_thread_count());
  const std::vector<double> rates = {0.0, 0.10, 0.25};
  std::vector<CampaignStats> sweep;
  util::JsonArray sweep_json;
  for (const double rate : rates) {
    const auto stats = run_campaign(opt, rate, wide);
    util::JsonObject row;
    row["fault_rate"] = util::Json{rate};
    row["completed"] = util::Json{stats.completed};
    row["total_runs"] = util::Json{static_cast<double>(stats.result.total_runs)};
    row["censored_runs"] = util::Json{static_cast<double>(stats.result.censored_runs)};
    row["successful_runs"] = util::Json{static_cast<double>(stats.result.successful_runs)};
    row["best_feasible_ghz"] = util::Json{stats.result.best_feasible_ghz};
    row["regret"] = util::Json{stats.result.total_regret};
    row["retries"] = util::Json{static_cast<double>(stats.retries)};
    row["secs"] = util::Json{stats.secs};
    sweep_json.push_back(util::Json{std::move(row)});
    std::printf("faults %3.0f%%: runs %zu (censored %zu), retries %llu, best %.2f GHz, "
                "regret %.2f, %.2fs -> %s\n",
                rate * 100.0, stats.result.total_runs, stats.result.censored_runs,
                static_cast<unsigned long long>(stats.retries),
                stats.result.best_feasible_ghz, stats.result.total_regret, stats.secs,
                stats.completed ? "completed" : "INCOMPLETE");
    sweep.push_back(stats);
  }
  report["sweep"] = util::Json{std::move(sweep_json)};

  const CampaignStats& clean = sweep[0];
  const CampaignStats& chaos10 = sweep[1];
  const double regret_budget = 2.0 * clean.result.total_regret + 5.0;
  const bool completed_ok = clean.completed && chaos10.completed && sweep[2].completed;
  const bool found_ok = chaos10.result.best_feasible_ghz > 0.0;
  const bool regret_ok = chaos10.result.total_regret <= regret_budget;
  const bool retries_ok = chaos10.retries > 0;

  // ------------------------------------------------ deadline watchdog
  std::uint64_t timeout_delta = 0;
  {
    const std::uint64_t timeouts0 = counter("exec.timeouts");
    exec::RunExecutor pool{{.threads = 2}};
    resil::ResilOptions ropt;
    ropt.deadline_ms = 25.0;
    auto fut = pool.submit(
        "bench_overdue", 1,
        [](exec::RunContext& ctx) -> int {
          for (int i = 0; i < 10000 && !ctx.should_stop(); ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          return 1;
        },
        {.resilience = ropt});
    try {
      (void)fut.get();
    } catch (const resil::RunTimedOut&) {
    }
    for (int i = 0; i < 2000 && pool.journal().summarize().timed_out == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    timeout_delta = counter("exec.timeouts") - timeouts0;
  }
  const bool timeout_ok = timeout_delta >= 1;
  report["timeouts_observed"] = util::Json{static_cast<double>(timeout_delta)};

  // ------------------------------------------------ determinism under chaos
  const auto serial = run_campaign(opt, 0.10, 1);
  const bool deterministic =
      serial.completed && samples_identical(serial.result, chaos10.result);
  report["deterministic_under_chaos"] = util::Json{deterministic};
  std::printf("determinism: 1-thread vs %zu-thread chaos campaign %s\n", wide,
              deterministic ? "IDENTICAL" : "MISMATCH");

  const bool pass =
      completed_ok && found_ok && regret_ok && retries_ok && timeout_ok && deterministic;
  report["regret_clean"] = util::Json{clean.result.total_regret};
  report["regret_10pct"] = util::Json{chaos10.result.total_regret};
  report["regret_budget"] = util::Json{regret_budget};
  report["pass"] = util::Json{pass};

  {
    std::ofstream out(out_path, std::ios::trunc);
    out << util::Json{std::move(report)}.dump() << '\n';
  }

  std::printf("perf_resil: regret %.2f (clean) -> %.2f (10%% faults, budget %.2f), "
              "retries %llu, timeouts %llu -> %s [%s]\n",
              clean.result.total_regret, chaos10.result.total_regret, regret_budget,
              static_cast<unsigned long long>(chaos10.retries),
              static_cast<unsigned long long>(timeout_delta), pass ? "OK" : "FAIL",
              out_path.c_str());
  if (!pass) {
    std::fprintf(stderr,
                 "FAIL: completed=%d found=%d regret=%d retries=%d timeout=%d "
                 "deterministic=%d\n",
                 completed_ok, found_ok, regret_ok, retries_ok, timeout_ok, deterministic);
  }
  return pass ? 0 : 1;
}
