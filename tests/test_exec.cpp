// Tests for maestro::exec — the concurrency layer: RunExecutor determinism
// (serial == parallel, bitwise), license gating, cooperative cancellation
// through the guard -> token -> flow chain, and the run journal.
//
// This file builds as its own binary (maestro_exec_tests) labeled "exec" so
// it can run in isolation under -DMAESTRO_SANITIZE=thread:
//   ctest -L exec

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "core/doomed_guard.hpp"
#include "core/hmm_guard.hpp"
#include "core/mab_scheduler.hpp"
#include "exec/executor.hpp"
#include "metrics/server.hpp"
#include "opt/gwtw.hpp"
#include "route/drv_sim.hpp"

namespace mc = maestro::core;
namespace mf = maestro::flow;
namespace mn = maestro::netlist;
namespace mo = maestro::opt;
namespace mr = maestro::route;
namespace mx = maestro::exec;
using maestro::util::Rng;

namespace {

const mn::CellLibrary& lib() {
  static const mn::CellLibrary l = mn::make_default_library();
  return l;
}

/// Same synthetic cliff oracle as the core MAB tests: pure function of
/// (target_ghz, seed), so it is trivially safe to call from pool workers.
mc::FlowOracle cliff_oracle(double max_ghz, double noise = 0.03) {
  return [max_ghz, noise](double target_ghz, std::uint64_t seed, mx::RunContext&) {
    Rng rng{seed};
    mf::FlowResult res;
    res.completed = true;
    const double margin = max_ghz + rng.gauss(0.0, noise) - target_ghz;
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

}  // namespace

// ------------------------------------------------------------- primitives

TEST(DeriveRunSeed, DependsOnlyOnBaseAndIndex) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t s = mx::derive_run_seed(42, i);
    EXPECT_EQ(s, mx::derive_run_seed(42, i));  // pure
    EXPECT_NE(s, 42u);
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 1000u);  // no collisions across indices
  EXPECT_NE(mx::derive_run_seed(42, 0), mx::derive_run_seed(43, 0));
}

TEST(CancelToken, CopiesShareTheFlag) {
  mx::CancelToken a;
  mx::CancelToken b = a;
  mx::CancelToken c;
  EXPECT_TRUE(a.same_as(b));
  EXPECT_FALSE(a.same_as(c));
  EXPECT_FALSE(a.cancelled());
  b.request_cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_FALSE(c.cancelled());
}

// ------------------------------------------------------------ RunExecutor

TEST(RunExecutor, MapCollectsInIndexOrderAtAnyThreadCount) {
  auto body = [](std::size_t i, mx::RunContext& ctx) {
    Rng rng{ctx.seed};
    return static_cast<double>(i) + rng.uniform();
  };
  mx::RunExecutor one{{.threads = 1}};
  mx::RunExecutor four{{.threads = 4}};
  const auto a = one.map("m", 7, 32, body);
  const auto b = four.map("m", 7, 32, body);
  ASSERT_EQ(a.size(), 32u);
  ASSERT_EQ(b.size(), 32u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << i;  // bitwise: same seed, same work
    EXPECT_GE(a[i], static_cast<double>(i));
  }
  EXPECT_EQ(one.journal().count(mx::RunState::Completed), 32u);
  EXPECT_EQ(four.journal().count(mx::RunState::Completed), 32u);
}

TEST(RunExecutor, LicensesGateConcurrency) {
  mx::RunExecutor pool{{.threads = 4, .licenses = 2}};
  EXPECT_EQ(pool.threads(), 4u);
  EXPECT_EQ(pool.licenses(), 2u);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(pool.submit("gated", 1, [&](mx::RunContext&) {
      const int now = ++running;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      --running;
      return now;
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_LE(peak.load(), 2);
  EXPECT_GE(peak.load(), 1);
  EXPECT_EQ(pool.licenses_in_use(), 0u);
}

TEST(RunExecutor, CancelledWhileQueuedSkipsAndThrows) {
  mx::RunExecutor pool{{.threads = 1}};
  std::atomic<bool> release{false};
  auto blocker = pool.submit("blocker", 1, [&](mx::RunContext&) {
    while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return 1;
  });
  mx::CancelToken token;
  auto doomed = pool.submit("doomed", 2, [](mx::RunContext&) { return 2; }, {token});
  token.request_cancel();
  release = true;
  EXPECT_EQ(blocker.get(), 1);
  EXPECT_THROW(doomed.get(), mx::RunCancelled);
  const auto snap = pool.journal().snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].state, mx::RunState::Completed);
  EXPECT_EQ(snap[1].state, mx::RunState::Cancelled);
  EXPECT_EQ(snap[1].wall_ms(), 0.0);            // never started
  EXPECT_GE(snap[1].queue_wait_ms(), 0.0);      // waited until cancellation
}

TEST(RunExecutor, FailurePropagatesThroughFutureAndJournal) {
  mx::RunExecutor pool{{.threads = 2}};
  auto fut = pool.submit("explodes", 3, [](mx::RunContext&) -> int {
    throw std::runtime_error("tool crashed");
  });
  EXPECT_THROW(fut.get(), std::runtime_error);
  auto ok = pool.submit("fine", 4, [](mx::RunContext&) { return 7; });
  EXPECT_EQ(ok.get(), 7);  // pool survives a failed run
  EXPECT_EQ(pool.journal().count(mx::RunState::Failed), 1u);
  EXPECT_EQ(pool.journal().count(mx::RunState::Completed), 1u);
  const auto snap = pool.journal().snapshot();
  EXPECT_EQ(snap[0].note, "tool crashed");
}

TEST(RunExecutor, JournalTimestampsAreOrdered) {
  mx::RunExecutor pool{{.threads = 2}};
  auto f = pool.submit("timed", 5, [](mx::RunContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return 0;
  });
  f.get();
  const auto snap = pool.journal().snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_GE(snap[0].start_ms, snap[0].enqueue_ms);
  EXPECT_GE(snap[0].finish_ms, snap[0].start_ms);
  EXPECT_GE(snap[0].wall_ms(), 4.0);
  EXPECT_GE(pool.journal().total_wall_ms(), 4.0);
}

TEST(RunJournal, SummaryPercentilesAreMonotone) {
  mx::RunExecutor pool{{.threads = 2}};
  // Variable-duration runs so the percentiles spread out.
  pool.map("spread", 7, 16, [](std::size_t i, mx::RunContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1 + i % 5));
    return i;
  });
  const mx::JournalSummary s = pool.journal().summarize();
  EXPECT_EQ(s.runs, 16u);
  EXPECT_LE(s.queue_wait_p50_ms, s.queue_wait_p95_ms);
  EXPECT_LE(s.queue_wait_p95_ms, s.queue_wait_max_ms);
  EXPECT_LE(s.wall_p50_ms, s.wall_p95_ms);
  EXPECT_LE(s.wall_p95_ms, s.wall_max_ms);
  EXPECT_GT(s.wall_max_ms, 0.0);

  const mx::JournalSummary empty = mx::RunExecutor{{.threads = 1}}.journal().summarize();
  EXPECT_EQ(empty.runs, 0u);
  EXPECT_EQ(empty.wall_max_ms, 0.0);
}

TEST(RunExecutor, DefaultThreadCountHonorsEnvOverride) {
  setenv("MAESTRO_THREADS", "3", 1);
  EXPECT_EQ(mx::default_thread_count(), 3u);
  setenv("MAESTRO_THREADS", "999", 1);  // clamped to 256
  EXPECT_EQ(mx::default_thread_count(), 256u);
  setenv("MAESTRO_THREADS", "0", 1);    // invalid -> hardware fallback
  EXPECT_GE(mx::default_thread_count(), 1u);
  unsetenv("MAESTRO_THREADS");
  EXPECT_GE(mx::default_thread_count(), 1u);
}

// ------------------------------------------------- determinism: scheduler

TEST(ExecDeterminism, MabCampaignIdenticalSerialAndParallel) {
  mc::MabOptions opt;
  opt.frequency_arms_ghz = mc::frequency_arms(0.3, 2.0, 12);
  opt.iterations = 25;
  opt.concurrency = 5;
  opt.algorithm = mc::MabAlgorithm::Thompson;
  const mc::MabScheduler sched{opt};
  const auto oracle = cliff_oracle(1.2);

  mx::RunExecutor serial{{.threads = 1}};
  mx::RunExecutor wide{{.threads = 4}};
  Rng r1{99};
  Rng r2{99};
  const auto a = sched.run(oracle, r1, serial);
  const auto b = sched.run(oracle, r2, wide);

  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].iteration, b.samples[i].iteration);
    EXPECT_EQ(a.samples[i].frequency_ghz, b.samples[i].frequency_ghz) << i;
    EXPECT_EQ(a.samples[i].success, b.samples[i].success) << i;
    EXPECT_EQ(a.samples[i].reward, b.samples[i].reward) << i;
  }
  EXPECT_EQ(a.best_feasible_ghz, b.best_feasible_ghz);
  EXPECT_EQ(a.total_regret, b.total_regret);
  EXPECT_EQ(a.best_per_iteration, b.best_per_iteration);
  // And the shared-Rng state advanced identically.
  EXPECT_EQ(r1.next(), r2.next());
}

TEST(ExecDeterminism, GwtwIdenticalSerialAndParallel) {
  // Minimize (x - 3)^2 over a drifting population.
  mo::GwtwProblem<double> prob;
  prob.init = [](Rng& rng) { return rng.gauss(0.0, 5.0); };
  prob.advance = [](const double& s, Rng& rng) { return s + rng.gauss(0.0, 0.4); };
  prob.cost = [](const double& s) { return (s - 3.0) * (s - 3.0); };

  mo::GwtwOptions serial_opt;
  serial_opt.population = 8;
  serial_opt.rounds = 15;

  mx::RunExecutor pool{{.threads = 4}};
  mo::GwtwOptions pool_opt = serial_opt;
  pool_opt.executor = &pool;

  Rng r1{7};
  Rng r2{7};
  const auto a = mo::go_with_the_winners(prob, serial_opt, r1);
  const auto b = mo::go_with_the_winners(prob, pool_opt, r2);

  EXPECT_EQ(a.best, b.best);            // bitwise-identical winner
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.best_per_round, b.best_per_round);
  EXPECT_EQ(a.mean_per_round, b.mean_per_round);
  EXPECT_EQ(a.clones_made, b.clones_made);
  EXPECT_EQ(r1.next(), r2.next());
  EXPECT_EQ(pool.journal().size(), 8u * 15u);
}

// ------------------------------------------------------------ cancellation

TEST(Cancellation, GuardStopVerdictRequestsCancel) {
  Rng rng{5};
  mr::DrvSimOptions dso;
  dso.seed = 5;
  const auto train = mr::make_drv_corpus(mr::CorpusKind::ArtificialLayouts, 400, dso, rng);
  mc::DoomedRunGuard guard;
  guard.train(train);
  ASSERT_TRUE(guard.stop_signal(50000.0, 5000.0, 45000.0));

  mx::CancelToken token;
  auto monitor = guard.monitor(2, token);
  // Feed an obviously diverging trajectory: high DRVs, rising.
  double drvs = 45000.0;
  bool stopped = false;
  for (int it = 0; it < 6 && !stopped; ++it) {
    stopped = !monitor(it, drvs, 5000.0);
    drvs += 5000.0;
  }
  EXPECT_TRUE(stopped);
  EXPECT_TRUE(token.cancelled());
}

TEST(Cancellation, HmmGuardMonitorStopsADoomedRun) {
  Rng rng{23};
  mr::DrvSimOptions dso;
  dso.seed = 23;
  const auto train = mr::make_drv_corpus(mr::CorpusKind::ArtificialLayouts, 400, dso, rng);
  mc::HmmGuard guard;
  guard.train(train);
  const auto test = mr::make_drv_corpus(mr::CorpusKind::CpuFloorplans, 200, dso, rng);

  // At least one genuinely failing run must trip the live monitor (the
  // offline evaluate() already certifies iterations_saved > 0 on corpora
  // like this); when it does, the bound token must be cancelled.
  bool any_stopped = false;
  for (const auto& run : test) {
    if (run.succeeded) continue;
    mx::CancelToken token;
    auto monitor = guard.monitor(token);
    bool stopped = false;
    for (std::size_t t = 0; t < run.drvs.size() && !stopped; ++t) {
      const double delta = t == 0 ? 0.0 : run.drvs[t] - run.drvs[t - 1];
      stopped = !monitor(static_cast<int>(t), run.drvs[t], delta);
    }
    EXPECT_EQ(stopped, token.cancelled());
    any_stopped = any_stopped || stopped;
  }
  EXPECT_TRUE(any_stopped);
}

TEST(Cancellation, CancelledFlowAbortsAndReturnsLicense) {
  mf::FlowManager fm{lib()};
  mx::RunExecutor pool{{.threads = 1, .licenses = 1}};

  mx::CancelToken token;
  mf::FlowRecipe recipe;
  recipe.design.kind = mf::DesignSpec::Kind::RandomLogic;
  recipe.design.scale = 1;
  recipe.design.name = "doomed";
  recipe.target_ghz = 1.0;
  recipe.seed = 13;
  recipe.knobs.set(mf::FlowStep::Floorplan, "utilization", "0.95");  // hard route
  recipe.cancel = token;
  // A stand-in guard verdict: STOP (and cancel) at the third route iteration.
  std::atomic<int> calls{0};
  recipe.route_monitor = [&](int, double, double) {
    if (++calls >= 3) {
      token.request_cancel();
      return false;
    }
    return true;
  };

  auto doomed = pool.submit(
      "doomed_flow", recipe.seed,
      [&fm, recipe](mx::RunContext&) { return fm.run(recipe); }, {token});
  // Queued behind the doomed run on the single license: must still execute
  // once cancellation releases the license.
  auto after = pool.submit("after", 1, [](mx::RunContext&) { return 42; });

  const mf::FlowResult res = doomed.get();
  EXPECT_EQ(res.failed_step, "cancelled");
  EXPECT_FALSE(res.completed);
  EXPECT_FALSE(res.success());
  EXPECT_GE(calls.load(), 3);
  EXPECT_EQ(after.get(), 42);

  EXPECT_EQ(pool.journal().count(mx::RunState::Cancelled), 1u);
  EXPECT_EQ(pool.journal().count(mx::RunState::Completed), 1u);
  EXPECT_EQ(pool.licenses_in_use(), 0u);
  const auto snap = pool.journal().snapshot();
  EXPECT_EQ(snap[0].state, mx::RunState::Cancelled);
  EXPECT_GT(snap[0].wall_ms(), 0.0);  // it ran (partially) before cancelling
}

// --------------------------------------------------- journal -> metrics

TEST(JournalMetricsBridge, TransmitJournalFlattensRuns) {
  mx::RunExecutor pool{{.threads = 2}};
  pool.map("bridge", 11, 6, [](std::size_t i, mx::RunContext&) { return i; });

  maestro::metrics::Server server;
  maestro::metrics::Transmitter tx{server};
  const std::size_t n = tx.transmit_journal(pool.journal());
  EXPECT_EQ(n, 6u);
  const auto execs = server.for_step("exec");
  ASSERT_EQ(execs.size(), 6u);
  for (const auto* r : execs) {
    EXPECT_EQ(r->knobs.at("state"), "completed");
    EXPECT_EQ(r->values.at("cancelled"), 0.0);
    EXPECT_GE(r->values.at("wall_ms"), 0.0);
  }
}

TEST(MetricsServer, ConcurrentSubmitsAreSafe) {
  maestro::metrics::Server server;
  mx::RunExecutor pool{{.threads = 4}};
  pool.map("ingest", 3, 64, [&server](std::size_t i, mx::RunContext&) {
    maestro::metrics::Record rec;
    rec.design = "d" + std::to_string(i % 4);
    rec.step = "flow";
    rec.values["i"] = static_cast<double>(i);
    return server.submit(std::move(rec));
  });
  EXPECT_EQ(server.size(), 64u);
  std::set<std::uint64_t> ids;
  for (const auto& r : server.all()) ids.insert(r.run_id);
  EXPECT_EQ(ids.size(), 64u);  // unique ids under concurrent submission
}
