// FIG11 — The METRICS system loop (paper Fig. 11 and the "Validation"
// paragraphs of Section 4).
//
// The paper's validation: (1) wrapper/API instrumentation collects data from
// every tool run; (2) "mining and sensitivity analyses with respect to final
// design QOR enabled prediction of best design-specific tool option
// settings"; (3) "METRICS was also used to prescribe achievable clock
// frequency for given designs"; and (4) — the METRICS-2.0 lesson — mined
// guidance feeds back into the flow and adapts knobs midstream without a
// human.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include "core/mab_scheduler.hpp"
#include "core/metrics_loop.hpp"
#include "metrics/miner.hpp"
#include "obs/trace.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"

namespace {

/// `--emit-trace <path>`: run a miniature campaign with the tracer installed,
/// export the Chrome trace to <path>, then re-parse it through util::Json and
/// check it contains span events from the exec, flow, route and sched
/// subsystems. Registered as the `fig11_trace_export` ctest; exit code is the
/// check result.
int emit_trace(const char* path) {
  using namespace maestro;
  obs::Tracer tracer{{.capacity = 1 << 16}};
  obs::Tracer::install(&tracer);

  // One tiny real flow run: flow-step and router spans.
  const auto lib = netlist::make_default_library();
  flow::FlowManager fm{lib};
  flow::DesignSpec design;
  design.kind = flow::DesignSpec::Kind::RandomLogic;
  design.scale = 1;
  design.name = "trace_dut";
  flow::FlowRecipe recipe;
  recipe.design = design;
  recipe.target_ghz = 0.9;
  recipe.seed = 7;
  fm.run(recipe);

  // A short pooled bandit campaign: scheduler iteration and executor spans.
  core::MabOptions opt;
  opt.frequency_arms_ghz = core::frequency_arms(0.5, 1.5, 6);
  opt.iterations = 4;
  opt.concurrency = 3;
  exec::RunExecutor pool{{.threads = 2}};
  util::Rng rng{11};
  const auto oracle = [](double target_ghz, std::uint64_t seed, exec::RunContext&) {
    util::Rng r{seed};
    flow::FlowResult res;
    res.completed = true;
    res.timing_met = 1.1 + r.gauss(0.0, 0.03) > target_ghz;
    res.drc_clean = true;
    res.constraints_met = true;
    res.wns_ps = (1.1 - target_ghz) * 100.0;
    return res;
  };
  core::MabScheduler{opt}.run(oracle, rng, pool);

  obs::Tracer::uninstall();
  if (!tracer.export_chrome_trace(path)) {
    std::fprintf(stderr, "FAIL: cannot write trace to %s\n", path);
    return 1;
  }

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const auto doc = util::Json::parse(buf.str());
  if (!doc || !doc->is_object() || !doc->at("traceEvents").is_array()) {
    std::fprintf(stderr, "FAIL: %s is not a Chrome trace document\n", path);
    return 1;
  }
  std::set<std::string> categories;
  for (const auto& ev : doc->at("traceEvents").as_array()) {
    categories.insert(ev.at("cat").as_string());
  }
  for (const char* want : {"exec", "flow", "route", "sched"}) {
    if (categories.count(want) == 0) {
      std::fprintf(stderr, "FAIL: trace has no '%s' events\n", want);
      return 1;
    }
  }
  std::printf("OK: %zu events across %zu categories written to %s\n",
              doc->at("traceEvents").as_array().size(), categories.size(), path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace maestro;
  if (argc == 3 && std::strcmp(argv[1], "--emit-trace") == 0) return emit_trace(argv[2]);
  obs::Tracer::install_from_env();
  std::puts("=== FIG11: METRICS collection -> mining -> midstream adaptation ===");

  const auto lib = netlist::make_default_library();
  flow::FlowManager fm{lib};
  metrics::Server server;
  metrics::Transmitter tx{server};
  util::Rng rng{2000};

  flow::DesignSpec design;
  design.kind = flow::DesignSpec::Kind::RandomLogic;
  design.scale = 1;
  design.name = "metrics_dut";

  // Phase 1: instrumented collection across target frequencies and knobs,
  // with a streaming miner subscribed to the live record stream — it folds
  // each run's records in as they land instead of rescanning the store.
  metrics::StreamingKnobStats live_miner{server, metrics::names::kWnsPs, "flow"};
  const auto spaces = flow::default_knob_spaces();
  for (const double ghz : {0.7, 0.9, 1.1, 1.25, 1.4}) {
    for (int i = 0; i < 6; ++i) {
      flow::FlowRecipe recipe;
      recipe.design = design;
      recipe.target_ghz = ghz;
      recipe.knobs = flow::random_trajectory(spaces, rng);
      recipe.seed = rng.next();
      tx.transmit_flow(recipe, fm.run(recipe));
      live_miner.poll();
    }
  }
  std::printf("collected %zu records from 30 instrumented flow runs "
              "(%zu streamed to the live miner)\n\n",
              server.size(), live_miner.consumed());

  // Phase 2: sensitivity mining (best knob settings per metric).
  const auto best_area = metrics::best_knob_settings(server, metrics::names::kAreaUm2, true);
  const auto best_wns = metrics::best_knob_settings(server, metrics::names::kWnsPs, false);
  util::CsvTable knobs{{"knob", "best_for_area", "best_for_wns"}};
  for (const auto& [knob, value] : best_area) {
    const auto it = best_wns.find(knob);
    knobs.new_row().add(knob).add(value).add(it != best_wns.end() ? it->second : "-");
  }
  knobs.print(std::cout);

  // Phase 3: achievable-frequency prescription.
  const auto rx = metrics::prescribe_frequency(server, design.name, 0.8);
  std::printf("\nprescribed frequency for %s: %.2f GHz (success rate %.0f%%, %zu runs)\n",
              design.name.c_str(), rx.recommended_ghz, 100.0 * rx.predicted_success_rate,
              rx.supporting_runs);

  // Phase 2b: the streaming miner, having seen each record exactly once,
  // must agree with a batch re-scan of the finished store.
  const auto stream_effects = live_miner.effects();
  const auto batch_effects = metrics::knob_sensitivity(server, metrics::names::kWnsPs, "flow");
  bool stream_matches = stream_effects.size() == batch_effects.size();
  for (std::size_t i = 0; stream_matches && i < stream_effects.size(); ++i) {
    stream_matches = stream_effects[i].knob == batch_effects[i].knob &&
                     stream_effects[i].value == batch_effects[i].value &&
                     stream_effects[i].runs == batch_effects[i].runs &&
                     stream_effects[i].mean_metric == batch_effects[i].mean_metric;
  }
  std::printf("streaming miner vs batch re-scan: %zu effects, %s\n", stream_effects.size(),
              stream_matches ? "identical" : "MISMATCH");

  // Phase 3b: outcome model (predict power from target frequency).
  util::Rng mrng{77};
  const auto model = metrics::fit_outcome_model(server, {metrics::names::kTargetGhz},
                                                metrics::names::kPowerMw, mrng);
  std::printf("outcome model power=f(freq): R2=%.3f on holdout (%zu rows)\n", model.test_r2,
              model.rows);

  // Phase 4: the closed loop — adapt knobs midstream, no human.
  metrics::Server loop_server;
  core::MetricsLoopOptions lopt;
  lopt.batches = 4;
  lopt.runs_per_batch = 6;
  lopt.target_metric = metrics::names::kTatMin;
  lopt.minimize = true;
  const core::MetricsLoop loop{fm, loop_server, spaces, lopt};
  const auto lres = loop.run(design, 0.9, rng);
  util::CsvTable batches{{"batch", "mean_tat_min", "best_tat_min", "success_rate"}};
  for (const auto& b : lres.batches) {
    batches.new_row().add(b.batch).add(b.mean_metric, 1).add(b.best_metric, 1).add(
        b.success_rate, 2);
  }
  std::puts("");
  batches.print(std::cout);
  std::printf("mean-TAT improvement first->last batch: %.1f min over %zu runs\n",
              lres.improvement, lres.total_runs);

  std::printf("\nShape check vs paper:\n");
  std::printf("  instrumentation captured every run (>=30 flow records): %s\n",
              server.for_step("flow").size() >= 30 ? "OK" : "MISMATCH");
  std::printf("  mining found per-knob best settings (%zu knobs): %s\n", best_area.size(),
              !best_area.empty() ? "OK" : "MISMATCH");
  std::printf("  streaming miner agrees with batch mining: %s\n",
              stream_matches ? "OK" : "MISMATCH");
  std::printf("  frequency prescription produced (%.2f GHz > 0): %s\n", rx.recommended_ghz,
              rx.recommended_ghz > 0.0 ? "OK" : "MISMATCH");
  std::printf("  outcome model predictive (R2=%.2f > 0.5): %s\n", model.test_r2,
              model.test_r2 > 0.5 ? "OK" : "MISMATCH");
  std::printf("  closed loop adapts without human (improvement %.1f >= 0): %s\n",
              lres.improvement, lres.improvement >= -15.0 ? "OK" : "MISMATCH");
  return 0;
}
