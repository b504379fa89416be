#include "core/robot_engineer.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace maestro::core {

using flow::FlowStep;

namespace {

double knob_as_double(const flow::FlowTrajectory& t, FlowStep step, const std::string& name,
                      double fallback) {
  static const std::string kEmpty;
  const std::string& v = t.value(step, name, kEmpty);
  if (v.empty()) return fallback;
  try {
    return std::stod(v);
  } catch (...) {
    return fallback;
  }
}

std::string fmt(double v, int precision = 2) {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed << v;
  return os.str();
}

}  // namespace

RobotOutcome RobotEngineer::execute(const flow::FlowRecipe& initial,
                                    const flow::FlowConstraints& constraints,
                                    util::Rng& rng) const {
  RobotOutcome out;
  flow::FlowRecipe recipe = initial;

  obs::Span robot_span("robot", "sched");
  robot_span.arg("design", initial.design.name);

  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    obs::Span attempt_span("robot_attempt", "sched");
    attempt_span.arg("attempt", static_cast<double>(attempt))
        .arg("target_ghz", recipe.target_ghz);
    obs::Registry::global().counter("sched.robot_attempts").add();
    recipe.seed = initial.seed + static_cast<std::uint64_t>(attempt) * 7919 + rng.below(1000);
    out.result = manager_->run(recipe, constraints);
    out.attempts = attempt + 1;
    out.total_tat_minutes += out.result.tat_minutes;
    attempt_span.arg("success", out.result.success() ? 1.0 : 0.0);
    if (out.result.success()) {
      out.succeeded = true;
      break;
    }

    // Diagnose and remediate — the expert-system playbook.
    RobotAction action;
    action.attempt = attempt;
    std::ostringstream remedy;

    if (!out.result.completed) {
      action.diagnosis = "flow error at step " + out.result.failed_step;
      remedy << "retry with fresh seed";
    } else if (!out.result.drc_clean) {
      action.diagnosis = "routing: " + fmt(out.result.final_drvs, 0) + " DRVs";
      // Congestion relief: lower utilization, give the router more rounds
      // and iterations.
      const double util = knob_as_double(recipe.knobs, FlowStep::Floorplan, "utilization", 0.70);
      const double new_util = std::max(util - 0.05, 0.50);
      recipe.knobs.set(FlowStep::Floorplan, "utilization", fmt(new_util));
      const double rounds = knob_as_double(recipe.knobs, FlowStep::Route, "rounds", 8);
      recipe.knobs.set(FlowStep::Route, "rounds", fmt(std::min(rounds * 2.0, 32.0), 0));
      const double di = knob_as_double(recipe.knobs, FlowStep::Route, "detail_iterations", 20);
      recipe.knobs.set(FlowStep::Route, "detail_iterations", fmt(std::min(di + 8, 40.0), 0));
      remedy << "utilization " << fmt(util) << " -> " << fmt(new_util)
             << "; route rounds x2; +8 detail iterations";
    } else if (!out.result.timing_met) {
      action.diagnosis = "timing: wns=" + fmt(out.result.wns_ps, 1) + "ps";
      // More optimization effort; if already at high effort, back off target.
      const std::string effort = recipe.knobs.value(FlowStep::Place, "effort", "medium");
      if (effort != "high") {
        recipe.knobs.set(FlowStep::Place, "effort", "high");
        recipe.knobs.set(FlowStep::Synthesis, "effort", "high");
        const double si = knob_as_double(recipe.knobs, FlowStep::Synthesis,
                                         "sizing_iterations", 4);
        recipe.knobs.set(FlowStep::Synthesis, "sizing_iterations",
                         fmt(std::min(si * 2.0, 16.0), 0));
        remedy << "synthesis/place effort -> high; sizing iterations x2";
      } else if (options_.allow_frequency_backoff) {
        const double new_f = std::max(recipe.target_ghz - options_.frequency_backoff_ghz, 0.05);
        remedy << "target " << fmt(recipe.target_ghz) << " -> " << fmt(new_f) << " GHz";
        recipe.target_ghz = new_f;
      } else {
        remedy << "no remedy available (efforts maxed, backoff disabled)";
      }
    } else {
      action.diagnosis = "constraints: area=" + fmt(out.result.area_um2, 0) +
                         "um2 power=" + fmt(out.result.power_mw, 1) + "mW";
      if (options_.allow_frequency_backoff) {
        const double new_f = std::max(recipe.target_ghz - options_.frequency_backoff_ghz, 0.05);
        remedy << "target " << fmt(recipe.target_ghz) << " -> " << fmt(new_f)
               << " GHz (power/area)";
        recipe.target_ghz = new_f;
      } else {
        const double util = knob_as_double(recipe.knobs, FlowStep::Floorplan, "utilization", 0.70);
        recipe.knobs.set(FlowStep::Floorplan, "utilization", fmt(std::min(util + 0.05, 0.85)));
        remedy << "utilization up (area)";
      }
    }
    action.remedy = remedy.str();
    out.journal.push_back(std::move(action));
  }
  out.final_target_ghz = recipe.target_ghz;
  out.final_knobs = recipe.knobs;
  robot_span.arg("attempts", static_cast<double>(out.attempts))
      .arg("succeeded", out.succeeded ? 1.0 : 0.0);
  return out;
}

std::vector<RobotOutcome> RobotEngineer::run_fleet(std::vector<FleetTask> tasks,
                                                   exec::RunExecutor& pool,
                                                   std::uint64_t fleet_seed) const {
  std::vector<std::future<RobotOutcome>> futures;
  futures.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const std::uint64_t task_seed = exec::derive_run_seed(fleet_seed, i);
    std::string label = "robot:" + tasks[i].recipe.design.name;
    exec::CancelToken token = tasks[i].recipe.cancel;
    futures.push_back(pool.submit(
        std::move(label), task_seed,
        [this, task = std::move(tasks[i]), task_seed](exec::RunContext&) {
          util::Rng rng{task_seed};
          return execute(task.recipe, task.constraints, rng);
        },
        {token}));
  }
  std::vector<RobotOutcome> outcomes;
  outcomes.reserve(futures.size());
  std::size_t crashed = 0;
  for (auto& f : futures) {
    try {
      outcomes.push_back(f.get());
    } catch (const std::exception& e) {
      // Partial fleet: one robot died (crash, cancellation, exhausted
      // retries) but the rest of the fleet's outcomes are still delivered.
      // The dead slot reports a failed outcome whose journal records the
      // crash, so callers can distinguish "robot gave up" from "robot died".
      ++crashed;
      obs::Registry::global().counter("sched.robot_crashes").add();
      RobotOutcome dead;
      dead.succeeded = false;
      RobotAction action;
      action.attempt = 0;
      action.diagnosis = std::string("crashed: ") + e.what();
      action.remedy = "none (fleet reports partial results)";
      dead.journal.push_back(std::move(action));
      outcomes.push_back(std::move(dead));
    }
  }
  if (crashed > 0) {
    obs::Registry::global().counter("sched.fleet_partial").add();
  }
  return outcomes;
}

}  // namespace maestro::core
