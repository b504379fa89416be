// perfbench — end-to-end flow and campaign benchmark for maestro.
//
//   perfbench --workload flow_cpu2|sweep_rand1|tune_rent1 --work-dir DIR
//             [--seed N] [--seconds S] [--trace 0|1]
//
// One process runs one workload, so peak RSS is the workload's own. Every
// flow is dispatched through an exec::RunExecutor as a closed loop: the
// caller submits a fixed batch and waits for all of it before submitting
// more, so a slower program receives less load rather than a longer queue.
//
//   flow_cpu2    one RTL->signoff flow of the cpu design at scale 2 at the
//                flow CLI's defaults (0.7 GHz, utilization 0.70, model detail
//                engine) on a 1-worker pool. Global route dominates.
//   sweep_rand1  a Fig. 3 noise study: that recipe on the rand scale-1 design
//                for 200 consecutive flow seeds, all submitted at once to a
//                2-worker pool. Placement and per-flow fixed costs dominate.
//   tune_rent1   a FlowTuner campaign (batch 4, 2 workers) over the default
//                knob space on the rent scale-1 design with the real flow
//                oracle, a fresh RunCache over a fresh RunStore and an
//                attached metrics::Server. The tuner's own work (surrogate
//                refits, selection, memo reads) dominates.
//
// Each repetition sets the workload up and runs its unit of work once: one
// flow, the whole sweep, or the whole campaign. Set-up builds the workload's
// objects and then runs one warm-up flow of a fixed small design, so lazy
// initialisation and allocator growth happen before the unit is timed.
//
// --trace 0 repeats units until --seconds have passed (and at least one full
// seed cycle plus one repeat), cycling through a fixed list of seeds derived
// from --seed, and times kSetupsPerUnit set-ups in-process before each unit.
// It reports end-to-end metrics as the mean over the seeds of each seed's
// median, so every run weighs the same seeds equally however fast the
// program is.
// --trace 1 repeats pairs of units of the run's seed until --seconds have
// passed, one untraced and one traced. In the traced unit every flow step is
// called through the public flow::run_* functions with the ToolContext
// FlowManager builds, and the program's obs::Tracer is installed to split
// global from detailed route. It reports per-layer metrics (obs::Registry
// counter deltas as counts) and prints a per-layer wall-clock attribution
// table of the first traced unit.
//
// Outputs are checked: flows must complete, two units of one seed must agree
// bitwise (flow results field for field, the campaign's best score, choice
// and distinct-run count, and in traced runs every exact per-layer value),
// and the traced flows must reproduce FlowManager::run. A failed check counts
// the unit's operations as failed. The last line of standard output is
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/executor.hpp"
#include "flow/flow.hpp"
#include "metrics/server.hpp"
#include "netlist/cell_library.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "store/run_cache.hpp"
#include "store/run_store.hpp"
#include "tune/flow_tuner.hpp"

namespace fs = std::filesystem;
using namespace maestro;

namespace {

using Clock = std::chrono::steady_clock;

// Fixed sizes of each workload's unit of work. Changing any of them changes
// the benchmark, so its baseline must be measured again.
constexpr std::size_t kSweepFlows = 200;
constexpr std::size_t kSweepWorkers = 2;
constexpr std::size_t kTuneRounds = 300;
constexpr std::size_t kTuneBatch = 4;
constexpr std::size_t kTuneWorkers = 2;
/// Every workload implements one fixed netlist per design family (the
/// generator's rtl_seed); --seed drives the flow and campaign seeds. Other
/// netlists are other workloads: on rent1 netlists where (nearly) every knob
/// setting passes or fails timing at 0.7 GHz the tuning objective is flat and
/// a campaign keeps exploring (up to 1000+ distinct flows instead of ~30), and
/// the netlist moves a sweep's mean fmax by several percent.
constexpr std::uint64_t kRtlSeed = 1;
/// Set-up is timed this many times before each unit of an end-to-end run,
/// so its samples spread over the whole run (see setup_s in end_to_end).
constexpr std::size_t kSetupsPerUnit = 3;
/// Flow seed of the warm-up flow that ends every set-up. It is fixed, so
/// every run's set-up does the same work.
constexpr std::uint64_t kWarmupSeed = 0;

constexpr std::array<flow::FlowStep, flow::kFlowStepCount> kSteps = {
    flow::FlowStep::Synthesis, flow::FlowStep::Floorplan, flow::FlowStep::Place,
    flow::FlowStep::Cts,       flow::FlowStep::Route,     flow::FlowStep::Signoff};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Restarts the process's peak-RSS mark (Linux clear_refs), so the next
/// peak_rss_mb() is the peak of what runs after this call. Where the kernel
/// refuses, the peak stays the whole process's.
void reset_peak_rss() {
  // Hand freed heap back first, so the mark starts from live memory rather
  // than from whatever earlier repetitions left in the allocator's arenas.
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Peak RSS of this process (since the last reset_peak_rss) in MiB.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1.0;
    while (std::fgets(line, sizeof line, f) && std::sscanf(line, "VmHWM: %lf kB", &kib) != 1) {
    }
    std::fclose(f);
    if (kib > 0) return kib / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Linearly interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Mean of the samples left after dropping the lowest and highest tenth.
double trimmed_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 10;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return v.size() > 2 * cut ? sum / static_cast<double>(v.size() - 2 * cut) : 0.0;
}

using Counts = std::map<std::string, double>;

Counts counter_values() {
  Counts out;
  for (const auto& c : obs::Registry::global().snapshot().counters) {
    out[c.name] = static_cast<double>(c.value);
  }
  return out;
}

double delta(const Counts& before, const Counts& after, const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) - (b == before.end() ? 0.0 : b->second);
}

/// Registry counters reported as their delta over a traced unit.
const std::vector<std::string> kCountedLayers = {
    "route.maze_expansions", "route.ripup_segments",
    "place.moves_accepted",  "place.incr_deltas",    "timing.full_props",
    "exec.runs_completed",   "exec.runs_failed",     "exec.cache_hits",
    "exec.inflight_joins",   "store.cache_hit",      "store.cache_miss",
    "store.wal_appends",     "store.fsyncs",         "tune.refits",
    "tune.trajectories",     "tune.mined_rows",      "metrics.ingest_dropped"};

/// The flow CLI's default target clock, used by every workload.
constexpr double kTargetGhz = 0.7;

/// Each MazeArena (one per routing thread) flushes this counter in batches of
/// route::MazeArena::kExpansionFlush, so a unit's delta lags the true count by
/// less than that per worker thread and is exact only on a single worker.
const std::string kBatchedCount = "route.maze_expansions";

/// A flow recipe at the flow CLI's defaults.
flow::FlowRecipe cli_recipe(flow::DesignSpec::Kind kind, std::size_t scale,
                            const std::string& name, std::uint64_t flow_seed) {
  flow::FlowRecipe recipe;
  recipe.design.kind = kind;
  recipe.design.scale = scale;
  recipe.design.name = name;
  recipe.design.rtl_seed = kRtlSeed;
  recipe.target_ghz = kTargetGhz;
  recipe.seed = flow_seed;
  recipe.knobs.set(flow::FlowStep::Floorplan, "utilization", "0.70");
  recipe.knobs.set(flow::FlowStep::Route, "detail_engine", "model");
  return recipe;
}

// ------------------------------------------------------------------ tracing

/// When each flow call and each step inside it ran, from any worker thread.
class Timeline {
 public:
  static constexpr std::size_t kFlowLane = kSteps.size();  ///< whole flow calls
  /// Attribution buckets: one per step, then "inside a flow call but between
  /// steps", then "no flow call running".
  static constexpr std::size_t kBetweenSteps = kFlowLane;
  static constexpr std::size_t kNoFlow = kFlowLane + 1;
  using Shares = std::array<double, kNoFlow + 1>;

  void add(std::size_t lane, Clock::time_point begin, Clock::time_point end) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({lane, begin, end});
  }
  /// Exact per-flow counts read from the design state (summed).
  void count(const std::string& name, double v) {
    const std::lock_guard<std::mutex> lock(mu_);
    counts_[name] += v;
  }
  double counted(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
  }

  /// Summed duration of one lane's intervals (busy time across workers).
  double busy_s(std::size_t lane) const {
    const std::lock_guard<std::mutex> lock(mu_);
    double total = 0.0;
    for (const auto& s : spans_) {
      if (s.lane == lane) total += seconds_between(s.begin, s.end);
    }
    return total;
  }

  /// Splits [begin, end) of wall-clock time: each instant goes in equal parts
  /// to the steps running at it; instants with no step running go to
  /// kBetweenSteps if a flow call is running, else to kNoFlow. The shares
  /// sum to end - begin.
  Shares attribute(Clock::time_point begin, Clock::time_point end) const {
    std::vector<std::pair<Clock::time_point, std::pair<std::size_t, int>>> events;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      for (const auto& s : spans_) {
        events.push_back({std::clamp(s.begin, begin, end), {s.lane, +1}});
        events.push_back({std::clamp(s.end, begin, end), {s.lane, -1}});
      }
    }
    events.push_back({begin, {0, 0}});
    events.push_back({end, {0, 0}});
    std::sort(events.begin(), events.end());
    Shares shares{};
    std::array<int, kFlowLane + 1> active{};
    for (std::size_t i = 0; i + 1 < events.size(); ++i) {
      active[events[i].second.first] += events[i].second.second;
      const double dt = seconds_between(events[i].first, events[i + 1].first);
      int steps = 0;
      for (std::size_t l = 0; l < kFlowLane; ++l) steps += active[l];
      if (steps > 0) {
        for (std::size_t l = 0; l < kFlowLane; ++l) shares[l] += dt * active[l] / steps;
      } else {
        shares[active[kFlowLane] > 0 ? kBetweenSteps : kNoFlow] += dt;
      }
    }
    return shares;
  }

 private:
  struct Span {
    std::size_t lane;
    Clock::time_point begin, end;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, double> counts_;
};

/// FlowManager::run_keep_state, one public tool call at a time with the same
/// per-step ToolContext, logging each step's interval. Traced runs compare its
/// result_digest() with FlowManager::run's, so the two must agree field for
/// field.
flow::FlowResult run_stepwise(const netlist::CellLibrary& lib, const flow::FlowRecipe& recipe,
                              const flow::FlowConstraints& constraints, Timeline& tl) {
  flow::FlowResult res;
  flow::DesignState state;
  state.lib = &lib;
  for (const flow::FlowStep step : kSteps) {
    if (recipe.cancel.cancelled()) {
      res.failed_step = "cancelled";
      return res;
    }
    flow::ToolContext ctx;
    ctx.target_ghz = recipe.target_ghz;
    if (const auto it = recipe.knobs.settings.find(step); it != recipe.knobs.settings.end()) {
      ctx.knobs = it->second;
    }
    ctx.seed = recipe.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(step) + 1;
    if (step == flow::FlowStep::Route) ctx.route_monitor = recipe.route_monitor;
    ctx.cancel = recipe.cancel;

    const auto t0 = Clock::now();
    flow::StepOutcome outcome;
    switch (step) {
      case flow::FlowStep::Synthesis: outcome = flow::run_synthesis(state, recipe.design, ctx); break;
      case flow::FlowStep::Floorplan: outcome = flow::run_floorplan(state, ctx); break;
      case flow::FlowStep::Place: outcome = flow::run_place(state, ctx); break;
      case flow::FlowStep::Cts: outcome = flow::run_cts(state, ctx); break;
      case flow::FlowStep::Route: outcome = flow::run_route(state, ctx); break;
      case flow::FlowStep::Signoff: outcome = flow::run_signoff(state, ctx); break;
    }
    tl.add(static_cast<std::size_t>(step), t0, Clock::now());
    res.tat_minutes += outcome.runtime_min;
    res.logs.push_back(std::move(outcome.log));
    if (!outcome.ok) {
      res.failed_step = flow::to_string(step);
      return res;
    }
  }
  res.completed = true;
  res.area_um2 = state.nl->total_area_um2();
  res.wns_ps = state.signoff.wns_ps;
  res.whs_ps = state.signoff.whs_ps;
  res.tns_ps = state.signoff.tns_ps;
  res.power_mw = state.pwr.total_mw();
  res.final_drvs = state.droute.drvs.empty() ? 0.0 : state.droute.drvs.back();
  res.route_difficulty = state.droute.difficulty;
  res.hpwl_dbu = static_cast<double>(state.pl->total_hpwl());
  res.clock_skew_ps = state.clock.skew_ps();
  res.ir_drop_v = state.ir.worst_drop_v;
  res.timing_met = res.wns_ps >= 0.0;
  res.drc_clean = res.final_drvs < constraints.max_drvs;
  res.constraints_met =
      res.area_um2 <= constraints.max_area_um2 && res.power_mw <= constraints.max_power_mw;
  tl.count("route.gr_overflow", state.groute.total_overflow);
  // The route.droute_iterations registry counter ticks only in the track
  // engine; the model engine's iterations are read from its DRV series.
  tl.count("route.droute_iterations", static_cast<double>(state.droute.drvs.size()));
  return res;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string full(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Fingerprint of every FlowResult field, logs included. Numbers enter at 17
/// significant digits, which round-trips a double, so equal digests mean a
/// bitwise field-for-field match.
std::uint64_t result_digest(const flow::FlowResult& r) {
  std::string text = std::to_string(r.completed) + std::to_string(r.timing_met) +
                     std::to_string(r.drc_clean) + std::to_string(r.constraints_met) + "|" +
                     r.failed_step;
  for (const double v : {r.area_um2, r.wns_ps, r.whs_ps, r.tns_ps, r.power_mw, r.final_drvs,
                         r.route_difficulty, r.hpwl_dbu, r.clock_skew_ps, r.ir_drop_v,
                         r.tat_minutes}) {
    text += "|" + full(v);
  }
  for (const auto& log : r.logs) text += "|" + log.to_json().dump();
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const unsigned char c : text) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

/// The QoR the benchmark reports for a flow result, or the mean over several.
/// fmax is the clock the design achieves, 1 / (target period - WNS): unlike
/// WNS it is positive on every workload, so a relative bound applies to it.
struct Qor {
  double fmax_ghz = 0.0;
  double hpwl_dbu = 0.0;
  double final_drvs = 0.0;
  double wns_ps = 0.0;
  double success_share = 0.0;
  double score = 0.0;  ///< tune::default_objective
};

Qor qor_of(const flow::FlowResult& r) {
  return {1000.0 / (1000.0 / kTargetGhz - r.wns_ps), r.hpwl_dbu, r.final_drvs, r.wns_ps,
          r.success() ? 1.0 : 0.0, tune::default_objective(r)};
}

// ---------------------------------------------------------------- workloads

/// What one execution of a workload's unit of work produced. Results are kept
/// as digests and QoR only, so memory retained between repetitions stays small.
struct Unit {
  Clock::time_point begin, end;
  double cpu_s = 0.0;
  std::size_t attempted = 0;  ///< flow dispatches, memo reads included
  std::size_t failed = 0;     ///< executed flows that did not complete
  /// Per executed flow, keyed by flow seed so the order does not depend on
  /// which worker finished first.
  std::map<std::uint64_t, std::uint64_t> digests;
  std::map<std::uint64_t, Qor> qor;
  std::vector<double> flow_latency_s;  ///< executed flows only
  /// Deterministic outputs beyond the flow results, at full precision.
  std::string signature;
  double best_score = 0.0;  ///< best tune::default_objective of the unit
  /// A campaign hands back only its best run; a flow or sweep every flow.
  bool best_only = false;
  double queue_wait_p50_ms = 0.0;
  std::size_t workers = 1;
  std::map<std::string, double> layer_values;  ///< workload-specific layer metrics

  double wall_s() const { return seconds_between(begin, end); }

  void record(std::uint64_t seed, const flow::FlowResult& r) {
    digests[seed] = result_digest(r);
    qor[seed] = qor_of(r);
    if (!r.completed) ++failed;
  }
};

/// QoR of the designs a unit hands back to its user, averaged; nullopt if it
/// handed back none.
std::optional<Qor> delivered_qor(const Unit& u) {
  std::vector<Qor> designs;
  for (const auto& [seed, q] : u.qor) {
    if (!u.best_only) designs.push_back(q);
    else if (same_bits(q.score, u.best_score)) designs = {q};
  }
  if (designs.empty()) return std::nullopt;
  Qor mean;
  for (const Qor& q : designs) {
    mean.fmax_ghz += q.fmax_ghz;
    mean.hpwl_dbu += q.hpwl_dbu;
    mean.final_drvs += q.final_drvs;
    mean.wns_ps += q.wns_ps;
    mean.success_share += q.success_share;
    mean.score += q.score;
  }
  const double n = static_cast<double>(designs.size());
  for (double* v : {&mean.fmax_ghz, &mean.hpwl_dbu, &mean.final_drvs, &mean.wns_ps,
                    &mean.success_share, &mean.score}) {
    *v /= n;
  }
  return mean;
}

/// Median queue wait of the pool's runs that started (memo reads never do).
double started_queue_wait_p50_ms(const exec::RunJournal& journal) {
  std::vector<double> waits;
  for (const auto& rec : journal.snapshot()) {
    if (rec.start_ms > 0.0) waits.push_back(rec.queue_wait_ms());
  }
  return median(std::move(waits));
}

/// Built by the constructor and warm_up() (together the timed set-up); run()
/// does the unit of work once, either through FlowManager::run or, with a
/// Timeline, stepwise.
class Workload {
 public:
  Workload() : lib_(netlist::make_default_library()), manager_(lib_) {}
  virtual ~Workload() = default;
  virtual Unit run(Timeline* tl) = 0;

  /// Runs the warm-up flow (rand1, fixed seed) on the calling thread; false
  /// if it did not complete.
  bool warm_up() {
    return manager_
        .run(cli_recipe(flow::DesignSpec::Kind::RandomLogic, 1, "rand1", kWarmupSeed))
        .completed;
  }

 protected:
  netlist::CellLibrary lib_;
  flow::FlowManager manager_;
};

/// A batch of flows of one design submitted at once to a closed pool:
/// flow_cpu2 is one flow on one worker, sweep_rand1 200 flow seeds on two.
class FlowBatch final : public Workload {
 public:
  FlowBatch(flow::DesignSpec::Kind kind, std::size_t scale, const std::string& name,
            const std::vector<std::uint64_t>& flow_seeds, std::size_t workers)
      : pool_(exec::ExecOptions{.threads = workers, .licenses = workers}) {
    for (const std::uint64_t seed : flow_seeds) {
      recipes_.push_back(cli_recipe(kind, scale, name, seed));
    }
  }

  Unit run(Timeline* tl) override {
    Unit u;
    u.workers = pool_.threads();
    std::mutex mu;
    std::vector<std::future<flow::FlowResult>> futures;
    futures.reserve(recipes_.size());
    u.begin = Clock::now();
    const double c0 = cpu_seconds();
    for (const auto& recipe : recipes_) {
      futures.push_back(pool_.submit(recipe.design.name, recipe.seed, [&](exec::RunContext&) {
        const auto t0 = Clock::now();
        flow::FlowResult r = tl ? run_stepwise(lib_, recipe, {}, *tl) : manager_.run(recipe);
        const auto t1 = Clock::now();
        if (tl) tl->add(Timeline::kFlowLane, t0, t1);
        const std::lock_guard<std::mutex> lock(mu);
        u.flow_latency_s.push_back(seconds_between(t0, t1));
        return r;
      }));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const flow::FlowResult r = futures[i].get();
      ++u.attempted;
      u.record(recipes_[i].seed, r);
      u.best_score = std::max(u.best_score, tune::default_objective(r));
    }
    u.cpu_s = cpu_seconds() - c0;
    u.end = Clock::now();
    u.queue_wait_p50_ms = started_queue_wait_p50_ms(pool_.journal());
    return u;
  }

 private:
  std::vector<flow::FlowRecipe> recipes_;
  exec::RunExecutor pool_;
};

/// Removes a directory tree when destroyed; declared before the objects that
/// write into it so it outlives them.
class ScratchDir {
 public:
  explicit ScratchDir(fs::path p) : path_(std::move(p)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

tune::TuneOptions tune_options(store::FlowCache& cache, metrics::Server& server) {
  tune::TuneOptions opt;
  opt.design = "rent1";
  opt.rounds = kTuneRounds;
  opt.batch = kTuneBatch;
  opt.cache = &cache;
  opt.metrics = &server;
  return opt;
}

store::RunStoreOptions store_options() {
  store::RunStoreOptions opt;
  opt.shards = 8;
  opt.fsync = store::FsyncMode::Batch;
  return opt;
}

class TuneRent1 final : public Workload {
 public:
  TuneRent1(std::uint64_t seed, const fs::path& dir)
      : seed_(seed),
        dir_(dir),
        design_(cli_recipe(flow::DesignSpec::Kind::Rent, 1, "rent1", seed).design),
        store_(dir_.path().string(), store_options()),
        cache_(store_),
        server_(metrics::ServerOptions{}),
        tuner_(tune_options(cache_, server_)),
        pool_(exec::ExecOptions{.threads = kTuneWorkers, .licenses = kTuneWorkers}) {}

  Unit run(Timeline* tl) override {
    Unit u;
    u.workers = kTuneWorkers;
    const tune::TuneOracle real =
        tune::make_flow_tune_oracle(manager_, design_, kTargetGhz, flow::FlowConstraints{});
    std::mutex mu;
    const tune::TuneOracle oracle = [&](const flow::FlowTrajectory& knobs, std::uint64_t seed) {
      const auto t0 = Clock::now();
      flow::FlowResult r;
      if (tl) {
        flow::FlowRecipe recipe;
        recipe.design = design_;
        recipe.target_ghz = kTargetGhz;
        recipe.knobs = knobs;
        recipe.seed = seed;
        r = run_stepwise(lib_, recipe, {}, *tl);
      } else {
        r = real(knobs, seed);
      }
      const auto t1 = Clock::now();
      if (tl) tl->add(Timeline::kFlowLane, t0, t1);
      const std::lock_guard<std::mutex> lock(mu);
      u.flow_latency_s.push_back(seconds_between(t0, t1));
      u.record(seed, r);
      return r;
    };
    util::Rng rng{seed_};
    u.begin = Clock::now();
    const double c0 = cpu_seconds();
    const tune::TuneResult res = tuner_.run(oracle, rng, pool_);
    u.cpu_s = cpu_seconds() - c0;
    u.end = Clock::now();

    u.attempted = res.total_runs;
    u.best_score = res.best_score;
    u.best_only = true;
    u.signature = "best " + full(res.best_score) + " distinct " +
                  std::to_string(res.distinct_runs) + " runs " + std::to_string(res.total_runs) +
                  " choice";
    for (const std::size_t c : res.best_choice) u.signature += " " + std::to_string(c);
    u.queue_wait_p50_ms = started_queue_wait_p50_ms(pool_.journal());
    const double dispatched = static_cast<double>(res.total_runs);
    const double executed = static_cast<double>(u.flow_latency_s.size());
    u.layer_values["tune.distinct_runs"] = static_cast<double>(res.distinct_runs);
    u.layer_values["tune.memo_share"] =
        dispatched > 0 ? (dispatched - executed) / dispatched : 0.0;
    u.layer_values["metrics.records"] = static_cast<double>(server_.size());
    return u;
  }

 private:
  std::uint64_t seed_;
  ScratchDir dir_;
  flow::DesignSpec design_;
  store::RunStore store_;
  store::RunCache cache_;
  metrics::Server server_;
  tune::FlowTuner tuner_;
  exec::RunExecutor pool_;
};

// ------------------------------------------------------------------ harness

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  fs::path work_dir;
};

std::unique_ptr<Workload> make_workload(const Options& opt, std::uint64_t seed,
                                        std::size_t instance) {
  using Kind = flow::DesignSpec::Kind;
  if (opt.workload == "flow_cpu2") {
    return std::make_unique<FlowBatch>(Kind::CpuLike, 2, "cpu2", std::vector{seed}, 1);
  }
  if (opt.workload == "sweep_rand1") {
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < kSweepFlows; ++i) seeds.push_back(seed * 1000 + i);
    return std::make_unique<FlowBatch>(Kind::RandomLogic, 1, "rand1", seeds, kSweepWorkers);
  }
  const fs::path dir = opt.work_dir / ("store-" + std::to_string(::getpid()) + "-" +
                                       std::to_string(instance));
  return std::make_unique<TuneRent1>(seed, dir);
}

/// Seeds in an end-to-end run's cycle: repetition k uses seed slot k % n.
/// The metrics average over the slots, so more slots average out more of the
/// seed-to-seed cost (a campaign's varies by about a quarter, a cpu2 flow's
/// route by more); the cycle plus one repeat must still fit in a run.
std::size_t seed_slots(const std::string& workload) {
  if (workload == "flow_cpu2") return 5;
  if (workload == "sweep_rand1") return 4;
  return 12;
}

/// Seed of slot `i`: the run's own seed, then seeds derived from it.
std::uint64_t slot_seed(std::uint64_t seed, std::size_t i) {
  return i == 0 ? seed : exec::derive_run_seed(seed, i);
}

/// The outputs two runs of one seed must agree on, bitwise.
bool same_outputs(const Unit& a, const Unit& b) {
  return a.signature == b.signature && same_bits(a.best_score, b.best_score) &&
         a.digests == b.digests;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
};

/// Adds `u`'s operations to the report; all of them fail if it delivered no
/// design or its outputs differ from `reference` (a unit of the same seed).
void account(const Unit& u, const Unit* reference, Report& rep) {
  rep.attempted += u.attempted;
  if (!delivered_qor(u)) {
    std::fprintf(stderr, "perfbench: the unit delivered no design\n");
    rep.failed += u.attempted;
  } else if (reference && !same_outputs(u, *reference)) {
    std::fprintf(stderr, "perfbench: outputs differ between units of one seed\n");
    rep.failed += u.attempted;
  } else {
    rep.failed += u.failed;
  }
}

/// Sets a workload up: builds it and runs its warm-up flow, which counts as
/// one operation.
std::unique_ptr<Workload> set_up(const Options& opt, std::uint64_t seed, std::size_t instance,
                                 Report& rep) {
  auto w = make_workload(opt, seed, instance);
  ++rep.attempted;
  if (!w->warm_up()) {
    std::fprintf(stderr, "perfbench: the warm-up flow did not complete\n");
    ++rep.failed;
  }
  return w;
}

/// The repetitions of one seed slot of an end-to-end run.
struct Slot {
  std::unique_ptr<Unit> first;  ///< its first repetition; later ones must match it
  std::vector<double> wall_s, cpu_s, rss_mb, latency_s;
};

Report end_to_end(const Options& opt) {
  Report rep;
  std::size_t instance = 0;
  std::vector<double> setup_samples;
  std::vector<Slot> slots(seed_slots(opt.workload));
  const auto start = Clock::now();
  for (std::size_t k = 0;
       k <= slots.size() || seconds_between(start, Clock::now()) < opt.seconds; ++k) {
    Slot& slot = slots[k % slots.size()];
    std::unique_ptr<Workload> w;
    for (std::size_t i = 0; i < kSetupsPerUnit; ++i) {
      w.reset();  // tearing down is not timed
      const auto t0 = Clock::now();
      w = set_up(opt, slot_seed(opt.seed, k % slots.size()), instance++, rep);
      setup_samples.push_back(seconds_between(t0, Clock::now()));
    }
    reset_peak_rss();
    Unit u = w->run(nullptr);
    slot.rss_mb.push_back(peak_rss_mb());
    std::fprintf(stderr,
                 "perfbench: %s repetition %zu: wall %.6f s, cpu %.6f s, peak rss %.3f MB, "
                 "flow p50 %.6f s over %zu flows\n",
                 opt.workload.c_str(), k, u.wall_s(), u.cpu_s, slot.rss_mb.back(),
                 quantile(u.flow_latency_s, 0.5), u.flow_latency_s.size());
    account(u, slot.first.get(), rep);
    slot.wall_s.push_back(u.wall_s());
    slot.cpu_s.push_back(u.cpu_s);
    slot.latency_s.insert(slot.latency_s.end(), u.flow_latency_s.begin(), u.flow_latency_s.end());
    if (!slot.first) slot.first = std::make_unique<Unit>(std::move(u));
  }

  // Every slot weighs the same, so the seed mix does not depend on speed.
  const auto slot_mean = [&](const auto& value) {
    double sum = 0.0;
    for (const Slot& s : slots) sum += value(s);
    return sum / static_cast<double>(slots.size());
  };
  double flows = 0.0;
  for (const Slot& s : slots) flows += static_cast<double>(s.first->attempted);
  const auto qor = [](const Slot& s) { return delivered_qor(*s.first).value_or(Qor{}); };
  const double turnaround_s = slot_mean([](const Slot& s) { return median(s.wall_s); });
  // On a shared 4-vCPU VM the same set-up runs in a fast or a slow mode
  // (about 30 vs 43 ms) that switches every second or so, so the median of
  // samples from a short stretch lands in one mode. The samples span the whole
  // run, and their trimmed mean weighs the modes by the time spent in each.
  const double setup_s = trimmed_mean(setup_samples);
  std::fprintf(stderr,
               "perfbench: set-up over %zu samples: min %.6f s, median %.6f s, max %.6f s\n",
               setup_samples.size(), quantile(setup_samples, 0.0), median(setup_samples),
               quantile(setup_samples, 1.0));
  rep.metrics = {
      {"setup_s", setup_s, "s"},
      {"turnaround_s", turnaround_s, "s"},
      {"cpu_s", slot_mean([](const Slot& s) { return median(s.cpu_s); }), "s"},
      {"peak_rss_mb", slot_mean([](const Slot& s) { return median(s.rss_mb); }), "MB"},
      {"flows_per_s", flows / (turnaround_s * static_cast<double>(slots.size())), "1/s"},
      {"flow_p50_s", slot_mean([](const Slot& s) { return quantile(s.latency_s, 0.5); }), "s"},
      {"qor_fmax_ghz", slot_mean([&](const Slot& s) { return qor(s).fmax_ghz; }), "GHz"},
      {"qor_hpwl_dbu", slot_mean([&](const Slot& s) { return qor(s).hpwl_dbu; }), "dbu"},
  };
  return rep;
}

/// Per-layer attribution table of one traced unit.
std::string layer_table(const Options& opt, const Unit& u, const Timeline& tl,
                        const Timeline::Shares& shares, double global_s, double detail_s) {
  std::string out = "per-layer wall-clock attribution, " + opt.workload + " seed " +
                    std::to_string(opt.seed) + ", " + std::to_string(u.workers) +
                    " worker(s), turnaround " + full(u.wall_s()) + " s\n";
  char line[160];
  std::snprintf(line, sizeof line, "  %-26s %12s %8s %12s\n", "layer", "wall_s", "share",
                "busy_s");
  out += line;
  const double wall = u.wall_s();
  const auto row = [&](const std::string& name, double w, double busy) {
    std::snprintf(line, sizeof line, "  %-26s %12.6f %7.2f%% %12.6f\n", name.c_str(), w,
                  wall > 0 ? 100.0 * w / wall : 0.0, busy);
    out += line;
  };
  for (std::size_t i = 0; i < kSteps.size(); ++i) {
    const std::string layer = kSteps[i] == flow::FlowStep::Synthesis ? "netlist (synthesis)"
                              : kSteps[i] == flow::FlowStep::Cts     ? "timing/power (cts)"
                              : kSteps[i] == flow::FlowStep::Signoff ? "timing/power (signoff)"
                                                                     : flow::to_string(kSteps[i]);
    row(layer, shares[i], tl.busy_s(i));
    if (kSteps[i] == flow::FlowStep::Route && global_s + detail_s > 0) {
      const double w = shares[i];
      row("  route: global_route", w * global_s / (global_s + detail_s), global_s);
      row("  route: detail_route", w * detail_s / (global_s + detail_s), detail_s);
    }
  }
  row("flow (between steps)", shares[Timeline::kBetweenSteps], 0.0);
  row(opt.workload == "tune_rent1" ? "tune/ml/store/metrics/exec" : "harness (unattributed)",
      shares[Timeline::kNoFlow], shares[Timeline::kNoFlow]);
  return out;
}

/// A per-layer metric. Timed ones are reported as the median over a run's
/// traced units; the others are exact and must repeat in every traced unit of
/// the run's seed.
struct LayerMetric {
  std::string name;
  std::string unit;
  bool timed;
};

std::vector<LayerMetric> layer_metrics() {
  std::vector<LayerMetric> out;
  for (const flow::FlowStep step : kSteps) {
    out.push_back({std::string(flow::to_string(step)) + ".wall_s", "s", true});
  }
  for (const char* name : {"route.global_wall_s", "route.detail_wall_s", "tune.self_s"}) {
    out.push_back({name, "s", true});
  }
  out.push_back({"exec.queue_wait_p50_ms", "ms", true});
  out.push_back({"obs.attributed_share", "ratio", true});
  for (const char* name :
       {"route.gr_overflow", "route.droute_iterations", "tune.distinct_runs", "metrics.records"}) {
    out.push_back({name, "count", false});
  }
  out.push_back({"tune.memo_share", "ratio", false});
  for (const auto& name : kCountedLayers) out.push_back({name, "count", false});
  out.push_back({"qor.final_drvs", "count", false});
  out.push_back({"qor.wns_ps", "ps", false});
  out.push_back({"qor.success_share", "ratio", false});
  out.push_back({"qor.best_score", "score", false});
  out.push_back({"qor.hpwl_dbu", "dbu", false});
  return out;
}

/// Runs one traced unit and returns its per-layer values; `table` receives its
/// attribution table.
std::map<std::string, double> traced_layers(const Options& opt, const Unit& plain, Report& rep,
                                            Unit& traced, std::string& table) {
  const auto w = set_up(opt, opt.seed, 0, rep);
  Timeline tl;
  obs::Tracer tracer(obs::TracerOptions{.capacity = std::size_t{1} << 20});
  const Counts before = counter_values();
  obs::Tracer::install(&tracer);
  traced = w->run(&tl);
  obs::Tracer::uninstall();
  const Counts after = counter_values();

  // The stepwise flows must reproduce FlowManager::run.
  account(traced, &plain, rep);
  if (tracer.dropped() > 0) {
    std::fprintf(stderr, "perfbench: trace ring overflowed\n");
    rep.failed += traced.attempted;
  }

  double global_s = 0.0, detail_s = 0.0;
  for (const auto& ev : tracer.snapshot()) {
    if (ev.name == "global_route") global_s += ev.dur_us * 1e-6;
    if (ev.name == "detail_route") detail_s += ev.dur_us * 1e-6;
  }
  const Timeline::Shares shares = tl.attribute(traced.begin, traced.end);
  table = layer_table(opt, traced, tl, shares, global_s, detail_s);

  // With no flow running, a campaign is in the tuner (tune/ml/store/metrics/
  // exec); elsewhere it is the harness, which is left unattributed.
  const bool tuner = opt.workload == "tune_rent1";
  const double tune_self_s = tuner ? shares[Timeline::kNoFlow] : 0.0;
  std::map<std::string, double> m;
  double named = tune_self_s;
  for (std::size_t i = 0; i < kSteps.size(); ++i) {
    m[std::string(flow::to_string(kSteps[i])) + ".wall_s"] = tl.busy_s(i);
    named += shares[i];
  }
  m["route.global_wall_s"] = global_s;
  m["route.detail_wall_s"] = detail_s;
  m["tune.self_s"] = tune_self_s;
  m["exec.queue_wait_p50_ms"] = traced.queue_wait_p50_ms;
  m["obs.attributed_share"] = named / traced.wall_s();
  m["route.gr_overflow"] = tl.counted("route.gr_overflow");
  m["route.droute_iterations"] = tl.counted("route.droute_iterations");
  for (const auto& name : kCountedLayers) m[name] = delta(before, after, name);
  for (const char* name : {"tune.distinct_runs", "tune.memo_share", "metrics.records"}) {
    const auto it = traced.layer_values.find(name);
    m[name] = it == traced.layer_values.end() ? 0.0 : it->second;
  }
  const Qor q = delivered_qor(traced).value_or(Qor{});
  m["qor.final_drvs"] = q.final_drvs;
  m["qor.wns_ps"] = q.wns_ps;
  m["qor.success_share"] = q.success_share;
  m["qor.best_score"] = traced.best_score;
  m["qor.hpwl_dbu"] = q.hpwl_dbu;
  return m;
}

Report per_layer(const Options& opt, std::string& table) {
  Report rep;
  const std::vector<LayerMetric> metrics = layer_metrics();
  std::vector<double> untraced_s, traced_s, latency_s;
  std::vector<std::map<std::string, double>> runs;
  std::unique_ptr<Unit> first_plain;
  const auto start = Clock::now();
  while (runs.empty() || seconds_between(start, Clock::now()) < opt.seconds) {
    Unit plain = set_up(opt, opt.seed, 0, rep)->run(nullptr);
    account(plain, first_plain.get(), rep);
    Unit traced;
    std::string unit_table;
    auto m = traced_layers(opt, plain, rep, traced, unit_table);
    if (runs.empty()) table = unit_table;
    for (const LayerMetric& lm : metrics) {
      if (lm.timed || lm.name == kBatchedCount || runs.empty() ||
          same_bits(m[lm.name], runs.front()[lm.name])) {
        continue;
      }
      std::fprintf(stderr, "perfbench: %s differs between units of one seed (%s vs %s)\n",
                   lm.name.c_str(), full(m[lm.name]).c_str(),
                   full(runs.front()[lm.name]).c_str());
      rep.failed += traced.attempted;
    }
    untraced_s.push_back(plain.wall_s());
    traced_s.push_back(traced.wall_s());
    latency_s.insert(latency_s.end(), plain.flow_latency_s.begin(), plain.flow_latency_s.end());
    runs.push_back(std::move(m));
    if (!first_plain) first_plain = std::make_unique<Unit>(std::move(plain));
  }

  for (const LayerMetric& lm : metrics) {
    std::vector<double> v;
    for (const auto& m : runs) v.push_back(m.at(lm.name));
    rep.metrics.push_back({lm.name, lm.timed ? median(v) : v.front(), lm.unit});
  }
  rep.metrics.push_back({"obs.trace_overhead_s", median(traced_s) - median(untraced_s), "s"});
  // The latency tail of executed flows (untraced units). It has no bound:
  // on tune_rent1 it depends on which knob settings a campaign explores.
  rep.metrics.push_back({"flow.latency_p90_s", quantile(latency_s, 0.9), "s"});
  return rep;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload flow_cpu2|sweep_rand1|tune_rent1 "
               "--work-dir DIR [--seed N] [--seconds S] [--trace 0|1]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") opt.workload = value;
      else if (arg == "--seed") opt.seed = std::stoull(value);
      else if (arg == "--seconds") opt.seconds = std::stod(value);
      else if (arg == "--trace") opt.trace = std::stoi(value) != 0;
      else if (arg == "--work-dir") opt.work_dir = value;
      else usage(("unknown option " + arg).c_str());
    } catch (const std::exception&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (opt.workload != "flow_cpu2" && opt.workload != "sweep_rand1" &&
      opt.workload != "tune_rent1") {
    usage("unknown workload");
  }
  if (opt.work_dir.empty()) usage("--work-dir is required");
  fs::create_directories(opt.work_dir);

  std::string table;
  const Report rep = opt.trace ? per_layer(opt, table) : end_to_end(opt);
  if (!table.empty()) std::fputs(table.c_str(), stdout);

  std::string json = "{\"correct\": " + std::string(rep.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(rep.attempted) +
                     ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + full(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::puts(json.c_str());
  return 0;
}
