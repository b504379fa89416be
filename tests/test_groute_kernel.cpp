// Global-route kernel equivalence and invariant suite (ctest label: groute).
//
// Covers the four legs of the route-kernel rebuild:
//  * MazeArena windowed A* == brute-force Dijkstra on the same window
//    (path-cost equivalence on random congested grids), plus arena reuse
//    across grids of different sizes;
//  * the GridGraph incremental overflow ledger == brute-force recomputation
//    under randomized usage churn;
//  * rip-up bookkeeping: final edge usage == recount over the committed
//    segment paths;
//  * determinism: serial == 1-thread pool == 8-thread pool, bitwise; and
//    incremental reroute == from-scratch route after a placement
//    perturbation, including the flow-level run_route wiring.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "exec/executor.hpp"
#include "flow/tools.hpp"
#include "netlist/design_view.hpp"
#include "netlist/generators.hpp"
#include "obs/registry.hpp"
#include "place/placer.hpp"
#include "route/global_router.hpp"
#include "route/maze_arena.hpp"

namespace mn = maestro::netlist;
namespace mp = maestro::place;
namespace mr = maestro::route;
namespace me = maestro::exec;
namespace mf = maestro::flow;
namespace obs = maestro::obs;
using maestro::util::Rng;

namespace {

const mn::CellLibrary& lib() {
  static const mn::CellLibrary l = mn::make_default_library();
  return l;
}

/// The router's congestion-aware edge cost, duplicated here on purpose: the
/// brute-force checker must price edges identically without sharing code
/// with the implementation under test.
double edge_cost(const mr::GridGraph& g, std::size_t e, double pw, double hw) {
  const double util = g.capacity(e) > 0.0 ? g.usage(e) / g.capacity(e) : 10.0;
  double cost = 1.0;
  if (util > 0.6) cost += pw * (util - 0.6) * (util - 0.6) * 12.0;
  if (g.usage(e) >= g.capacity(e)) cost += pw * 8.0;
  cost += hw * g.history(e);
  return cost;
}

/// O(V^2) Dijkstra over the nodes of search_window(g, from, to): the oracle
/// the windowed arena A* must match in path cost.
double dijkstra_cost(const mr::GridGraph& g, const mr::GCell& from, const mr::GCell& to,
                     double pw, double hw) {
  const auto win = mr::search_window(g, from, to);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(g.node_count(), kInf);
  std::vector<char> done(g.node_count(), 0);
  dist[g.node_id(from)] = 0.0;
  const auto target = g.node_id(to);
  for (;;) {
    std::size_t u = g.node_count();
    double best = kInf;
    for (std::uint32_t r = win.row_lo; r <= win.row_hi; ++r) {
      for (std::uint32_t c = win.col_lo; c <= win.col_hi; ++c) {
        const std::size_t id = g.node_id({c, r});
        if (!done[id] && dist[id] < best) {
          best = dist[id];
          u = id;
        }
      }
    }
    if (u == g.node_count() || u == target) break;
    done[u] = 1;
    const mr::GCell c = g.cell_of(u);
    struct Nb {
      bool ok;
      mr::GCell cell;
      std::size_t edge;
    };
    const Nb nbs[4] = {
        {c.col + 1 < g.cols(), {c.col + 1, c.row},
         c.col + 1 < g.cols() ? g.edge_id(c, mr::Dir::East) : 0},
        {c.col > 0, {c.col - 1, c.row},
         c.col > 0 ? g.edge_id({c.col - 1, c.row}, mr::Dir::East) : 0},
        {c.row + 1 < g.rows(), {c.col, c.row + 1},
         c.row + 1 < g.rows() ? g.edge_id(c, mr::Dir::North) : 0},
        {c.row > 0, {c.col, c.row - 1},
         c.row > 0 ? g.edge_id({c.col, c.row - 1}, mr::Dir::North) : 0},
    };
    for (const auto& nb : nbs) {
      if (!nb.ok || !win.contains(nb.cell)) continue;
      const double nd = dist[u] + edge_cost(g, nb.edge, pw, hw);
      const std::size_t id = g.node_id(nb.cell);
      if (nd < dist[id]) dist[id] = nd;
    }
  }
  return dist[target];
}

double path_cost(const mr::GridGraph& g, const std::vector<std::size_t>& path, double pw,
                 double hw) {
  double c = 0.0;
  for (const std::size_t e : path) c += edge_cost(g, e, pw, hw);
  return c;
}

/// Assert the edge sequence walks contiguously from `from` to `to`.
void expect_connected(const mr::GridGraph& g, const std::vector<std::size_t>& path,
                      const mr::GCell& from, const mr::GCell& to) {
  mr::GCell at = from;
  for (const std::size_t e : path) {
    const auto [a, b] = g.edge_cells(e);
    ASSERT_TRUE(at == a || at == b) << "path breaks at edge " << e;
    at = (at == a) ? b : a;
  }
  EXPECT_EQ(at, to);
}

mr::GridGraph random_grid(std::size_t cols, std::size_t rows, Rng& rng) {
  const maestro::geom::GridIndexer idx{{{0, 0}, {100000, 100000}}, cols, rows};
  mr::GridGraph g{cols, rows, 4.0, 3.0, idx};
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    if (rng.uniform() < 0.6) g.add_usage(e, static_cast<double>(rng.below(7)));
    if (rng.uniform() < 0.3) g.bump_history(e, static_cast<double>(rng.below(4)));
  }
  return g;
}

mp::Placement placed_design(std::uint64_t seed, std::size_t gates, double util,
                            std::unique_ptr<mn::Netlist>& nl_out,
                            std::unique_ptr<mp::Floorplan>& fp_out) {
  mn::RandomLogicSpec spec;
  spec.gates = gates;
  spec.seed = seed;
  nl_out = std::make_unique<mn::Netlist>(mn::make_random_logic(lib(), spec));
  fp_out = std::make_unique<mp::Floorplan>(mp::Floorplan::for_netlist(*nl_out, util));
  Rng rng{seed};
  auto pl = mp::random_placement(*nl_out, *fp_out, rng);
  mp::AnnealOptions ao;
  ao.moves_per_cell = 6.0;
  mp::anneal_placement(pl, ao, rng);
  mp::legalize(pl);
  return pl;
}

void expect_results_identical(const mr::RouteResult& a, const mr::RouteResult& b) {
  EXPECT_EQ(a.wirelength_gcells, b.wirelength_gcells);
  EXPECT_EQ(a.total_overflow, b.total_overflow);
  EXPECT_EQ(a.overflowed_edges, b.overflowed_edges);
  EXPECT_EQ(a.max_utilization, b.max_utilization);
  EXPECT_EQ(a.rounds_used, b.rounds_used);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.overflow_per_round, b.overflow_per_round);
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (std::size_t i = 0; i < a.segments.size(); ++i) {
    EXPECT_EQ(a.segments[i].from, b.segments[i].from);
    EXPECT_EQ(a.segments[i].to, b.segments[i].to);
    EXPECT_EQ(a.segments[i].edges, b.segments[i].edges);
  }
}

void expect_grids_identical(const mr::GridGraph& a, const mr::GridGraph& b) {
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (std::size_t e = 0; e < a.edge_count(); ++e) {
    ASSERT_EQ(a.usage(e), b.usage(e)) << "usage mismatch at edge " << e;
    ASSERT_EQ(a.history(e), b.history(e)) << "history mismatch at edge " << e;
  }
  EXPECT_EQ(a.total_overflow(), b.total_overflow());
  EXPECT_EQ(a.overflowed_edges(), b.overflowed_edges());
  EXPECT_EQ(a.max_utilization(), b.max_utilization());
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

}  // namespace

TEST(SearchWindow, ContainsOverlapsAndClamping) {
  const maestro::geom::GridIndexer idx{{{0, 0}, {1000, 1000}}, 20, 20};
  const mr::GridGraph g{20, 20, 4.0, 4.0, idx};
  const auto w = mr::search_window(g, {2, 3}, {9, 5});
  EXPECT_EQ(w.col_lo, 0u);  // 2 - 6 clamps to 0
  EXPECT_EQ(w.col_hi, 15u);
  EXPECT_EQ(w.row_lo, 0u);
  EXPECT_EQ(w.row_hi, 11u);
  EXPECT_TRUE(w.contains({0, 0}));
  EXPECT_TRUE(w.contains({15, 11}));
  EXPECT_FALSE(w.contains({16, 0}));
  EXPECT_FALSE(w.contains({0, 12}));
  const auto far = mr::search_window(g, {19, 19}, {18, 18});
  EXPECT_FALSE(w.overlaps(far));
  EXPECT_TRUE(w.overlaps(mr::search_window(g, {10, 10}, {12, 12})));
}

TEST(MazeArena, MatchesBruteForceDijkstraOnRandomGrids) {
  // Small grids (window covers everything) and larger grids (genuinely
  // windowed): arena A* path cost must equal the Dijkstra oracle's distance
  // over the same window.
  Rng rng{101};
  const std::pair<std::size_t, std::size_t> shapes[] = {{9, 7}, {12, 12}, {40, 33}};
  mr::MazeArena arena;
  for (const auto& [cols, rows] : shapes) {
    for (int trial = 0; trial < 8; ++trial) {
      const mr::GridGraph g = random_grid(cols, rows, rng);
      const mr::GCell from{static_cast<std::uint32_t>(rng.below(cols)),
                           static_cast<std::uint32_t>(rng.below(rows))};
      const mr::GCell to{static_cast<std::uint32_t>(rng.below(cols)),
                         static_cast<std::uint32_t>(rng.below(rows))};
      if (from == to) continue;
      const auto path = mr::arena_maze_route(g, arena, from, to, 1.0, 0.4);
      ASSERT_FALSE(path.empty());
      expect_connected(g, path, from, to);
      const double got = path_cost(g, path, 1.0, 0.4);
      const double want = dijkstra_cost(g, from, to, 1.0, 0.4);
      EXPECT_NEAR(got, want, 1e-9) << cols << "x" << rows << " trial " << trial;
    }
  }
}

TEST(MazeArena, ReuseAcrossGridSizesIsClean) {
  // Scratch reuse must never leak state: a warm arena (used on a different
  // grid, including a larger one) must produce exactly the path a cold
  // arena produces.
  Rng rng{202};
  const mr::GridGraph big = random_grid(40, 33, rng);
  const mr::GridGraph small = random_grid(11, 9, rng);
  mr::MazeArena warm;
  (void)mr::arena_maze_route(big, warm, {1, 1}, {38, 30}, 1.0, 0.4);
  (void)mr::arena_maze_route(small, warm, {0, 0}, {10, 8}, 1.0, 0.4);
  for (int trial = 0; trial < 6; ++trial) {
    const mr::GCell from{static_cast<std::uint32_t>(rng.below(11)),
                         static_cast<std::uint32_t>(rng.below(9))};
    const mr::GCell to{static_cast<std::uint32_t>(rng.below(11)),
                       static_cast<std::uint32_t>(rng.below(9))};
    mr::MazeArena cold;
    const auto warm_path = mr::arena_maze_route(small, warm, from, to, 1.2, 0.6);
    const auto cold_path = mr::arena_maze_route(small, cold, from, to, 1.2, 0.6);
    EXPECT_EQ(warm_path, cold_path);
  }
}

TEST(OverflowLedger, MatchesBruteForceUnderRandomChurn) {
  const maestro::geom::GridIndexer idx{{{0, 0}, {100000, 100000}}, 16, 14};
  mr::GridGraph g{16, 14, 3.0, 2.0, idx};
  Rng rng{303};
  auto check = [&] {
    double total = 0.0;
    std::size_t count = 0;
    double max_util = 0.0;
    for (std::size_t e = 0; e < g.edge_count(); ++e) {
      total += g.overflow(e);
      if (g.usage(e) > g.capacity(e)) ++count;
      if (g.capacity(e) > 0.0) max_util = std::max(max_util, g.usage(e) / g.capacity(e));
    }
    ASSERT_NEAR(g.total_overflow(), total, 1e-12);
    ASSERT_EQ(g.overflowed_edges(), count);
    ASSERT_DOUBLE_EQ(g.max_utilization(), max_util);
    // The ledger set itself matches brute-force membership.
    std::set<std::size_t> in_set(g.overflowed().begin(), g.overflowed().end());
    ASSERT_EQ(in_set.size(), count);
    for (const std::size_t e : in_set) ASSERT_GT(g.usage(e), g.capacity(e));
  };
  for (int step = 0; step < 2000; ++step) {
    const std::size_t e = rng.below(g.edge_count());
    // Mix of additions and removals, crossing the capacity threshold often.
    const double amount = g.usage(e) > 0.0 && rng.uniform() < 0.45 ? -1.0 : 1.0;
    g.add_usage(e, amount);
    if (step % 50 == 0) check();
  }
  check();
  g.reset_usage();
  check();
}

TEST(GlobalRouter, UsageEqualsRecountOverCommittedPaths) {
  // Rip-up bookkeeping invariant: after any number of negotiation rounds,
  // per-edge usage must equal the recount over the final committed paths.
  std::unique_ptr<mn::Netlist> nl;
  std::unique_ptr<mp::Floorplan> fp;
  const auto pl = placed_design(31, 800, 0.8, nl, fp);
  for (const int rounds : {1, 2, 8}) {
    mr::RouteOptions opt;
    opt.gcells_x = opt.gcells_y = 24;
    opt.h_capacity = opt.v_capacity = 7.0;  // congested: rip-up actually runs
    opt.max_rounds = rounds;
    opt.keep_segments = true;
    mr::GridGraph g;
    const auto res = mr::global_route(pl, opt, g);
    std::vector<double> recount(g.edge_count(), 0.0);
    for (const auto& seg : res.segments) {
      for (const std::size_t e : seg.edges) recount[e] += 1.0;
    }
    for (std::size_t e = 0; e < g.edge_count(); ++e) {
      ASSERT_EQ(g.usage(e), recount[e]) << "rounds=" << rounds << " edge=" << e;
    }
  }
}

TEST(GlobalRouter, PerNetSegmentsMatchDeduplicatedPins) {
  // The O(p log p) dedup must leave unique pin GCells in first-seen order,
  // and a net with k distinct pin GCells must produce exactly k-1 segments.
  std::unique_ptr<mn::Netlist> nl;
  std::unique_ptr<mp::Floorplan> fp;
  const auto pl = placed_design(37, 700, 0.75, nl, fp);
  mn::DesignView view{*nl};
  mr::RouteOptions opt;
  opt.gcells_x = opt.gcells_y = 20;
  opt.keep_state = true;
  mr::GridGraph g;
  const auto res = mr::global_route(pl, view, opt, g);
  const auto& st = res.state;
  ASSERT_TRUE(st.valid);
  ASSERT_EQ(st.net_pin_begin.size(), nl->net_count() + 1);
  for (std::size_t n = 0; n < nl->net_count(); ++n) {
    std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
    for (std::uint32_t p = st.net_pin_begin[n]; p < st.net_pin_begin[n + 1]; ++p) {
      ASSERT_TRUE(seen.insert({st.pin_cells[p].col, st.pin_cells[p].row}).second)
          << "duplicate pin GCell in net " << n;
    }
    const std::size_t pins = seen.size();
    const std::size_t segs = st.net_seg_begin[n + 1] - st.net_seg_begin[n];
    EXPECT_EQ(segs, pins >= 2 ? pins - 1 : 0u) << "net " << n;
  }
}

TEST(GlobalRouter, ParallelBitwiseIdenticalToSerial) {
  std::unique_ptr<mn::Netlist> nl;
  std::unique_ptr<mp::Floorplan> fp;
  const auto pl = placed_design(41, 1200, 0.8, nl, fp);
  mr::RouteOptions opt;
  opt.gcells_x = opt.gcells_y = 32;
  opt.h_capacity = opt.v_capacity = 8.0;  // congested: Phase B runs batches
  opt.keep_segments = true;

  // Every route's maze expansions reach the counter by the time it returns
  // (nothing stays batched in a worker's thread-local arena), so each call
  // adds the same count at any thread count.
  obs::Counter& expansions = obs::Registry::global().counter("route.maze_expansions");
  std::uint64_t before = expansions.value();
  mr::GridGraph g_serial;
  const auto serial = mr::global_route(pl, opt, g_serial);
  EXPECT_GT(serial.rounds_used, 1);  // negotiation must actually engage
  const std::uint64_t serial_expansions = expansions.value() - before;
  EXPECT_GT(serial_expansions, 0u);

  me::RunExecutor pool1{{.threads = 1}};
  me::RunExecutor pool8{{.threads = 8}};
  for (me::RunExecutor* pool : {&pool1, &pool8}) {
    mr::RouteOptions popt = opt;
    popt.executor = pool;
    mr::GridGraph g_par;
    before = expansions.value();
    const auto par = mr::global_route(pl, popt, g_par);
    EXPECT_EQ(expansions.value() - before, serial_expansions);
    expect_results_identical(serial, par);
    expect_grids_identical(g_serial, g_par);
  }
}

TEST(GlobalRouter, IncrementalMatchesFromScratchAfterPerturbation) {
  std::unique_ptr<mn::Netlist> nl;
  std::unique_ptr<mp::Floorplan> fp;
  auto pl = placed_design(43, 1000, 0.75, nl, fp);
  mn::DesignView view{*nl};
  mr::RouteOptions opt;
  opt.gcells_x = opt.gcells_y = 32;
  opt.h_capacity = opt.v_capacity = 9.0;
  opt.keep_segments = true;
  opt.keep_state = true;

  mr::GridGraph g0;
  const auto prev = mr::global_route(pl, view, opt, g0);
  ASSERT_TRUE(prev.state.valid);

  // Perturb ~1% of the cells to random spots (routing needs no legality).
  Rng rng{4444};
  const auto& core = fp->core();
  std::vector<mn::InstanceId> moved;
  for (std::size_t i = 0; i < nl->instance_count(); ++i) {
    if (rng.uniform() < 0.01) {
      const auto id = static_cast<mn::InstanceId>(i);
      pl.set_loc(id, {core.lo.x + static_cast<maestro::geom::Dbu>(
                                      rng.below(static_cast<std::uint64_t>(core.width()))),
                      core.lo.y + static_cast<maestro::geom::Dbu>(
                                      rng.below(static_cast<std::uint64_t>(core.height())))});
      moved.push_back(id);
    }
  }
  ASSERT_FALSE(moved.empty());

  const auto reroutes_before = counter_value("route.incr_nets_rerouted");
  mr::GridGraph g_incr;
  const auto incr = mr::global_route_incremental(pl, view, opt, g_incr, prev, {});
  EXPECT_GT(counter_value("route.incr_nets_rerouted"), reroutes_before);

  mr::GridGraph g_full;
  const auto full = mr::global_route(pl, view, opt, g_full);
  expect_results_identical(full, incr);
  expect_grids_identical(g_full, g_incr);
  EXPECT_EQ(full.state.net_pin_begin, incr.state.net_pin_begin);
  EXPECT_EQ(full.state.net_seg_begin, incr.state.net_seg_begin);
  EXPECT_EQ(full.state.initial_paths, incr.state.initial_paths);
  EXPECT_EQ(full.state.grid_revision, incr.state.grid_revision);

  // Narrowed staleness scan: naming the dirty nets gives the same answer.
  std::vector<mn::NetId> dirty;
  const std::set<mn::InstanceId> moved_set(moved.begin(), moved.end());
  for (std::size_t n = 0; n < view.net_count(); ++n) {
    for (const mn::InstanceId id : view.pins_of(static_cast<mn::NetId>(n))) {
      if (moved_set.count(id)) {
        dirty.push_back(static_cast<mn::NetId>(n));
        break;
      }
    }
  }
  mr::GridGraph g_narrow;
  const auto narrow = mr::global_route_incremental(pl, view, opt, g_narrow, prev, dirty);
  expect_results_identical(full, narrow);
  expect_grids_identical(g_full, g_narrow);
}

TEST(GlobalRouter, IncrementalFastPathAndFallback) {
  std::unique_ptr<mn::Netlist> nl;
  std::unique_ptr<mp::Floorplan> fp;
  auto pl = placed_design(47, 500, 0.7, nl, fp);
  mn::DesignView view{*nl};
  mr::RouteOptions opt;
  opt.gcells_x = opt.gcells_y = 24;
  opt.keep_state = true;
  mr::GridGraph g0;
  const auto prev = mr::global_route(pl, view, opt, g0);

  // Nothing moved, same grid: the fast path returns the previous result.
  const auto hits_before = counter_value("route.incr_clean_hits");
  const auto again = mr::global_route_incremental(pl, view, opt, g0, prev, {});
  EXPECT_EQ(counter_value("route.incr_clean_hits"), hits_before + 1);
  EXPECT_EQ(again.wirelength_gcells, prev.wirelength_gcells);
  EXPECT_EQ(again.overflow_per_round, prev.overflow_per_round);

  // Option-key mismatch: falls back to (and equals) a full route.
  mr::RouteOptions opt2 = opt;
  opt2.h_capacity = opt.h_capacity * 0.5;
  const auto fallbacks_before = counter_value("route.incr_fallbacks");
  mr::GridGraph g_fb;
  const auto fb = mr::global_route_incremental(pl, view, opt2, g_fb, prev, {});
  EXPECT_EQ(counter_value("route.incr_fallbacks"), fallbacks_before + 1);
  mr::GridGraph g_fresh;
  const auto fresh = mr::global_route(pl, view, opt2, g_fresh);
  expect_results_identical(fresh, fb);
  expect_grids_identical(g_fresh, g_fb);
}

TEST(FlowRoute, RepeatedRunRouteUsesIncrementalStateAndMatchesFresh) {
  // The flow wiring: a second run_route on a kept DesignState must take the
  // incremental path and still produce exactly what a from-scratch flow
  // produces on the identically perturbed placement.
  auto make_state = [](mf::DesignState& ds, const mf::ToolContext& ctx) {
    ds.lib = &lib();
    mf::DesignSpec spec;
    spec.kind = mf::DesignSpec::Kind::RandomLogic;
    spec.gates_override = 600;
    spec.rtl_seed = 7;
    spec.name = "groute_flow";
    ASSERT_TRUE(mf::run_synthesis(ds, spec, ctx).ok);
    ASSERT_TRUE(mf::run_floorplan(ds, ctx).ok);
    ASSERT_TRUE(mf::run_place(ds, ctx).ok);
  };
  auto perturb = [](mf::DesignState& ds) {
    Rng rng{99};
    const auto& core = ds.fp->core();
    for (std::size_t i = 0; i < ds.nl->instance_count(); ++i) {
      if (rng.uniform() < 0.01) {
        ds.pl->set_loc(static_cast<mn::InstanceId>(i),
                       {core.lo.x + static_cast<maestro::geom::Dbu>(
                                        rng.below(static_cast<std::uint64_t>(core.width()))),
                        core.lo.y + static_cast<maestro::geom::Dbu>(
                                        rng.below(static_cast<std::uint64_t>(core.height())))});
      }
    }
  };
  mf::ToolContext ctx;
  ctx.seed = 5;

  mf::DesignState incr_ds;
  make_state(incr_ds, ctx);
  ASSERT_TRUE(mf::run_route(incr_ds, ctx).ok);
  ASSERT_TRUE(incr_ds.groute.state.valid);  // flow keeps reroute state
  perturb(incr_ds);
  const auto reroutes_before = counter_value("route.incr_reroutes");
  ASSERT_TRUE(mf::run_route(incr_ds, ctx).ok);
  EXPECT_EQ(counter_value("route.incr_reroutes"), reroutes_before + 1);

  mf::DesignState fresh_ds;
  make_state(fresh_ds, ctx);
  perturb(fresh_ds);
  ASSERT_TRUE(mf::run_route(fresh_ds, ctx).ok);

  EXPECT_EQ(incr_ds.groute.wirelength_gcells, fresh_ds.groute.wirelength_gcells);
  EXPECT_EQ(incr_ds.groute.total_overflow, fresh_ds.groute.total_overflow);
  EXPECT_EQ(incr_ds.groute.overflow_per_round, fresh_ds.groute.overflow_per_round);
  ASSERT_EQ(incr_ds.routed.edge_count(), fresh_ds.routed.edge_count());
  for (std::size_t e = 0; e < incr_ds.routed.edge_count(); ++e) {
    ASSERT_EQ(incr_ds.routed.usage(e), fresh_ds.routed.usage(e));
    ASSERT_EQ(incr_ds.routed.history(e), fresh_ds.routed.history(e));
  }
}
