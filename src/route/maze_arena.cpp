#include "route/maze_arena.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "obs/registry.hpp"

namespace maestro::route {

SearchWindow search_window(const GridGraph& g, const GCell& from, const GCell& to) {
  SearchWindow w;
  w.col_lo =
      std::min(from.col, to.col) > kDetourMargin ? std::min(from.col, to.col) - kDetourMargin : 0;
  w.col_hi = std::min<std::uint32_t>(std::max(from.col, to.col) + kDetourMargin,
                                     static_cast<std::uint32_t>(g.cols()) - 1);
  w.row_lo =
      std::min(from.row, to.row) > kDetourMargin ? std::min(from.row, to.row) - kDetourMargin : 0;
  w.row_hi = std::min<std::uint32_t>(std::max(from.row, to.row) + kDetourMargin,
                                     static_cast<std::uint32_t>(g.rows()) - 1);
  return w;
}

void MazeArena::prepare(std::size_t nodes) {
  if (dist_.size() != nodes) {
    dist_.resize(nodes);
    stamp_.assign(nodes, 0);
    prev_edge_.resize(nodes);
    prev_node_.resize(nodes);
    epoch_ = 0;
  }
  ++epoch_;
  heap_.clear();
}

void MazeArena::flush_expansions() {
  if (pending_expansions_ == 0) return;
  static obs::Counter& expansion_counter =
      obs::Registry::global().counter("route.maze_expansions");
  expansion_counter.add(pending_expansions_);
  pending_expansions_ = 0;
}

MazeArena& thread_arena() {
  thread_local MazeArena arena;
  return arena;
}

std::vector<std::size_t> arena_maze_route(const GridGraph& g, MazeArena& a, const GCell& from,
                                          const GCell& to, double present_w, double history_w) {
  std::vector<std::size_t> path;
  if (from == to) return path;
  // Node ids and edge ids (< 2*nodes) are stored as 32-bit in the arena.
  assert(g.node_count() < (std::size_t{1} << 31));
  a.prepare(g.node_count());
  const std::uint64_t epoch = a.epoch_;
  const SearchWindow win = search_window(g, from, to);

  auto dist_at = [&](std::uint32_t id) {
    return a.stamp_[id] == epoch ? a.dist_[id] : std::numeric_limits<double>::infinity();
  };
  auto heuristic = [&](std::uint32_t id) {
    const GCell c = g.cell_of(id);
    return static_cast<double>(
        std::abs(static_cast<std::int64_t>(c.col) - static_cast<std::int64_t>(to.col)) +
        std::abs(static_cast<std::int64_t>(c.row) - static_cast<std::int64_t>(to.row)));
  };
  auto edge_cost = [&](std::size_t e) {
    const double util = g.capacity(e) > 0.0 ? g.usage(e) / g.capacity(e) : 10.0;
    // Base cost 1 per edge; congestion penalty grows sharply past capacity.
    double cost = 1.0;
    if (util > 0.6) cost += present_w * (util - 0.6) * (util - 0.6) * 12.0;
    if (g.usage(e) >= g.capacity(e)) cost += present_w * 8.0;
    cost += history_w * g.history(e);
    return cost;
  };

  // (f-score, h, node): f ties break toward the node nearest the target
  // (largest g). On a lightly congested grid every monotone staircase path
  // has equal f, so plain (f, node) ordering would expand the whole
  // from/to bounding box; preferring small h walks a corridor instead.
  // Ordering stays deterministic (final tie on node id) and optimality is
  // untouched — a node is still popped only at f >= its true f.
  using QItem = std::tuple<double, double, std::uint32_t>;
  auto& open = a.heap_;
  const auto s = static_cast<std::uint32_t>(g.node_id(from));
  const auto t = static_cast<std::uint32_t>(g.node_id(to));
  a.dist_[s] = 0.0;
  a.stamp_[s] = epoch;
  a.prev_node_[s] = s;
  open.emplace_back(heuristic(s), heuristic(s), s);
  std::push_heap(open.begin(), open.end(), std::greater<QItem>{});

  std::uint64_t expansions = 0;
  while (!open.empty()) {
    const auto [f, h, u] = open.front();
    std::pop_heap(open.begin(), open.end(), std::greater<QItem>{});
    open.pop_back();
    if (u == t) break;
    if (f > dist_at(u) + heuristic(u) + 1e-9) continue;  // stale entry
    ++expansions;
    const GCell c = g.cell_of(u);
    struct Nb {
      bool ok;
      std::uint32_t node;
      std::size_t edge;
    };
    const auto cols = static_cast<std::uint32_t>(g.cols());
    const Nb nbs[4] = {
        {c.col + 1 < g.cols(), u + 1, c.col + 1 < g.cols() ? g.edge_id(c, Dir::East) : 0},
        {c.col > 0, u - 1, c.col > 0 ? g.edge_id({c.col - 1, c.row}, Dir::East) : 0},
        {c.row + 1 < g.rows(), u + cols, c.row + 1 < g.rows() ? g.edge_id(c, Dir::North) : 0},
        {c.row > 0, u - cols, c.row > 0 ? g.edge_id({c.col, c.row - 1}, Dir::North) : 0},
    };
    for (const auto& nb : nbs) {
      if (!nb.ok) continue;
      if (!win.contains(g.cell_of(nb.node))) continue;
      const double nd = dist_at(u) + edge_cost(nb.edge);
      if (nd < dist_at(nb.node) - 1e-12) {
        a.dist_[nb.node] = nd;
        a.stamp_[nb.node] = epoch;
        a.prev_edge_[nb.node] = static_cast<std::uint32_t>(nb.edge);
        a.prev_node_[nb.node] = u;
        const double nh = heuristic(nb.node);
        open.emplace_back(nd + nh, nh, nb.node);
        std::push_heap(open.begin(), open.end(), std::greater<QItem>{});
      }
    }
  }
  // The expansion counter is a single process-global atomic; bumping it per
  // search from 8 workers turns a metrics read into cacheline ping-pong, so
  // each arena batches locally until its caller flushes.
  a.pending_expansions_ += expansions;

  if (a.stamp_[t] != epoch) return path;  // unreachable (shouldn't happen)
  for (std::uint32_t v = t; v != s; v = a.prev_node_[v]) {
    path.push_back(a.prev_edge_[v]);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace maestro::route
