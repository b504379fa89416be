#pragma once
// MazeArena — epoch-stamped scratch space for windowed A* maze routing.
//
// The seed router allocated and infinity-filled three full-grid O(cols*rows)
// arrays for every segment it routed, even though the search itself is
// windowed to the segment's bloated bounding box. The arena keeps one set of
// full-grid arrays alive across all searches and makes "reset" O(1): every
// per-node slot carries the epoch that last wrote it, prepare() bumps the
// epoch, and a slot whose stamp differs from the current epoch reads as
// unvisited (+inf distance). A short windowed route therefore costs
// O(window), not O(grid), and the open-heap's backing storage is reused too.
//
// Arenas are cheap to keep per-thread (a 192x192 grid is ~1 MiB of scratch)
// and are NOT thread-safe; the parallel router hands each worker its own via
// thread_arena().

#include <cstdint>
#include <tuple>
#include <vector>

#include "route/grid_graph.hpp"

namespace maestro::route {

/// Search window of a segment: its bounding box bloated by the detour
/// margin, clamped to the grid. Both the router and any reference
/// implementation must derive windows through this one function — window
/// disjointness is what makes parallel rip-up batches conflict-free.
struct SearchWindow {
  std::uint32_t col_lo = 0;
  std::uint32_t col_hi = 0;
  std::uint32_t row_lo = 0;
  std::uint32_t row_hi = 0;

  bool contains(const GCell& c) const {
    return c.col >= col_lo && c.col <= col_hi && c.row >= row_lo && c.row <= row_hi;
  }
  bool overlaps(const SearchWindow& o) const {
    return col_lo <= o.col_hi && o.col_lo <= col_hi && row_lo <= o.row_hi && o.row_lo <= row_hi;
  }
};

/// Detour slack around a segment's bounding box (GCells).
inline constexpr std::uint32_t kDetourMargin = 6;

SearchWindow search_window(const GridGraph& g, const GCell& from, const GCell& to);

class MazeArena {
 public:
  /// Make the arena valid for a grid with `nodes` nodes and start a fresh
  /// search epoch. O(1) when the size is unchanged (the common case);
  /// resizing value-initializes new stamps so stale reads are impossible.
  void prepare(std::size_t nodes);

  /// Expansions are batched per-arena, so parallel workers don't ping-pong
  /// one shared cacheline on every search; this adds the pending count to
  /// the global `route.maze_expansions` counter. Callers flush once per
  /// batch of searches (a router chunk, a single reroute), so the counter is
  /// exact whenever no search is running, at any thread count.
  void flush_expansions();

  std::size_t size() const { return dist_.size(); }
  std::uint64_t epoch() const { return epoch_; }

 private:
  friend std::vector<std::size_t> arena_maze_route(const GridGraph&, MazeArena&, const GCell&,
                                                   const GCell&, double, double);

  std::vector<double> dist_;
  std::vector<std::uint64_t> stamp_;
  std::vector<std::uint32_t> prev_edge_;
  std::vector<std::uint32_t> prev_node_;
  /// Reusable open list: (f-score, h, node) — f ties break toward the
  /// target so uniform-cost regions expand a corridor, not a bounding box.
  std::vector<std::tuple<double, double, std::uint32_t>> heap_;
  std::uint64_t epoch_ = 0;
  std::uint64_t pending_expansions_ = 0;  ///< not yet flushed to the registry
};

/// A* maze route of one segment with congestion-aware edge costs, windowed
/// to search_window(g, from, to). The cost function is identical to the
/// seed router's full-grid search; tie-breaking prefers nodes nearest the
/// target (deterministic, cost-optimal — equal-cost paths may differ from
/// the seed's). Returns the edge-id path (empty when from == to or —
/// defensively — when the target is unreachable).
std::vector<std::size_t> arena_maze_route(const GridGraph& g, MazeArena& arena,
                                          const GCell& from, const GCell& to,
                                          double present_weight, double history_weight);

/// Per-thread arena for ad-hoc callers (the detailed router's reroutes, the
/// public maze_route_segment). Workers of the parallel router each see their
/// own instance.
MazeArena& thread_arena();

}  // namespace maestro::route
