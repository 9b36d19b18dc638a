// Randomized equivalence suite for the two-tier connectivity oracle.
//
// The production oracle answers most probes with the O(1) local
// 8-neighborhood rule and falls back to a generation-stamped scratch flood
// (lattice/connectivity.cpp); this suite pins it against an independent
// hash-set BFS reference (the pre-fast-path implementation) over thousands
// of random grids and move batches — including disconnecting moves,
// handover chains and carrying-style double moves — and across mutations,
// which exercises the grid's cached connectivity hint. The local rule is
// also checked exhaustively: every ring occupancy, with the center in the
// interior and on every border of the surface.

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <unordered_set>
#include <utility>
#include <vector>

#include "lattice/connectivity.hpp"
#include "motion/apply.hpp"
#include "util/rng.hpp"

namespace sb::lat {
namespace {

using MoveList = std::vector<std::pair<Vec2, Vec2>>;

// -- reference model (hash-set BFS, no shortcuts) ---------------------------

size_t reference_flood(const Grid& grid, Vec2 start,
                       const std::unordered_set<Vec2, Vec2Hash>& vacated,
                       const std::unordered_set<Vec2, Vec2Hash>& filled) {
  const auto occupied = [&](Vec2 p) {
    if (filled.count(p)) return true;
    if (vacated.count(p)) return false;
    return grid.occupied(p);
  };
  if (!occupied(start)) return 0;
  std::unordered_set<Vec2, Vec2Hash> seen{start};
  std::vector<Vec2> frontier{start};
  while (!frontier.empty()) {
    const Vec2 p = frontier.back();
    frontier.pop_back();
    for (Direction d : all_directions()) {
      const Vec2 q = p + delta(d);
      if (!seen.count(q) && occupied(q)) {
        seen.insert(q);
        frontier.push_back(q);
      }
    }
  }
  return seen.size();
}

bool reference_is_connected(const Grid& grid) {
  if (grid.block_count() <= 1) return true;
  return reference_flood(grid, grid.first_block_position(), {}, {}) ==
         grid.block_count();
}

bool reference_connected_after(const Grid& grid, const MoveList& moves) {
  std::unordered_set<Vec2, Vec2Hash> vacated;
  std::unordered_set<Vec2, Vec2Hash> filled;
  for (const auto& [from, to] : moves) vacated.insert(from);
  for (const auto& [from, to] : moves) {
    filled.insert(to);
    vacated.erase(to);
  }
  if (grid.block_count() <= 1) return true;
  Vec2 start{-1, -1};
  bool found = false;
  for (const auto& [id, pos] : grid.blocks()) {
    Vec2 p = pos;
    for (const auto& [from, to] : moves) {
      if (from == pos) {
        p = to;
        break;
      }
    }
    if (!found) {
      start = p;
      found = true;
    }
  }
  return reference_flood(grid, start, vacated, filled) ==
         grid.block_count();
}

bool reference_single_line_after(const Grid& grid, const MoveList& moves) {
  if (grid.block_count() <= 1) return true;
  bool same_x = true;
  bool same_y = true;
  bool first = true;
  Vec2 reference;
  for (const auto& [id, pos] : grid.blocks()) {
    Vec2 p = pos;
    for (const auto& [from, to] : moves) {
      if (from == pos) {
        p = to;
        break;
      }
    }
    if (first) {
      reference = p;
      first = false;
    } else {
      same_x &= p.x == reference.x;
      same_y &= p.y == reference.y;
    }
  }
  return same_x || same_y;
}

/// Number of 4-connected components among the blocks with `vacated`
/// treated as empty.
int reference_components(const Grid& grid, Vec2 vacated) {
  std::unordered_set<Vec2, Vec2Hash> seen{vacated};
  int components = 0;
  for (const auto& [id, pos] : grid.blocks()) {
    if (seen.count(pos)) continue;
    ++components;
    seen.insert(pos);
    std::vector<Vec2> frontier{pos};
    while (!frontier.empty()) {
      const Vec2 p = frontier.back();
      frontier.pop_back();
      for (Direction d : all_directions()) {
        const Vec2 q = p + delta(d);
        if (!seen.count(q) && grid.occupied(q)) {
          seen.insert(q);
          frontier.push_back(q);
        }
      }
    }
  }
  return components;
}

// -- random generation ------------------------------------------------------

Grid random_grid(Rng& rng, std::vector<Vec2>& occupied_cells) {
  const auto w = static_cast<int32_t>(rng.next_in(4, 12));
  const auto h = static_cast<int32_t>(rng.next_in(4, 12));
  Grid grid(w, h);
  occupied_cells.clear();
  // Half the grids grow as connected blobs (the sim's regime, where the
  // local rule and the hint cache do the work); the rest are uniform
  // sprinkles, frequently disconnected.
  uint32_t id = 1;
  if (rng.next_bool()) {
    const Vec2 seed{static_cast<int32_t>(rng.next_in(0, w - 1)),
                    static_cast<int32_t>(rng.next_in(0, h - 1))};
    grid.place(BlockId{id++}, seed);
    occupied_cells.push_back(seed);
    const auto target = static_cast<size_t>(
        rng.next_in(2, static_cast<int64_t>(w) * h / 2));
    for (size_t attempts = 0;
         grid.block_count() < target && attempts < 400; ++attempts) {
      const Vec2 base = occupied_cells[rng.pick_index(occupied_cells)];
      const Vec2 q = base + delta(static_cast<Direction>(rng.next_in(0, 3)));
      if (grid.in_bounds(q) && !grid.occupied(q)) {
        grid.place(BlockId{id++}, q);
        occupied_cells.push_back(q);
      }
    }
  } else {
    const int64_t cells = static_cast<int64_t>(w) * h;
    for (int32_t y = 0; y < h; ++y) {
      for (int32_t x = 0; x < w; ++x) {
        if (rng.next_in(0, cells) < cells / 3) {
          grid.place(BlockId{id++}, {x, y});
          occupied_cells.push_back({x, y});
        }
      }
    }
  }
  return grid;
}

/// Random hypothetical batch: single hops (adjacent or teleport, often
/// disconnecting), handover chains, or carrying-style double moves.
MoveList random_batch(const Grid& grid, const std::vector<Vec2>& cells,
                      Rng& rng) {
  MoveList moves;
  if (cells.empty()) return moves;
  const auto empty_cell = [&](Rng& r) {
    for (int i = 0; i < 64; ++i) {
      const Vec2 q{static_cast<int32_t>(r.next_in(0, grid.width() - 1)),
                   static_cast<int32_t>(r.next_in(0, grid.height() - 1))};
      if (!grid.occupied(q)) return q;
    }
    return Vec2{-1, -1};
  };
  const int shape = static_cast<int>(rng.next_in(0, 3));
  if (shape <= 1) {  // single hop; shape 0 adjacent, shape 1 teleport
    const Vec2 from = cells[rng.pick_index(cells)];
    Vec2 to{-1, -1};
    if (shape == 0) {
      const Vec2 q =
          from + delta(static_cast<Direction>(rng.next_in(0, 3)));
      if (grid.in_bounds(q) && !grid.occupied(q)) to = q;
    } else {
      to = empty_cell(rng);
    }
    if (to.x >= 0) moves.push_back({from, to});
  } else if (shape == 2) {  // handover chain A->B, B->C
    const Vec2 a = cells[rng.pick_index(cells)];
    const Vec2 b = a + delta(static_cast<Direction>(rng.next_in(0, 3)));
    if (grid.occupied(b)) {
      const Vec2 c = b + delta(static_cast<Direction>(rng.next_in(0, 3)));
      if (grid.in_bounds(c) && !grid.occupied(c) && c != a) {
        moves.push_back({a, b});
        moves.push_back({b, c});
      }
    }
  } else {  // carrying-style: two blocks, two distinct empty destinations
    const Vec2 a = cells[rng.pick_index(cells)];
    const Vec2 b = cells[rng.pick_index(cells)];
    const Vec2 x = empty_cell(rng);
    const Vec2 y = empty_cell(rng);
    if (a != b && x.x >= 0 && y.x >= 0 && x != y) {
      moves.push_back({a, x});
      moves.push_back({b, y});
    }
  }
  return moves;
}

// -- exhaustive ring worlds -------------------------------------------------

/// The eight cells around a center. Bit i of a ring occupancy selects
/// kRingOffsets[i]; the order is the test's own and need not match the
/// oracle's internal mask layout.
constexpr std::array<Vec2, 8> kRingOffsets = {
    Vec2{-1, -1}, Vec2{0, -1}, Vec2{1, -1}, Vec2{1, 0},
    Vec2{1, 1},   Vec2{0, 1},  Vec2{-1, 1}, Vec2{-1, 0},
};

/// 4x4 surface holding `center` and the cells of `ring` that lie on the
/// surface (off-surface ring cells are absent); with `fill_rest`, every
/// cell outside the ring is occupied too. `*on_surface` receives the bits
/// of `ring` that were placed.
Grid ring_world(Vec2 center, uint32_t ring, bool fill_rest,
                uint32_t* on_surface) {
  Grid grid(4, 4);
  uint32_t id = 1;
  grid.place(BlockId{id++}, center);
  *on_surface = 0;
  for (size_t i = 0; i < kRingOffsets.size(); ++i) {
    const Vec2 q = center + kRingOffsets[i];
    if (((ring >> i) & 1) == 0 || !grid.in_bounds(q)) continue;
    grid.place(BlockId{id++}, q);
    *on_surface |= 1u << i;
  }
  if (fill_rest) {
    for (int32_t y = 0; y < grid.height(); ++y) {
      for (int32_t x = 0; x < grid.width(); ++x) {
        const Vec2 d = Vec2{x, y} - center;
        if (std::abs(d.x) <= 1 && std::abs(d.y) <= 1) continue;  // ring
        grid.place(BlockId{id++}, {x, y});
      }
    }
  }
  return grid;
}

// -- suites -----------------------------------------------------------------

TEST(ConnectivityEquivalence, MaskRuleOverEveryRingOnEveryBorder) {
  // All 256 ring occupancies around a center in the interior, on each edge
  // and in each corner. Off-surface ring cells reach the rule only as the
  // occupancy image's padding bytes, which must read as empty: a border
  // center gets the verdict of an interior center whose ring holds the
  // same on-surface cells. With the rest of the surface filled, a padding
  // read that aliased into a neighboring row would see an occupied cell.
  // The random suites reach these padding reads only by chance.
  const Vec2 interior{1, 1};
  const std::array<Vec2, 9> centers = {
      interior,   Vec2{2, 0}, Vec2{0, 2}, Vec2{3, 1}, Vec2{1, 3},
      Vec2{0, 0}, Vec2{3, 0}, Vec2{0, 3}, Vec2{3, 3},
  };
  std::array<LocalVerdict, 256> interior_verdict{};
  int proven = 0;
  for (const Vec2 center : centers) {
    for (uint32_t ring = 0; ring < 256; ++ring) {
      for (const bool fill_rest : {false, true}) {
        SCOPED_TRACE(testing::Message() << "center " << center << " ring "
                                        << ring << " fill_rest " << fill_rest);
        uint32_t on_surface = 0;
        const Grid grid = ring_world(center, ring, fill_rest, &on_surface);
        const LocalVerdict verdict = local_removal_check(grid, center);
        ASSERT_NE(verdict, LocalVerdict::kDisconnects);
        // Vacating the center keeps every block in its component iff the
        // component count is unchanged ({-1,-1} vacates nothing).
        const bool keeps = reference_components(grid, center) ==
                           reference_components(grid, Vec2{-1, -1});
        if (verdict == LocalVerdict::kPreservesConnectivity) {
          ASSERT_TRUE(keeps) << "local rule accepted a disconnecting removal";
          ++proven;
        }
        if (!fill_rest) {
          // Only the ring is occupied, so the rule sees the whole picture
          // and must decide every center that touches an orthogonal
          // neighbor.
          const bool touches = grid.occupied_neighbor_count(center) > 0;
          ASSERT_EQ(verdict == LocalVerdict::kPreservesConnectivity,
                    touches && keeps);
        }
        if (center == interior && !fill_rest) {
          interior_verdict[ring] = verdict;
        } else {
          ASSERT_EQ(verdict, interior_verdict[on_surface])
              << "on-surface ring " << on_surface;
        }
      }
    }
  }
  EXPECT_GT(proven, 1000);
}


TEST(ConnectivityEquivalence, RandomGridsAgreeWithReference) {
  Rng rng(0xC0FFEEULL);
  std::vector<Vec2> cells;
  int batches_checked = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const Grid grid = random_grid(rng, cells);
    ASSERT_EQ(is_connected(grid), reference_is_connected(grid))
        << "trial " << trial;
    for (int b = 0; b < 12; ++b) {
      const MoveList moves = random_batch(grid, cells, rng);
      if (moves.empty()) continue;
      ++batches_checked;
      ASSERT_EQ(connected_after_moves(grid, moves),
                reference_connected_after(grid, moves))
          << "trial " << trial << " batch " << b;
      ASSERT_EQ(lat::single_line_after_moves(grid, moves),
                reference_single_line_after(grid, moves))
          << "trial " << trial << " batch " << b;
    }
  }
  // The generator must actually produce work (including degenerate shapes).
  EXPECT_GT(batches_checked, 2000);
}

TEST(ConnectivityEquivalence, LocalRuleIsSoundOnConnectedGrids) {
  Rng rng(0xBEEFULL);
  std::vector<Vec2> cells;
  int conclusive = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const Grid grid = random_grid(rng, cells);
    if (!reference_is_connected(grid) || grid.block_count() < 2) continue;
    const Vec2 from = cells[rng.pick_index(cells)];
    const Vec2 to = from + delta(static_cast<Direction>(rng.next_in(0, 3)));
    if (!grid.in_bounds(to) || grid.occupied(to)) continue;
    const MoveList moves{{from, to}};
    switch (local_move_check(grid, from, to)) {
      case LocalVerdict::kPreservesConnectivity:
        ++conclusive;
        ASSERT_TRUE(reference_connected_after(grid, moves))
            << "local rule accepted a disconnecting move, trial " << trial;
        break;
      case LocalVerdict::kDisconnects:
        ++conclusive;
        ASSERT_FALSE(reference_connected_after(grid, moves))
            << "local rule rejected a safe move, trial " << trial;
        break;
      case LocalVerdict::kInconclusive:
        break;  // the flood decides; covered by the suite above
    }
  }
  EXPECT_GT(conclusive, 100);  // the fast path must actually fire
}

TEST(ConnectivityEquivalence, HintCacheSurvivesMutations) {
  // Interleave queries with place/remove/move mutations: the cached
  // connectivity hint must never disagree with the reference.
  Rng rng(0x5EEDBEEFULL);
  std::vector<Vec2> cells;
  for (int trial = 0; trial < 120; ++trial) {
    Grid grid = random_grid(rng, cells);
    uint32_t next_id = 1000;
    for (int step = 0; step < 30; ++step) {
      const int action = static_cast<int>(rng.next_in(0, 2));
      if (action == 0 || cells.empty()) {  // place
        const Vec2 q{static_cast<int32_t>(rng.next_in(0, grid.width() - 1)),
                     static_cast<int32_t>(rng.next_in(0, grid.height() - 1))};
        if (!grid.occupied(q)) {
          grid.place(BlockId{next_id++}, q);
          cells.push_back(q);
        }
      } else if (action == 1) {  // remove
        const size_t index = rng.pick_index(cells);
        grid.remove(cells[index]);
        cells[index] = cells.back();
        cells.pop_back();
      } else {  // move to a random adjacent empty cell
        const size_t index = rng.pick_index(cells);
        const Vec2 from = cells[index];
        const Vec2 to =
            from + delta(static_cast<Direction>(rng.next_in(0, 3)));
        if (grid.in_bounds(to) && !grid.occupied(to)) {
          grid.move(from, to);
          cells[index] = to;
        }
      }
      ASSERT_EQ(is_connected(grid), reference_is_connected(grid))
          << "trial " << trial << " step " << step;
      ASSERT_EQ(is_single_line(grid),
                reference_single_line_after(grid, {}))
          << "trial " << trial << " step " << step;
    }
  }
}

}  // namespace
}  // namespace sb::lat
