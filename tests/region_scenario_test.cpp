// Tests for the I/O region model (§III) and scenarios.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "lattice/region.hpp"
#include "lattice/scenario.hpp"

namespace sb::lat {
namespace {

// ---------------------------------------------------------------------------
// Region / oriented graph (paper §III)
// ---------------------------------------------------------------------------

TEST(Region, BoundingRectNormalizesCorners) {
  const Rect rect = bounding_rect({5, 1}, {2, 7});
  EXPECT_EQ(rect.lo, Vec2(2, 1));
  EXPECT_EQ(rect.hi, Vec2(5, 7));
  EXPECT_EQ(rect.width(), 4);
  EXPECT_EQ(rect.height(), 7);
  EXPECT_TRUE(rect.contains({3, 3}));
  EXPECT_FALSE(rect.contains({1, 3}));
}

TEST(Region, DegenerateRectForAlignedIO) {
  const Rect rect = bounding_rect({1, 0}, {1, 10});
  EXPECT_EQ(rect.width(), 1);
  EXPECT_EQ(rect.height(), 11);
  EXPECT_TRUE(rect.contains({1, 5}));
  EXPECT_FALSE(rect.contains({0, 5}));
}

TEST(Region, OrientedDirectionsLeftUp) {
  // Fig 2: output left and above the input -> left-up oriented graph.
  const auto dirs = oriented_directions({5, 1}, {2, 7});
  ASSERT_EQ(dirs.size(), 2u);
  EXPECT_EQ(dirs[0], Direction::kWest);
  EXPECT_EQ(dirs[1], Direction::kNorth);
}

TEST(Region, OrientedDirectionsAligned) {
  const auto dirs = oriented_directions({1, 0}, {1, 10});
  ASSERT_EQ(dirs.size(), 1u);
  EXPECT_EQ(dirs[0], Direction::kNorth);
}

TEST(Region, OrientedGraphLinkCount) {
  // For a w x h rectangle with both directions: w*h*(2) - w - h edges
  // (each node has up to one west and one north link).
  const auto links = oriented_graph_links({3, 0}, {0, 2});  // 4 x 3 rect
  // 4*3 nodes; west links: 3 per row * 3 rows = 9; north: 4 per col * 2 = 8.
  EXPECT_EQ(links.size(), 17u);
  for (const auto& [from, to] : links) {
    EXPECT_EQ(manhattan(from, to), 1);
    // Every link points toward O (west or north here).
    EXPECT_TRUE(to.x < from.x || to.y > from.y);
  }
}

TEST(Region, ShortestPathCells) {
  EXPECT_EQ(shortest_path_cells({1, 0}, {1, 10}), 11);
  EXPECT_EQ(shortest_path_cells({0, 0}, {3, 4}), 8);
}

TEST(Region, MaxShortestPathMatchesPaper) {
  // §III: the maximum length of a shortest path is W + H - 1.
  EXPECT_EQ(max_shortest_path_cells(6, 12), 17);
  EXPECT_EQ(max_shortest_path_cells(2, 2), 3);
}

TEST(Region, OccupiedShortestPathStraight) {
  Grid grid(4, 6);
  for (int32_t y = 0; y <= 4; ++y) grid.place(BlockId{uint32_t(y + 1)}, {1, y});
  const auto path = occupied_shortest_path(grid, {1, 0}, {1, 4});
  ASSERT_TRUE(path.has_value());
  ASSERT_EQ(path->size(), 5u);
  EXPECT_EQ(path->front(), Vec2(1, 0));
  EXPECT_EQ(path->back(), Vec2(1, 4));
}

TEST(Region, OccupiedShortestPathStaircase) {
  // L-shaped occupied path from (0,0) to (2,2).
  Grid grid(4, 4);
  uint32_t id = 1;
  for (const Vec2 cell :
       {Vec2{0, 0}, Vec2{1, 0}, Vec2{2, 0}, Vec2{2, 1}, Vec2{2, 2}}) {
    grid.place(BlockId{id++}, cell);
  }
  const auto path = occupied_shortest_path(grid, {0, 0}, {2, 2});
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 5u);
}

TEST(Region, IncompletePathReturnsNullopt) {
  Grid grid(4, 6);
  grid.place(BlockId{1}, {1, 0});
  grid.place(BlockId{2}, {1, 1});
  grid.place(BlockId{3}, {1, 4});  // gap at y=2,3
  EXPECT_FALSE(occupied_shortest_path(grid, {1, 0}, {1, 4}).has_value());
  EXPECT_FALSE(path_complete(grid, {1, 0}, {1, 4}));
}

TEST(Region, DetourDoesNotCountAsShortestPath) {
  // Occupied connection exists but is longer than Manhattan: not a
  // *shortest* path.
  Grid grid(4, 4);
  uint32_t id = 1;
  for (const Vec2 cell : {Vec2{0, 0}, Vec2{0, 1}, Vec2{1, 1}, Vec2{2, 1},
                          Vec2{2, 0}}) {
    grid.place(BlockId{id++}, cell);
  }
  // From (0,0) to (2,0): manhattan 2, but the straight cell (1,0) is empty.
  EXPECT_FALSE(path_complete(grid, {0, 0}, {2, 0}));
}

TEST(Region, StrayBlocksAreAllowed) {
  Grid grid(4, 6);
  for (int32_t y = 0; y <= 4; ++y) grid.place(BlockId{uint32_t(y + 1)}, {1, y});
  grid.place(BlockId{99}, {3, 3});  // stray spare
  EXPECT_TRUE(path_complete(grid, {1, 0}, {1, 4}));
}

// ---------------------------------------------------------------------------
// Scenario format
// ---------------------------------------------------------------------------

TEST(Scenario, ParseBasic) {
  const Scenario s = parse_scenario(
      "# comment\n"
      "name t\n"
      "size 4 5\n"
      "input 1 0\n"
      "output 1 4\n"
      "block 7 1 0\n"
      "block 8 2 0\n");
  EXPECT_EQ(s.name, "t");
  EXPECT_EQ(s.width, 4);
  EXPECT_EQ(s.height, 5);
  EXPECT_EQ(s.input, Vec2(1, 0));
  EXPECT_EQ(s.output, Vec2(1, 4));
  ASSERT_EQ(s.blocks.size(), 2u);
  EXPECT_EQ(s.root_id(), BlockId{7});

  // The extremes that fit still parse; validate() judges them.
  const Scenario t = parse_scenario(
      "size 2147483647 1\ninput 0 0\noutput 1 0\n"
      "block 4294967294 -2147483648 2147483647\n");
  EXPECT_EQ(t.width, INT32_MAX);
  ASSERT_EQ(t.blocks.size(), 1u);
  EXPECT_EQ(t.blocks[0].first, BlockId{4294967294u});
  EXPECT_EQ(t.blocks[0].second, Vec2(INT32_MIN, INT32_MAX));
}

TEST(Scenario, RoundTrip) {
  const Scenario original = make_fig10_scenario();
  const Scenario parsed = parse_scenario(serialize_scenario(original));
  EXPECT_EQ(parsed.name, original.name);
  EXPECT_EQ(parsed.width, original.width);
  EXPECT_EQ(parsed.input, original.input);
  EXPECT_EQ(parsed.output, original.output);
  EXPECT_EQ(parsed.blocks, original.blocks);
}

TEST(Scenario, ParseErrorsCarryLineNumbers) {
  // Besides malformed lines, numbers that do not fit their field: block
  // ids must stay below the invalid-id sentinel UINT32_MAX (2^32 + 1 must
  // not wrap to #1), sizes and cells must fit int32_t (a width of
  // 2^32 + 10 must not wrap to 10). An id that is not a number, or does not
  // fit int64_t, is reported as such, not as a negative id.
  struct Case {
    std::string text;
    std::string line;
    std::string message;
  };
  const std::string head = "size 10 10\ninput 0 0\noutput 3 0\n";
  const std::vector<Case> cases = {
      {"size 4 4\ninput 0 0\nbogus 1 2\n", "line 3",
       "unknown keyword 'bogus'"},
      {head + "block 4294967297 1 0\n", "line 4",
       "block id 4294967297 must be below 4294967295"},
      {head + "block 4294967295 1 0\n", "line 4",
       "block id 4294967295 must be below 4294967295"},
      {head + "block 99999999999999999999 1 0\n", "line 4",
       "expected an integer block id, got '99999999999999999999'"},
      {head + "block abc 0 0\n", "line 4",
       "expected an integer block id, got 'abc'"},
      {head + "block -3 0 0\n", "line 4", "block id must be >= 0"},
      {head + "block 1 2147483648 0\n", "line 4",
       "2147483648 does not fit a 32-bit coordinate"},
      {head + "block 1 0 -2147483649\n", "line 4",
       "-2147483649 does not fit a 32-bit coordinate"},
      {head + "block 1 x 0\n", "line 4", "expected an integer, got 'x'"},
      {"size 4294967306 10\ninput 0 0\noutput 3 0\n", "line 1",
       "4294967306 does not fit a 32-bit coordinate"},
      {"size 10 -4294967286\ninput 0 0\noutput 3 0\n", "line 1",
       "-4294967286 does not fit a 32-bit coordinate"},
      {"size 10 10\ninput 4294967296 0\noutput 3 0\n", "line 2",
       "4294967296 does not fit a 32-bit coordinate"},
      {"size 10 10\ninput 0 0\noutput 3 2147483648\n", "line 3",
       "2147483648 does not fit a 32-bit coordinate"},
  };
  for (const auto& [text, line, message] : cases) {
    try {
      (void)parse_scenario(text);
      ADD_FAILURE() << "expected a parse error for:\n" << text;
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(std::string(error.what()),
                "scenario parse error at " + line + ": " + message);
    }
  }
}

TEST(Scenario, MissingSizeFails) {
  EXPECT_THROW((void)parse_scenario("input 0 0\noutput 1 1\n"),
               std::runtime_error);
}

TEST(Scenario, ToGridPlacesAllBlocks) {
  const Scenario s = make_fig10_scenario();
  const Grid grid = s.to_grid();
  EXPECT_EQ(grid.block_count(), 12u);
  EXPECT_TRUE(grid.occupied(s.input));
}

// ---------------------------------------------------------------------------
// Validation (the paper's assumptions)
// ---------------------------------------------------------------------------

TEST(ScenarioValidate, Fig10IsValid) {
  EXPECT_TRUE(validate(make_fig10_scenario()).empty());
}

TEST(ScenarioValidate, RejectsMissingRoot) {
  Scenario s = make_fig10_scenario();
  s.input = {0, 0};  // no block there
  const auto issues = validate(s);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].find("input"), std::string::npos);
}

TEST(ScenarioValidate, RejectsOccupiedOutput) {
  Scenario s = make_fig10_scenario();
  s.output = {2, 3};  // a blob cell
  EXPECT_FALSE(validate(s).empty());
}

TEST(ScenarioValidate, RejectsDisconnectedBlocks) {
  Scenario s = make_fig10_scenario();
  s.blocks.emplace_back(BlockId{99}, Vec2{5, 11});
  EXPECT_FALSE(validate(s).empty());
}

TEST(ScenarioValidate, RejectsSingleLine) {
  // Assumption 1 excludes a pure column of blocks (enough blocks for the
  // path, so the single-line issue is the only one).
  Scenario s;
  s.width = 5;
  s.height = 8;
  s.input = {1, 0};
  s.output = {3, 2};  // 5 path cells
  for (uint32_t y = 0; y < 6; ++y) {
    s.blocks.emplace_back(BlockId{y + 1}, Vec2{1, static_cast<int32_t>(y)});
  }
  const auto issues = validate(s);
  ASSERT_FALSE(issues.empty());
  bool mentions_line = false;
  for (const auto& issue : issues) {
    mentions_line |= issue.find("single") != std::string::npos;
  }
  EXPECT_TRUE(mentions_line);
}

TEST(ScenarioValidate, RejectsTooFewBlocks) {
  Scenario s;
  s.width = 4;
  s.height = 12;
  s.input = {1, 0};
  s.output = {1, 10};  // 11 path cells
  s.blocks = {{BlockId{1}, {1, 0}}, {BlockId{2}, {2, 0}},
              {BlockId{3}, {1, 1}}};
  EXPECT_FALSE(validate(s).empty());
}

TEST(ScenarioValidate, RejectsDuplicates) {
  Scenario s = make_fig10_scenario();
  s.blocks.emplace_back(BlockId{1}, Vec2{4, 4});  // duplicate id
  EXPECT_FALSE(validate(s).empty());

  Scenario t = make_fig10_scenario();
  t.blocks.emplace_back(BlockId{99}, t.blocks.front().second);  // shared cell
  EXPECT_FALSE(validate(t).empty());
}

TEST(ScenarioValidate, ReportsPerBlockFaultsInBlockOrder) {
  // One of each per-block fault, appended after fig10's twelve valid
  // blocks (surface 6x12). Issues come in block order, and within a block
  // in id-then-cell order; a second invalid id also counts as a duplicate.
  Scenario s = make_fig10_scenario();
  s.blocks.emplace_back(kInvalidBlock, Vec2{4, 4});
  s.blocks.emplace_back(BlockId{1}, Vec2{5, 5});   // duplicate id
  s.blocks.emplace_back(BlockId{90}, Vec2{9, 9});  // off the surface
  s.blocks.emplace_back(BlockId{91}, Vec2{1, 0});  // on the Root's cell
  s.blocks.emplace_back(kInvalidBlock, Vec2{4, 5});
  s.blocks.emplace_back(BlockId{2}, Vec2{2, 0});   // duplicate id, shared
  s.blocks.emplace_back(BlockId{3}, Vec2{-1, 0});  // duplicate id, off
  const std::vector<std::string> expected = {
      "invalid block id in scenario",
      "duplicate block id #1",
      "block #90 at (9,9) is outside the surface",
      "two blocks share cell (1,0)",
      "invalid block id in scenario",
      "duplicate block id #invalid",
      "duplicate block id #2",
      "two blocks share cell (2,0)",
      "duplicate block id #3",
      "block #3 at (-1,0) is outside the surface",
  };
  EXPECT_EQ(validate(s), expected);
}

TEST(ScenarioValidate, RejectsIdsAboveTheDenseLimit) {
  // The dense id->position index caps ids at Grid::kMaxBlockIdValue;
  // validate reports a larger id, so to_grid() never sees it.
  const Scenario s = parse_scenario(
      "size 10 10\ninput 0 0\noutput 3 0\n"
      "block 1 0 0\nblock 70000000 1 0\nblock 2 2 0\n"
      "block 5 0 1\nblock 6 1 1\n");
  const std::vector<std::string> expected = {
      "block id #70000000 exceeds the dense-id limit (67108863)"};
  EXPECT_EQ(validate(s), expected);

  // The limit itself is accepted, one above it is not. A duplicate id
  // stops validation before to_grid(), so the test never allocates the
  // 2^26-entry index a valid scenario with that id would get.
  Scenario t = make_fig10_scenario();
  t.blocks.emplace_back(BlockId{1}, Vec2{4, 4});
  t.blocks[11].first = BlockId{Grid::kMaxBlockIdValue};
  const std::vector<std::string> at_limit = {"duplicate block id #1"};
  EXPECT_EQ(validate(t), at_limit);
  t.blocks[11].first = BlockId{Grid::kMaxBlockIdValue + 1};
  const std::vector<std::string> above_limit = {
      "block id #67108864 exceeds the dense-id limit (67108863)",
      "duplicate block id #1"};
  EXPECT_EQ(validate(t), above_limit);
}

TEST(ScenarioValidate, RejectsSurfacesAboveTheCellLimit) {
  // 10^10 cells: validate reports the area before it allocates the
  // per-cell occupancy array, so this test allocates nothing of that size.
  const Scenario s = parse_scenario(
      "size 100000 100000\ninput 0 0\noutput 3 0\n"
      "block 1 0 0\nblock 2 1 0\nblock 3 2 0\nblock 4 0 1\nblock 5 1 1\n");
  const std::vector<std::string> expected = {
      "surface 100000x100000 has 10000000000 cells, above the limit "
      "(134217728)"};
  EXPECT_EQ(validate(s), expected);
  // The largest generated world stays under the limit.
  EXPECT_LE(size_t{5} * 10'000'000, Grid::kMaxCells);
}

TEST(ScenarioValidate, RejectsOutOfBoundsIO) {
  Scenario s = make_fig10_scenario();
  s.output = {99, 99};
  EXPECT_FALSE(validate(s).empty());
}

TEST(ScenarioValidate, RejectsInputEqualsOutput) {
  Scenario s = make_fig10_scenario();
  s.output = s.input;
  EXPECT_FALSE(validate(s).empty());
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

TEST(ScenarioGen, Fig10MatchesPaperNumbers) {
  const Scenario s = make_fig10_scenario();
  EXPECT_EQ(s.block_count(), 12u);  // twelve blocks (paper §V.D)
  // "shortest path distance between I and O equal to eleven" (11 cells).
  EXPECT_EQ(shortest_path_cells(s.input, s.output), 11);
  EXPECT_EQ(s.input.x, s.output.x);  // same column, as in Fig 10
}

TEST(ScenarioGen, TowerHasLemmaExtremalShape) {
  for (int32_t k : {2, 3, 5, 8}) {
    const Scenario s = make_tower_scenario(k);
    EXPECT_TRUE(validate(s).empty()) << "tower " << k;
    // Lemma 1: N blocks for a path of N-1 cells.
    EXPECT_EQ(static_cast<int32_t>(s.block_count()),
              shortest_path_cells(s.input, s.output) + 1);
  }
}

TEST(ScenarioGen, RandomBlobIsValidAndDeterministic) {
  BlobParams params;
  params.surface_width = 12;
  params.surface_height = 12;
  params.input = {2, 1};
  params.output = {9, 9};
  params.block_count = 20;
  Rng rng_a(77);
  Rng rng_b(77);
  const Scenario a = random_blob_scenario(params, rng_a);
  const Scenario b = random_blob_scenario(params, rng_b);
  EXPECT_TRUE(validate(a).empty());
  EXPECT_EQ(a.blocks, b.blocks);  // deterministic for equal RNG state
  EXPECT_EQ(a.block_count(), 20u);
}

TEST(ScenarioGen, RandomBlobAvoidsOutputAlignment) {
  BlobParams params;
  params.surface_width = 14;
  params.surface_height = 14;
  params.input = {2, 2};
  params.output = {10, 10};
  params.block_count = 30;
  Rng rng(5);
  const Scenario s = random_blob_scenario(params, rng);
  const Rect rect = bounding_rect(params.input, params.output);
  for (const auto& [id, pos] : s.blocks) {
    if (pos == params.input) continue;
    const bool aligned = pos.x == params.output.x || pos.y == params.output.y;
    EXPECT_FALSE(aligned && rect.contains(pos))
        << "block " << id << " starts frozen at " << pos;
  }
}

TEST(ScenarioGen, RectangleScenario) {
  const Scenario s =
      make_rectangle_scenario(10, 10, {1, 1}, 3, 4, {1, 1}, {8, 8});
  EXPECT_EQ(s.block_count(), 12u);
  EXPECT_TRUE(s.to_grid().occupied({3, 4}));
  EXPECT_FALSE(s.to_grid().occupied({4, 5}));
}

// ---------------------------------------------------------------------------
// resolve_scenario — the CLI scenario vocabulary shared by tools/sweep,
// examples/large_scale, and the benches.
// ---------------------------------------------------------------------------

TEST(ResolveScenario, ParsesSizedNames) {
  EXPECT_EQ(parse_sized_scenario_name("tower64", "tower"), 64);
  EXPECT_EQ(parse_sized_scenario_name("blob100000", "blob"), 100000);
  EXPECT_EQ(parse_sized_scenario_name("tower", "tower"), -1);    // no digits
  EXPECT_EQ(parse_sized_scenario_name("tower6x", "tower"), -1);  // junk tail
  EXPECT_EQ(parse_sized_scenario_name("blob64", "tower"), -1);   // bad prefix
  EXPECT_EQ(parse_sized_scenario_name("xtower64", "tower"), -1);  // infix
}

TEST(ResolveScenario, TowerBlobRectAndFig10) {
  const Scenario tower = resolve_scenario("tower16");
  EXPECT_EQ(tower.block_count(), 16u);
  EXPECT_TRUE(validate(tower).empty());

  const Scenario blob = resolve_scenario("blob64", 0x5eed);
  EXPECT_EQ(blob.block_count(), 64u);
  EXPECT_TRUE(validate(blob).empty());

  const Scenario rect = resolve_scenario("rect100");
  EXPECT_GE(rect.block_count(), 64u);
  EXPECT_TRUE(validate(rect).empty());

  EXPECT_EQ(resolve_scenario("fig10").block_count(), 12u);
}

TEST(ResolveScenario, BlobIsDeterministicPerSeed) {
  const Scenario a = resolve_scenario("blob128", 42);
  const Scenario b = resolve_scenario("blob128", 42);
  const Scenario c = resolve_scenario("blob128", 43);
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_NE(a.blocks, c.blocks);
}

TEST(ResolveScenario, RejectsBadSizes) {
  EXPECT_THROW(resolve_scenario("tower15"), std::runtime_error);  // odd
  EXPECT_THROW(resolve_scenario("tower2"), std::runtime_error);   // too small
  EXPECT_THROW(resolve_scenario("blob63"), std::runtime_error);
  EXPECT_THROW(resolve_scenario("blob10000001"), std::runtime_error);
  EXPECT_THROW(resolve_scenario("rect1"), std::runtime_error);
}

TEST(ResolveScenario, FallsBackToScenarioFiles) {
  const Scenario s =
      resolve_scenario(std::string(SMARTBLOCKS_DATA_DIR) +
                       "/scenarios/fig10.surf");
  EXPECT_EQ(s.block_count(), 12u);
  EXPECT_THROW(resolve_scenario("no/such/file.surf"), std::runtime_error);

  // A file that fails validate() is rejected with its issues, so no
  // session is ever built (and asserts) on it.
  const std::string path = ::testing::TempDir() + "big_id.surf";
  {
    std::ofstream out(path);
    out << "size 10 10\ninput 0 0\noutput 3 0\n"
           "block 1 0 0\nblock 70000000 1 0\nblock 2 2 0\n"
           "block 5 0 1\nblock 6 1 1\n";
  }
  try {
    (void)resolve_scenario(path);
    ADD_FAILURE() << "expected an invalid-scenario error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what())
                  .find("is invalid: block id #70000000 exceeds the "
                        "dense-id limit (67108863)"),
              std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

TEST(ResolveScenario, RejectsSurfaceFilesAboveTheCellLimit) {
  const std::string path = ::testing::TempDir() + "huge_surface.surf";
  {
    std::ofstream out(path);
    out << "size 100000 100000\ninput 0 0\noutput 3 0\n"
           "block 1 0 0\nblock 2 1 0\nblock 3 2 0\n"
           "block 4 0 1\nblock 5 1 1\n";
  }
  try {
    (void)resolve_scenario(path);
    ADD_FAILURE() << "expected an invalid-scenario error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what())
                  .find("is invalid: surface 100000x100000 has 10000000000 "
                        "cells, above the limit (134217728)"),
              std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sb::lat
