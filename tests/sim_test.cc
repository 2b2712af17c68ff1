// Unit tests for the simulation substrate: terrain, dataset pipeline,
// tasks, user agents, and the study runner.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "array/array_store.h"
#include "sim/modis_dataset.h"
#include "sim/study.h"
#include "sim/task.h"
#include "sim/terrain.h"
#include "sim/user_agent.h"
#include "test_fixtures.h"

namespace fc::sim {
namespace {

TerrainOptions SmallTerrain() {
  TerrainOptions options;
  options.width = 128;
  options.height = 128;
  return options;
}

// ---------------------------------------------------------------------------
// Terrain

TEST(TerrainTest, DeterministicForSeed) {
  Terrain a(SmallTerrain());
  Terrain b(SmallTerrain());
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.Elevation(i, 2 * i % 128), b.Elevation(i, 2 * i % 128));
    EXPECT_DOUBLE_EQ(a.VisReflectance(i, i, 0), b.VisReflectance(i, i, 0));
  }
}

TEST(TerrainTest, SeedChangesField) {
  auto options = SmallTerrain();
  Terrain a(options);
  options.seed = 43;
  Terrain b(options);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Elevation(i, i) == b.Elevation(i, i)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(TerrainTest, MountainRangesAreElevated) {
  // Each range's center stands above the far corner. The non-square sizes
  // catch an elevation grid indexed column-major: on 96x160 that reads every
  // center below corner + 0.3.
  const std::pair<std::int64_t, std::int64_t> sizes[] = {
      {128, 128}, {160, 96}, {96, 160}};
  for (const auto& [width, height] : sizes) {
    auto options = SmallTerrain();
    options.width = width;
    options.height = height;
    Terrain terrain(options);
    double corner = terrain.Elevation(width - 1, height - 1);
    for (const auto& range : DefaultStudyRanges()) {
      SCOPED_TRACE(range.name + " on " + std::to_string(width) + "x" +
                   std::to_string(height));
      auto cx = static_cast<std::int64_t>(range.center_x * width);
      auto cy = static_cast<std::int64_t>(range.center_y * height);
      EXPECT_GT(terrain.Elevation(cx, cy), corner + 0.3);
    }
  }
}

TEST(TerrainTest, SnowConcentratesOnRanges) {
  auto options = SmallTerrain();
  Terrain terrain(options);
  auto range = DefaultStudyRanges()[0];
  auto cx = static_cast<std::int64_t>(range.center_x * options.width);
  auto cy = static_cast<std::int64_t>(range.center_y * options.height);
  // Ranges have peaks and passes; scan the center neighborhood for a peak.
  double best = 0.0;
  std::int64_t best_x = cx;
  std::int64_t best_y = cy;
  for (std::int64_t dy = -16; dy <= 16; dy += 4) {
    for (std::int64_t dx = -16; dx <= 16; dx += 4) {
      double s = terrain.SnowFraction(cx + dx, cy + dy, 0);
      if (s > best) {
        best = s;
        best_x = cx + dx;
        best_y = cy + dy;
      }
    }
  }
  EXPECT_GT(best, 0.5);
  // NDSI contrast at the peak: snow -> VIS >> SWIR.
  EXPECT_GT(terrain.VisReflectance(best_x, best_y, 0),
            terrain.SwirReflectance(best_x, best_y, 0));
}

TEST(TerrainTest, ReflectancesInPhysicalRange) {
  Terrain terrain(SmallTerrain());
  for (std::int64_t i = 0; i < 128; i += 7) {
    for (std::int64_t j = 0; j < 128; j += 7) {
      for (int day = 0; day < 3; ++day) {
        double vis = terrain.VisReflectance(i, j, day);
        double swir = terrain.SwirReflectance(i, j, day);
        EXPECT_GT(vis, 0.0);
        EXPECT_LE(vis, 1.0);
        EXPECT_GT(swir, 0.0);
        EXPECT_LE(swir, 1.0);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// NDSI function + dataset pipeline

TEST(NdsiTest, KnownValues) {
  EXPECT_DOUBLE_EQ(ModisDatasetBuilder::NdsiFunc(0.8, 0.2), 0.6);
  EXPECT_DOUBLE_EQ(ModisDatasetBuilder::NdsiFunc(0.2, 0.8), -0.6);
  EXPECT_DOUBLE_EQ(ModisDatasetBuilder::NdsiFunc(0.0, 0.0), 0.0);  // guarded
  EXPECT_GT(ModisDatasetBuilder::NdsiFunc(0.9, 0.1), 0.7);  // snow signature
}

TEST(ModisDatasetTest, PipelineStoresIntermediateArrays) {
  ModisDatasetOptions options;
  options.terrain.width = 64;
  options.terrain.height = 64;
  options.num_levels = 2;
  options.tile_size = 32;
  options.composite_days = 2;
  options.codebook_training_tiles = 4;

  array::ArrayStore catalog;
  ModisDatasetBuilder builder(options);
  auto dataset = builder.Build(&catalog);
  ASSERT_TRUE(dataset.ok());
  // Query 1's artifacts are in the catalog.
  EXPECT_TRUE(catalog.Contains("SVIS_d0"));
  EXPECT_TRUE(catalog.Contains("SSWIR_d1"));
  EXPECT_TRUE(catalog.Contains("NDSI_d0"));
  EXPECT_TRUE(catalog.Contains("NDSI"));

  // NDSI attribute ordering is min <= avg <= max everywhere.
  auto ndsi = catalog.Get("NDSI");
  ASSERT_TRUE(ndsi.ok());
  for (std::int64_t i = 0; i < (*ndsi)->schema().cell_count(); i += 17) {
    double mn = (*ndsi)->GetLinear(i, 0);
    double avg = (*ndsi)->GetLinear(i, 1);
    double mx = (*ndsi)->GetLinear(i, 2);
    EXPECT_LE(mn, avg + 1e-12);
    EXPECT_LE(avg, mx + 1e-12);
    EXPECT_GE(mn, -1.0);
    EXPECT_LE(mx, 1.0);
  }

  // Pyramid built with signature metadata on every tile.
  EXPECT_EQ(dataset->pyramid->tile_count(), 5u);  // 1 + 4
  for (const auto& key : dataset->pyramid->spec().AllKeys()) {
    auto md = dataset->pyramid->metadata().Get(key);
    ASSERT_TRUE(md.ok());
    EXPECT_EQ((*md)->signatures.size(), 4u);  // the paper's four signatures
  }
}

// ---------------------------------------------------------------------------
// Tasks

TEST(TaskTest, DefaultTasksMatchStudyShape) {
  auto tasks = DefaultStudyTasks(SmallTerrain(), 6);
  ASSERT_EQ(tasks.size(), 3u);
  EXPECT_EQ(tasks[0].target_level, 4);  // "level 6" analogue
  EXPECT_EQ(tasks[1].target_level, 5);  // "level 8" analogue
  EXPECT_EQ(tasks[2].target_level, 4);
  EXPECT_GT(tasks[0].ndsi_threshold, tasks[2].ndsi_threshold);
  for (const auto& t : tasks) {
    EXPECT_EQ(t.tiles_needed, 4);
    EXPECT_LT(t.x0, t.x1);
    EXPECT_LT(t.y0, t.y1);
  }
}

TEST(TaskTest, ContainsUsesTileCenter) {
  tiles::PyramidSpec spec;
  spec.num_levels = 3;
  spec.tile_width = 8;
  spec.tile_height = 8;
  spec.base_width = 32;
  spec.base_height = 32;
  Task task;
  task.x0 = 0.0;
  task.x1 = 0.5;
  task.y0 = 0.0;
  task.y1 = 0.5;
  // Level 2 has a 4x4 grid; tile (0,0) center = (0.125, 0.125), inside.
  EXPECT_TRUE(task.Contains({2, 0, 0}, spec));
  // Tile (3,3) center = (0.875, 0.875), outside.
  EXPECT_FALSE(task.Contains({2, 3, 3}, spec));
}

// ---------------------------------------------------------------------------
// UserAgent (uses the shared small study's pyramid)

TEST(UserAgentTest, CompletesTaskAndLabelsPhases) {
  const auto& study = testfx::SmallStudy();
  AgentPersonality personality = MakePersonality(0, 99);
  UserAgent agent(study.dataset.pyramid.get(), personality);
  auto trace = agent.RunTask(study.tasks[0], "tester");
  ASSERT_TRUE(trace.ok());
  ASSERT_GT(trace->records.size(), 5u);
  EXPECT_LE(static_cast<int>(trace->records.size()), UserAgent::kMaxSteps + 1);

  // First request: the root, no move, Foraging.
  EXPECT_EQ(trace->records[0].request.tile, (tiles::TileKey{0, 0, 0}));
  EXPECT_FALSE(trace->records[0].request.move.has_value());
  EXPECT_EQ(trace->records[0].phase, core::AnalysisPhase::kForaging);

  // Moves must form a connected path of valid moves.
  for (std::size_t i = 1; i < trace->records.size(); ++i) {
    const auto& prev = trace->records[i - 1].request.tile;
    const auto& cur = trace->records[i].request.tile;
    ASSERT_TRUE(trace->records[i].request.move.has_value());
    auto move = core::MoveBetween(prev, cur);
    ASSERT_TRUE(move.has_value())
        << prev.ToString() << " -> " << cur.ToString();
    EXPECT_EQ(*move, *trace->records[i].request.move);
  }

  // All three phases appear.
  std::set<core::AnalysisPhase> phases;
  for (const auto& rec : trace->records) phases.insert(rec.phase);
  EXPECT_EQ(phases.size(), 3u);
}

TEST(UserAgentTest, PhaseLabelsConsistentWithLevels) {
  const auto& study = testfx::SmallStudy();
  const auto& task = study.tasks[0];
  AgentPersonality personality = MakePersonality(1, 99);
  UserAgent agent(study.dataset.pyramid.get(), personality);
  auto trace = agent.RunTask(task, "tester");
  ASSERT_TRUE(trace.ok());
  for (const auto& rec : trace->records) {
    if (rec.phase == core::AnalysisPhase::kSensemaking) {
      // Sensemaking happens at (or next to, after a stray move) the target.
      EXPECT_GE(rec.request.tile.level, task.target_level - 1);
    }
  }
}

TEST(UserAgentTest, DeterministicGivenPersonality) {
  const auto& study = testfx::SmallStudy();
  AgentPersonality personality = MakePersonality(2, 99);
  UserAgent a(study.dataset.pyramid.get(), personality);
  UserAgent b(study.dataset.pyramid.get(), personality);
  auto ta = a.RunTask(study.tasks[1], "x");
  auto tb = b.RunTask(study.tasks[1], "x");
  ASSERT_TRUE(ta.ok() && tb.ok());
  ASSERT_EQ(ta->records.size(), tb->records.size());
  for (std::size_t i = 0; i < ta->records.size(); ++i) {
    EXPECT_EQ(ta->records[i].request.tile, tb->records[i].request.tile);
  }
}

TEST(UserAgentTest, PersonalitiesVary) {
  auto p0 = MakePersonality(0, 4242);
  auto p1 = MakePersonality(1, 4242);
  EXPECT_TRUE(p0.seed != p1.seed);
}

TEST(UserAgentTest, RejectsBadTask) {
  const auto& study = testfx::SmallStudy();
  UserAgent agent(study.dataset.pyramid.get(), MakePersonality(0, 1));
  Task bad = study.tasks[0];
  bad.target_level = 99;
  EXPECT_FALSE(agent.RunTask(bad, "x").ok());
}

// ---------------------------------------------------------------------------
// Study

TEST(StudyTest, FullMatrixRuns) {
  const auto& study = testfx::SmallStudy();
  EXPECT_EQ(study.traces.size(), 6u * 3u);
  EXPECT_EQ(study.UserIds().size(), 6u);
  EXPECT_EQ(study.TracesForTask(2).size(), 6u);
  EXPECT_EQ(study.TracesExcludingUser("user01").size(), 15u);
  for (const auto& trace : study.traces) {
    EXPECT_GT(trace.records.size(), 3u) << trace.user_id << "/" << trace.task_id;
  }
}

TEST(StudyTest, TracesVisitTargetLevels) {
  const auto& study = testfx::SmallStudy();
  for (const auto& task : study.tasks) {
    std::size_t deep_traces = 0;
    for (const auto& trace : study.TracesForTask(task.id)) {
      for (const auto& rec : trace.records) {
        if (rec.request.tile.level >= task.target_level) {
          ++deep_traces;
          break;
        }
      }
    }
    EXPECT_GE(deep_traces, 5u) << "task " << task.id;
  }
}

TEST(StudyTest, ZoomInDominatesMoves) {
  // Paper Figure 8a: users spent the most time zooming in, for all tasks.
  const auto& study = testfx::SmallStudy();
  std::size_t pans = 0;
  std::size_t ins = 0;
  std::size_t outs = 0;
  for (const auto& trace : study.traces) {
    for (const auto& rec : trace.records) {
      if (!rec.request.move.has_value()) continue;
      switch (core::ClassOf(*rec.request.move)) {
        case core::MoveClass::kPan: ++pans; break;
        case core::MoveClass::kZoomIn: ++ins; break;
        case core::MoveClass::kZoomOut: ++outs; break;
      }
    }
  }
  EXPECT_GT(ins, outs);  // descents aren't all undone
  EXPECT_GT(pans, 0u);
  EXPECT_GT(outs, 0u);
}

}  // namespace
}  // namespace fc::sim
