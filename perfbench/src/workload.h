// Seeded workload generation: the study every workload replays, the trained
// prediction components, and each session's generated request sequence.
//
// The workload seed sets three things and nothing else:
//  * StudyOptions.seed — which user traces the simulated study produces
//    (the terrain and tile pyramid stay fixed);
//  * which trace each session replays, from what start offset, and (on
//    push64 and disk_churn) whether mirrored left-right and/or top-bottom;
//  * the turn order sessions take.
// A session starts at the root tile, zooms straight down to where its trace
// was at the start offset, then replays the trace's moves from there. Moves
// that would leave the pyramid are dropped here, at generation time, and
// counted, so every request the program under test receives is expected to
// succeed.

#ifndef FORECACHE_PERFBENCH_WORKLOAD_H_
#define FORECACHE_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/ab_recommender.h"
#include "core/allocation.h"
#include "core/move.h"
#include "core/phase_classifier.h"
#include "core/sb_recommender.h"
#include "sim/study.h"

namespace perfbench {

enum class WorkloadKind { kPush64, kPaperSync, kDiskChurn };

/// Parses "push64" / "paper_sync" / "disk_churn"; false when unknown.
bool ParseWorkload(const std::string& name, WorkloadKind* kind);
const char* WorkloadName(WorkloadKind kind);

/// One session's generated requests: Open() of the root tile, then one
/// ApplyMove per entry of `moves`. keys[i] is the tile request i must serve
/// (keys.size() == moves.size() + 1).
struct SessionPlan {
  std::size_t trace_index = 0;
  std::size_t start_offset = 0;
  std::vector<fc::core::Move> moves;
  std::vector<fc::tiles::TileKey> keys;
};

struct WorkloadPlan {
  std::vector<SessionPlan> sessions;
  /// Order in which sessions take turns (each round, or one after another).
  std::vector<std::size_t> turn_order;
  std::uint64_t requests = 0;       ///< Requests per replay of the plan.
  std::uint64_t dropped_moves = 0;  ///< Trace moves that left the pyramid.
  std::size_t distinct_tiles = 0;   ///< Working set: distinct keys requested.
};

/// Prediction components trained once on the study's traces.
struct TrainedModels {
  std::unique_ptr<fc::core::PhaseClassifier> classifier;
  std::unique_ptr<fc::core::AbRecommender> ab;
  std::unique_ptr<fc::core::SbRecommender> sb;
  fc::core::HybridAllocationStrategy strategy;
};

/// Builds the small study (512x512 terrain, 5 levels, 18 users x 3 tasks)
/// with StudyOptions.seed derived from `seed`.
fc::Result<fc::sim::Study> BuildStudy(std::uint64_t seed);

/// Trains the phase classifier and AB recommender on every study trace and
/// builds the SB recommender over the pyramid's signatures.
fc::Result<TrainedModels> TrainModels(const fc::sim::Study& study);

/// Plans one run cycles through: epoch i replays plan i % PlansPerCycle.
/// Several plans per run average over more of the study's traces than one
/// replay can.
std::size_t PlansPerCycle(WorkloadKind kind);

/// Generates plan `index` of the request sequences `kind` replays.
WorkloadPlan MakePlan(WorkloadKind kind, const fc::sim::Study& study,
                      std::uint64_t seed, std::size_t index);

}  // namespace perfbench

#endif  // FORECACHE_PERFBENCH_WORKLOAD_H_
