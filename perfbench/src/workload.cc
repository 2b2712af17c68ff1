#include "workload.h"

#include <algorithm>
#include <unordered_set>

#include "sim/modis_dataset.h"

namespace perfbench {
namespace {

/// Shape of one workload's sessions.
struct Shape {
  std::size_t sessions = 0;  ///< 0: one session per trace.
  /// Session s of plan p replays trace (s + p x sessions) % traces, so the
  /// plans of a cycle spread evenly over the whole study, instead of a
  /// seed-chosen trace.
  bool spread = false;
  /// Trace moves each session replays after its start offset. Sessions of
  /// one length weigh every trace alike, whatever its length.
  std::size_t window = 0;
  /// Each session replays its trace mirrored left-right and/or top-bottom
  /// (seed-chosen), which spreads sessions of one trace over up to four
  /// regions of the pyramid.
  bool mirror = false;
  std::size_t plans = 1;  ///< Plans per cycle (see PlansPerCycle).
};

// push64: 64 sessions over seed-chosen, seed-mirrored traces, so sessions
// replaying one trace the same way round overlap and the cross-session
// layers (shared cache, merged fills) have work to share, while the mirrors
// keep first-touch misses above 1%.
// paper_sync: every trace once per plan, unmirrored — the paper's one-user
// replay.
// disk_churn: sessions spread evenly over every trace, mirrored, so
// sessions share little and the small cache churns.
// Start offsets are uniform over the trace, so a plan mixes every phase.
Shape ShapeOf(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kPush64: return {64, false, 16, true, 1};
    case WorkloadKind::kPaperSync: return {0, true, 32, false, 4};
    case WorkloadKind::kDiskChurn: return {36, true, 32, true, 4};
  }
  return {};
}

/// The move a mirrored replay makes in place of `move`.
fc::core::Move Mirror(fc::core::Move move, bool flip_x, bool flip_y) {
  using fc::core::Move;
  if (flip_x && move == Move::kPanLeft) return Move::kPanRight;
  if (flip_x && move == Move::kPanRight) return Move::kPanLeft;
  if (flip_y && move == Move::kPanUp) return Move::kPanDown;
  if (flip_y && move == Move::kPanDown) return Move::kPanUp;
  if (fc::core::IsZoomIn(move)) {
    // Quadrant q covers child (q % 2, q / 2): x flips bit 0, y flips bit 1.
    const int quadrant = fc::core::ZoomQuadrant(move) ^ (flip_x ? 1 : 0) ^
                         (flip_y ? 2 : 0);
    return static_cast<Move>(static_cast<int>(Move::kZoomInNW) + quadrant);
  }
  return move;
}

/// SplitMix64: small, portable, and fully determined by the seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t Below(std::size_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  std::uint64_t state_;
};

/// The paper's 18 participants x 3 tasks = 54 traces. Traces cost little
/// next to the terrain and pyramid, and more of them per study keep one
/// seed's workload from straying far from another's.
constexpr int kStudyUsers = 18;

/// Labeled records the phase classifier trains on (every study of the small
/// size has well over this many).
constexpr std::size_t kClassifierTrainingRows = 512;

/// Study seeds stay clear of the library's default (4242) for every
/// workload seed, so no seed reproduces the paper-figure traces.
constexpr std::uint64_t kStudySeedBase = 1'000'003;

SessionPlan MakeSession(const fc::core::Trace& trace, std::size_t trace_index,
                        std::size_t offset, std::size_t window, bool flip_x,
                        bool flip_y, const fc::tiles::PyramidSpec& spec,
                        std::uint64_t* dropped) {
  SessionPlan plan;
  plan.trace_index = trace_index;
  plan.start_offset = offset;
  fc::tiles::TileKey current{0, 0, 0};
  plan.keys.push_back(current);

  // Zoom from the root straight down to the trace's position at the offset.
  fc::tiles::TileKey start = trace.records[offset].request.tile;
  if (flip_x) start.x = spec.TilesX(start.level) - 1 - start.x;
  if (flip_y) start.y = spec.TilesY(start.level) - 1 - start.y;
  std::vector<fc::tiles::TileKey> path;
  for (fc::tiles::TileKey key = start; key.level > 0; key = key.Parent()) {
    path.push_back(key);
  }
  std::reverse(path.begin(), path.end());
  std::vector<fc::core::Move> moves;
  for (const auto& key : path) {
    auto move = fc::core::MoveBetween(current, key);
    if (!move.has_value()) break;
    moves.push_back(*move);
    current = key;
  }
  const std::size_t end = std::min(trace.records.size(), offset + 1 + window);
  for (std::size_t i = offset + 1; i < end; ++i) {
    if (trace.records[i].request.move.has_value()) {
      moves.push_back(Mirror(*trace.records[i].request.move, flip_x, flip_y));
    }
  }

  // Simulate from the root; a move that leaves the pyramid is dropped.
  current = fc::tiles::TileKey{0, 0, 0};
  for (fc::core::Move move : moves) {
    auto next = fc::core::ApplyMove(current, move, spec);
    if (!next.has_value()) {
      ++*dropped;
      continue;
    }
    plan.moves.push_back(move);
    plan.keys.push_back(*next);
    current = *next;
  }
  return plan;
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadKind* kind) {
  for (WorkloadKind k : {WorkloadKind::kPush64, WorkloadKind::kPaperSync,
                         WorkloadKind::kDiskChurn}) {
    if (name == WorkloadName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kPush64: return "push64";
    case WorkloadKind::kPaperSync: return "paper_sync";
    case WorkloadKind::kDiskChurn: return "disk_churn";
  }
  return "?";
}

fc::Result<fc::sim::Study> BuildStudy(std::uint64_t seed) {
  fc::sim::ModisDatasetOptions dataset = fc::sim::DefaultStudyDataset();
  dataset.terrain.width = 512;
  dataset.terrain.height = 512;
  dataset.num_levels = 5;
  fc::sim::StudyOptions options;
  options.num_users = kStudyUsers;
  options.seed = kStudySeedBase + seed;
  return fc::sim::RunStudy(dataset, options);
}

fc::Result<TrainedModels> TrainModels(const fc::sim::Study& study) {
  TrainedModels models;
  // A fixed training budget keeps the SVM's size — and with it the cost of
  // every phase prediction and the training set's memory — from swinging
  // with the study's trace lengths from seed to seed.
  fc::core::PhaseClassifierOptions classifier_options;
  classifier_options.max_training_rows = kClassifierTrainingRows;
  FC_ASSIGN_OR_RETURN(auto classifier, fc::core::PhaseClassifier::Train(
                                           study.traces, classifier_options));
  FC_ASSIGN_OR_RETURN(auto ab, fc::core::AbRecommender::Make());
  FC_RETURN_IF_ERROR(ab.Train(study.traces));
  models.classifier =
      std::make_unique<fc::core::PhaseClassifier>(std::move(classifier));
  models.ab = std::make_unique<fc::core::AbRecommender>(std::move(ab));
  models.sb = std::make_unique<fc::core::SbRecommender>(
      &study.dataset.pyramid->metadata(), study.dataset.toolbox.get());
  return models;
}

std::size_t PlansPerCycle(WorkloadKind kind) { return ShapeOf(kind).plans; }

WorkloadPlan MakePlan(WorkloadKind kind, const fc::sim::Study& study,
                      std::uint64_t seed, std::size_t index) {
  const Shape shape = ShapeOf(kind);
  const auto& traces = study.traces;
  const auto& spec = study.dataset.pyramid->spec();
  // Distinct stream per workload and plan, so one seed drives unrelated
  // choices.
  Rng rng((seed * 0x100000001b3ull + static_cast<std::uint64_t>(kind)) * 1021 +
          index + 1);

  WorkloadPlan plan;
  const std::size_t sessions =
      shape.sessions == 0 ? traces.size() : shape.sessions;
  for (std::size_t s = 0; s < sessions; ++s) {
    const std::size_t t = shape.spread ? (s + index * sessions) % traces.size()
                                       : rng.Below(traces.size());
    const auto& trace = traces[t];
    const std::size_t last_start =
        trace.records.size() > shape.window + 1 ? trace.records.size() - shape.window - 1 : 0;
    const std::size_t offset = rng.Below(last_start + 1);
    const bool flip_x = shape.mirror && rng.Below(2) == 1;
    const bool flip_y = shape.mirror && rng.Below(2) == 1;
    plan.sessions.push_back(MakeSession(trace, t, offset, shape.window, flip_x,
                                        flip_y, spec, &plan.dropped_moves));
  }

  plan.turn_order.resize(sessions);
  for (std::size_t s = 0; s < sessions; ++s) plan.turn_order[s] = s;
  for (std::size_t s = sessions; s > 1; --s) {
    std::swap(plan.turn_order[s - 1], plan.turn_order[rng.Below(s)]);
  }

  std::unordered_set<fc::tiles::TileKey, fc::tiles::TileKeyHash> distinct;
  for (const auto& session : plan.sessions) {
    plan.requests += session.keys.size();
    distinct.insert(session.keys.begin(), session.keys.end());
  }
  plan.distinct_tiles = distinct.size();
  return plan;
}

}  // namespace perfbench
