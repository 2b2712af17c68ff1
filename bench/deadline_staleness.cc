// Deadline-aware scheduling vs utility-only under saturation: one outvoted
// session (private, low-confidence predictions, fast think time) against
// groups of hot sessions whose overlapping predictions merge into
// high-priority entries, at 4/16/64 sessions over a deliberately
// under-provisioned drain budget.
//
// The discrete-event sim drives the PrefetchScheduler directly in pull
// mode on a SimClock: every drain round costs a fixed virtual service
// time, and each session's published think estimate comes from a real
// server::ThinkTimeEstimator observing its own inter-move gaps, seeded by
// the sim::PhaseThinkTimeModel priors. The hot cohort dwells in
// sensemaking (long 3s windows) and moves at the window boundary, so each
// window opens with a surge that saturates the drain budget for ~90% of
// the window; the outvoted session forages on its own private tiles at a
// sampled ~800ms cadence and HOVERS — re-asserting its wave until it is
// delivered — so its fill wait accumulates exactly the way a starved
// user's would.
//
// Under utility-only order its 0.45-priority entries sit behind the
// merged surge entries until the queue drains near the window's end;
// deadline mode (earliest-deadline-first above the bar) serves them
// within their much nearer foraging deadline. Measured per row: the
// outvoted session's max fill wait (the headline), hot max wait, p99
// time-to-fill, and the useful-fill rate (fills landing inside their
// publisher's think window).
//
// Emits BENCH_deadline.json; CI gates on the 64-session point (outvoted
// max wait cut >= 2x with an equal-or-better useful-fill rate, books
// balanced everywhere, defaults-off rows never touching the deadline
// counters).

#include <algorithm>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json_writer.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "core/prefetch_scheduler.h"
#include "eval/table_printer.h"
#include "server/think_time.h"
#include "sim/think_time.h"
#include "storage/tile_store.h"
#include "tiles/pyramid.h"

#include "bench_common.h"

using namespace fc;

namespace {

constexpr double kServiceMs = 40.0;      // one drain round trip
constexpr std::size_t kBatchTiles = 4;   // tiles per round trip
constexpr std::size_t kHotGroupSize = 4; // sessions sharing a hot key stream
constexpr std::size_t kHotWaveKeys = 17;
constexpr std::size_t kOutvotedWaveKeys = 3;
constexpr double kHotConfidence = 0.9;
constexpr double kOutvotedConfidence = 0.45;

/// 6 levels: level 5 is a 32x32 grid — 1024 distinct keys, enough for 16
/// hot groups to rotate without colliding with the outvoted rows.
std::shared_ptr<tiles::TilePyramid> BenchPyramid() {
  constexpr int kLevels = 6;
  auto schema = array::ArraySchema::Make(
      "base",
      {array::Dimension{"y", 0, 8 << (kLevels - 1), 8},
       array::Dimension{"x", 0, 8 << (kLevels - 1), 8}},
      {array::Attribute{"v"}});
  array::DenseArray base(std::move(*schema));
  for (std::int64_t y = 0; y < base.schema().dims()[0].length; ++y) {
    for (std::int64_t x = 0; x < base.schema().dims()[1].length; ++x) {
      base.SetLinear(base.LinearIndex({y, x}), 0, static_cast<double>(x + y));
    }
  }
  tiles::PyramidBuildOptions options;
  options.num_levels = kLevels;
  options.tile_width = 8;
  options.tile_height = 8;
  tiles::TilePyramidBuilder builder(options);
  auto pyramid = builder.Build(base);
  if (!pyramid.ok()) {
    std::cerr << "pyramid build failed: " << pyramid.status() << "\n";
    std::abort();
  }
  return *pyramid;
}

tiles::TileKey Level5(std::size_t index) {
  return tiles::TileKey{5, static_cast<std::int64_t>(index % 32),
                        static_cast<std::int64_t>(index / 32)};
}

/// One (session, key) fill waiting to land.
struct Outstanding {
  double first_publish_ms = 0.0;
  double due_ms = 0.0;  ///< first publish + the think window back then.
};

/// Per-session wait bookkeeping, closed out by delivery, supersession, or
/// end of run.
struct SessionStats {
  std::unordered_map<tiles::TileKey, Outstanding, tiles::TileKeyHash> open;
  std::vector<double> fill_waits;  ///< Delivered fills only.
  double max_wait_ms = 0.0;
  std::uint64_t closed = 0;
  std::uint64_t in_time = 0;

  void CloseDelivered(const tiles::TileKey& key, double now_ms) {
    auto it = open.find(key);
    if (it == open.end()) return;
    const double wait = now_ms - it->second.first_publish_ms;
    fill_waits.push_back(wait);
    max_wait_ms = std::max(max_wait_ms, wait);
    ++closed;
    if (now_ms <= it->second.due_ms) ++in_time;
    open.erase(it);
  }

  void CloseAbandoned(const tiles::TileKey& key, double now_ms) {
    auto it = open.find(key);
    if (it == open.end()) return;
    max_wait_ms = std::max(max_wait_ms, now_ms - it->second.first_publish_ms);
    ++closed;  // never delivered: counted, never in time
    open.erase(it);
  }
};

struct RunResult {
  double outvoted_max_wait_ms = 0.0;
  double hot_max_wait_ms = 0.0;
  double p99_fill_ms = 0.0;
  double useful_fill_rate = 0.0;
  std::uint64_t outvoted_delivered = 0;
  core::PrefetchSchedulerStats scheduler;
  bool books_balance = false;
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

RunResult RunSaturation(std::size_t num_sessions, bool deadline_aware,
                        double end_ms) {
  auto pyramid = BenchPyramid();
  storage::MemoryTileStore store(pyramid);
  SimClock clock;
  core::PrefetchSchedulerOptions options;
  options.clock = &clock;
  options.batch.max_batch_tiles = kBatchTiles;
  options.deadline_aware = deadline_aware;
  core::PrefetchScheduler scheduler(&store, /*executor=*/nullptr,
                                    /*shared=*/nullptr, options);

  const sim::PhaseThinkTimeModel think_model;
  const double hot_window_ms = think_model.sensemaking_mean_ms;
  server::ThinkTimeOptions estimator_options;
  estimator_options.phase_prior_ms = sim::PhasePriorMs(think_model);

  struct Session {
    std::uint64_t id = 0;
    bool outvoted = false;
    int group = 0;
    core::AnalysisPhase phase = core::AnalysisPhase::kNavigation;
    double next_move_ms = 0.0;
    std::uint64_t generation = 0;
    std::size_t cursor = 0;  ///< Outvoted: private key cursor.
    Rng rng{0};
    server::ThinkTimeEstimator estimator;
    SessionStats stats;
  };

  // Session 0 is the outvoted forager; the rest are hot navigators in
  // groups of kHotGroupSize sharing a key stream.
  std::vector<std::unique_ptr<Session>> sessions;
  for (std::size_t i = 0; i < num_sessions; ++i) {
    auto session = std::make_unique<Session>();
    session->outvoted = i == 0;
    session->group = i == 0 ? 0 : static_cast<int>((i - 1) / kHotGroupSize);
    session->phase = session->outvoted ? core::AnalysisPhase::kForaging
                                       : core::AnalysisPhase::kSensemaking;
    session->rng = Rng(/*seed=*/90210 + 31 * i);
    session->estimator = server::ThinkTimeEstimator(estimator_options);
    session->next_move_ms = session->rng.UniformDouble() * 200.0;
    sessions.push_back(std::move(session));
  }
  for (std::size_t i = 0; i < num_sessions; ++i) {
    Session* session = sessions[i].get();
    session->id = scheduler.RegisterSession(
        i + 1,
        [session, &clock](const tiles::TileKey& key, const tiles::TilePtr&,
                          std::uint64_t, double, std::uint64_t) {
          session->stats.CloseDelivered(key, clock.NowMillis());
        });
  }

  auto publish_wave = [&](Session& session, double now) {
    if (session.outvoted) {
      // Hover: while the wave is outstanding the client keeps re-asserting
      // the same prediction (no new keys, no Observe — the user has not
      // moved), which re-arms its deadline; an entry whose deadline
      // expired unserved was demoted to utility order and would otherwise
      // starve right back. Only once the whole wave delivered does the
      // user move on.
      if (!session.stats.open.empty()) {
        std::vector<core::PrefetchCandidate> refresh;
        for (const auto& [key, open] : session.stats.open) {
          refresh.push_back({key, kOutvotedConfidence});
        }
        scheduler.Publish(session.id, ++session.generation,
                          std::move(refresh),
                          session.estimator.EstimateMs(session.phase));
        session.next_move_ms = now + 200.0;
        return;
      }
      session.estimator.Observe(now);
      const double think_estimate =
          session.estimator.EstimateMs(session.phase);
      std::vector<core::PrefetchCandidate> wave;
      for (std::size_t j = 0; j < kOutvotedWaveKeys; ++j) {
        const auto key = Level5(768 + (session.cursor + j) % 256);
        session.stats.open.emplace(key, Outstanding{now, now + think_estimate});
        wave.push_back({key, kOutvotedConfidence});
      }
      session.cursor = (session.cursor + kOutvotedWaveKeys) % 256;
      scheduler.Publish(session.id, ++session.generation, std::move(wave),
                        think_estimate);
      session.next_move_ms =
          now + sim::SampleThinkMs(think_model, session.phase, session.rng);
      return;
    }
    session.estimator.Observe(now);
    const double think_estimate = session.estimator.EstimateMs(session.phase);
    std::vector<core::PrefetchCandidate> wave;
    {
      // Sessions of one group dwell on the same region, so their wave
      // subscriptions merge into high-priority entries; every group moves
      // at the window boundary (a synchronized cohort — the workload that
      // makes each window start a saturating surge).
      const auto window = static_cast<std::size_t>(now / hot_window_ms);
      std::vector<tiles::TileKey> keys;
      for (std::size_t j = 0; j < kHotWaveKeys; ++j) {
        keys.push_back(Level5((static_cast<std::size_t>(session.group) * 48 +
                               (window % 2) * 24 + j) %
                              768));
      }
      // Keys from a previous window the queue never served are abandoned:
      // the simulated user has moved on.
      std::vector<tiles::TileKey> stale;
      for (const auto& [key, open] : session.stats.open) {
        if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
          stale.push_back(key);
        }
      }
      for (const auto& key : stale) session.stats.CloseAbandoned(key, now);
      for (const auto& key : keys) {
        session.stats.open.emplace(key, Outstanding{now, now + think_estimate});
        wave.push_back({key, kHotConfidence});
      }
    }
    scheduler.Publish(session.id, ++session.generation, std::move(wave),
                      think_estimate);
    const auto window = static_cast<std::size_t>(now / hot_window_ms);
    session.next_move_ms = static_cast<double>(window + 1) * hot_window_ms +
                           session.rng.UniformDouble() * 200.0;
  };

  while (clock.NowMillis() < end_ms) {
    const double now = clock.NowMillis();
    for (auto& session : sessions) {
      if (session->next_move_ms <= now) publish_wave(*session, now);
    }
    if (scheduler.pending() > 0) {
      scheduler.DrainOne();
      clock.AdvanceMillis(kServiceMs);
    } else {
      double next_due = end_ms;
      for (const auto& session : sessions) {
        next_due = std::min(next_due, session->next_move_ms);
      }
      clock.AdvanceMillis(std::max(1.0, next_due - now));
    }
  }
  // Whatever never landed starved to the end of the run.
  for (auto& session : sessions) {
    std::vector<tiles::TileKey> leftover;
    for (const auto& [key, open] : session->stats.open) {
      leftover.push_back(key);
    }
    for (const auto& key : leftover) {
      session->stats.CloseAbandoned(key, end_ms);
    }
  }
  scheduler.Shutdown();

  RunResult result;
  std::vector<double> all_waits;
  std::uint64_t closed = 0, in_time = 0;
  for (const auto& session : sessions) {
    closed += session->stats.closed;
    in_time += session->stats.in_time;
    all_waits.insert(all_waits.end(), session->stats.fill_waits.begin(),
                     session->stats.fill_waits.end());
    if (session->outvoted) {
      result.outvoted_max_wait_ms = session->stats.max_wait_ms;
      result.outvoted_delivered = session->stats.fill_waits.size();
    } else {
      result.hot_max_wait_ms =
          std::max(result.hot_max_wait_ms, session->stats.max_wait_ms);
    }
  }
  result.p99_fill_ms = Percentile(std::move(all_waits), 0.99);
  result.useful_fill_rate =
      closed == 0 ? 0.0
                  : static_cast<double>(in_time) / static_cast<double>(closed);
  result.scheduler = scheduler.Stats();
  result.books_balance =
      result.scheduler.fills_issued + result.scheduler.dedup_saved_fetches ==
      result.scheduler.predictions_published;
  return result;
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Deadline-aware prefetch scheduling under saturation",
      "per-session staleness bounds vs utility-only drain order");

  const double end_ms = bench::FastBench() ? 9500.0 : 30000.0;
  const std::vector<std::size_t> session_counts = {4, 16, 64};

  eval::TablePrinter table({"Sessions", "Mode", "OutvotedMaxWait",
                            "HotMaxWait", "p99Fill", "UsefulRate",
                            "Promotions", "Misses", "Books"});
  auto results = JsonValue::Array();
  bool pass = true;
  double reduction_64 = 0.0;

  for (std::size_t sessions : session_counts) {
    const RunResult utility = RunSaturation(sessions, false, end_ms);
    const RunResult deadline = RunSaturation(sessions, true, end_ms);

    for (const auto* run : {&utility, &deadline}) {
      const bool is_deadline = run == &deadline;
      table.AddRow({std::to_string(sessions),
                    is_deadline ? "deadline" : "utility",
                    std::to_string(run->outvoted_max_wait_ms),
                    std::to_string(run->hot_max_wait_ms),
                    std::to_string(run->p99_fill_ms),
                    bench::Pct(run->useful_fill_rate),
                    std::to_string(run->scheduler.deadline_promotions),
                    std::to_string(run->scheduler.deadline_misses),
                    run->books_balance ? "yes" : "NO"});

      if (!run->books_balance) pass = false;
      if (!is_deadline && (run->scheduler.deadline_promotions != 0 ||
                           run->scheduler.deadline_misses != 0)) {
        pass = false;  // defaults off must never touch the new counters
      }

      auto row = JsonValue::Object();
      row.Set("sessions", static_cast<std::uint64_t>(sessions));
      row.Set("mode", is_deadline ? "deadline" : "utility");
      row.Set("outvoted_max_wait_ms", run->outvoted_max_wait_ms);
      row.Set("hot_max_wait_ms", run->hot_max_wait_ms);
      row.Set("p99_fill_ms", run->p99_fill_ms);
      row.Set("useful_fill_rate", run->useful_fill_rate);
      row.Set("outvoted_delivered", run->outvoted_delivered);
      row.Set("predictions_published",
              run->scheduler.predictions_published);
      row.Set("fills_issued", run->scheduler.fills_issued);
      row.Set("dedup_saved_fetches", run->scheduler.dedup_saved_fetches);
      row.Set("stale_drops", run->scheduler.stale_drops);
      row.Set("deliveries", run->scheduler.deliveries);
      row.Set("deadline_promotions", run->scheduler.deadline_promotions);
      row.Set("deadline_misses", run->scheduler.deadline_misses);
      row.Set("books_balance", run->books_balance);
      results.Push(std::move(row));
    }

    if (sessions == 64) {
      reduction_64 = deadline.outvoted_max_wait_ms > 0.0
                         ? utility.outvoted_max_wait_ms /
                               deadline.outvoted_max_wait_ms
                         : 0.0;
      // The acceptance gate: >= 2x lower worst-case wait for the starved
      // session, no useful-fill regression, and the promotions actually
      // happened (the win came from EDF, not noise).
      if (reduction_64 < 2.0) pass = false;
      if (deadline.useful_fill_rate + 0.01 < utility.useful_fill_rate) {
        pass = false;
      }
      if (deadline.scheduler.deadline_promotions == 0) pass = false;
    }
  }
  table.Print();
  std::cout << "\nOutvoted max-wait reduction at 64 sessions: "
            << reduction_64 << "x\n";

  auto report = JsonValue::Object();
  report.Set("bench", "deadline_staleness");
  report.Set("fast_mode", bench::FastBench());
  report.Set("pass", pass);
  report.Set("outvoted_wait_reduction_64", reduction_64);
  report.Set("results", std::move(results));
  const std::string json_path = "BENCH_deadline.json";
  if (auto status = WriteJsonFile(json_path, report); !status.ok()) {
    std::cerr << "ERROR writing " << json_path << ": " << status << "\n";
    return 1;
  }
  std::cout << "Wrote " << json_path << "\n";

  std::cout << "\nUtility order starves the outvoted session for the whole\n"
            << "saturated run; deadline-aware draining bounds its wait to\n"
            << "about one think window at the same useful-fill rate. "
            << (pass ? "PASS\n" : "FAIL\n");
  return pass ? 0 : 1;
}
