// Prefetch scheduling under saturation: one outvoted session (private,
// low-confidence predictions, fast think time) against groups of hot
// sessions whose overlapping predictions merge into high-priority entries,
// at 4/16/64 sessions over a deliberately under-provisioned drain budget.
// One sim, two reports:
//
//  * BENCH_deadline.json: deadline-aware draining vs utility-only order.
//    Under utility order the outvoted session's 0.45-priority entries sit
//    behind the merged surge entries until the queue drains near the
//    window's end; deadline mode (earliest-deadline-first above a utility
//    bar of 0.0) serves them within their much nearer foraging deadline.
//  * BENCH_fairness.json: per-session fairness shares vs deadline-only and
//    utility-only draining, with the deadline modes running an absolute
//    utility bar of 1.0. The outvoted session's entries never clear it, so
//    EDF cannot rescue them and deadline mode degenerates to utility order
//    FOR THAT SESSION. The shares mode then reserves a quarter of each
//    round for the weighted DRR slice and gives the outvoted session an
//    explicit weight (the knob's intended use: an operator-protected
//    client), which serves its whole wave within a couple of rounds of each
//    move instead of at the end of the 3 s window.
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
// Modes per session count (the utility run is the baseline row of both
// reports):
//   utility             — no deadlines, no shares
//   deadline            — EDF above bar 0.0 (deadline report) or 1.0
//                         (fairness report), shares off
//   deadline_shares_off — EDF above bar 1.0 with fairness_share explicitly
//                         0.0 and session weights set anyway: its drain
//                         fingerprint must be BIT-IDENTICAL to the bar-1.0
//                         `deadline`, proving the defaults keep the
//                         feature fully off
//   deadline_shares     — EDF above bar 1.0 + fairness_share 0.25
//
// Measured per row: the outvoted session's max fill wait (the headline),
// hot max wait, p99 time-to-fill, and the useful-fill rate (fills landing
// inside their publisher's think window). CI gates on the 64-session
// point: deadline mode cuts the outvoted max wait >= 2x vs utility order,
// and shares cut it >= 2x vs bar-1.0 deadline-only, each at an
// equal-or-better useful-fill rate; plus the bit-identity fingerprints,
// zero deadline counters on utility rows, zero fairness counters on every
// shares-off row, and balanced books everywhere.

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
constexpr double kFairnessBar = 1.0;     // excludes the outvoted session
constexpr double kFairnessShare = 0.25;
/// The operator-protected share: weight 16 at 64 sessions guarantees the
/// outvoted session ~5% of drain slots — enough for its 3-key waves at a
/// foraging cadence — while costing the hot cohort slots it only needed
/// at the idle end of each window.
constexpr double kOutvotedWeight = 16.0;

struct Mode {
  const char* name;  ///< The row's "mode" in its report.
  bool deadline_aware;
  double utility_bar;  ///< PrefetchSchedulerOptions::deadline_utility_bar.
  double fairness_share;
  bool weighted;  ///< Outvoted session weighted kOutvotedWeight, others 1.
};

constexpr Mode kUtility{"utility", false, 0.0, 0.0, false};
/// BENCH_deadline.json's deadline mode.
constexpr Mode kDeadline{"deadline", true, 0.0, 0.0, false};
/// BENCH_fairness.json's modes after kUtility, in report order.
constexpr Mode kFairnessModes[] = {
    {"deadline", true, kFairnessBar, 0.0, false},
    {"deadline_shares_off", true, kFairnessBar, 0.0, true},
    {"deadline_shares", true, kFairnessBar, kFairnessShare, true},
};

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
  double outvoted_fill_share = 0.0;  ///< Of all delivered fills.
  double hot_max_wait_ms = 0.0;
  double p99_fill_ms = 0.0;
  double useful_fill_rate = 0.0;
  std::uint64_t outvoted_delivered = 0;
  std::uint64_t drain_fingerprint = 0;  ///< Hash of the delivery sequence.
  core::PrefetchSchedulerStats scheduler;
  bool books_balance = false;
};

RunResult RunSaturation(std::size_t num_sessions, const Mode& mode) {
  const double end_ms = bench::FastBench() ? 9500.0 : 30000.0;
  storage::MemoryTileStore store(bench::SyntheticPyramid());
  SimClock clock;
  core::PrefetchSchedulerOptions options;
  options.clock = &clock;
  options.batch.max_batch_tiles = kBatchTiles;
  options.deadline_aware = mode.deadline_aware;
  options.deadline_utility_bar = mode.utility_bar;
  options.fairness_share = mode.fairness_share;
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

  // Identical drain inputs must hash identically across modes; the
  // fingerprint folds the full (session, key) delivery order.
  bench::Fingerprint fingerprint;

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
        i + 1, [session, &clock, &fingerprint, i](const tiles::TileKey& key,
                                                  const tiles::TilePtr&,
                                                  std::uint64_t, double,
                                                  std::uint64_t) {
          fingerprint.Mix(i);
          fingerprint.Mix(
              static_cast<std::uint64_t>(tiles::TileKeyHash{}(key)));
          session->stats.CloseDelivered(key, clock.NowMillis());
        });
  }
  if (mode.weighted) {
    // The operator protects the outvoted client with an explicit share.
    // In the shares-off control this must change NOTHING (the weight is
    // never consulted) — the fingerprint gate below proves it.
    scheduler.SetSessionWeight(sessions[0]->id, kOutvotedWeight);
    for (std::size_t i = 1; i < num_sessions; ++i) {
      scheduler.SetSessionWeight(sessions[i]->id, 1.0);
    }
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
        const auto key = bench::Level5Key(768 + (session.cursor + j) % 256);
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
        keys.push_back(
            bench::Level5Key((static_cast<std::size_t>(session.group) * 48 +
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
  std::uint64_t closed = 0, in_time = 0, delivered = 0;
  for (const auto& session : sessions) {
    closed += session->stats.closed;
    in_time += session->stats.in_time;
    delivered += session->stats.fill_waits.size();
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
  result.outvoted_fill_share =
      delivered == 0 ? 0.0
                     : static_cast<double>(result.outvoted_delivered) /
                           static_cast<double>(delivered);
  result.p99_fill_ms = bench::Percentile(std::move(all_waits), 0.99);
  result.useful_fill_rate =
      closed == 0 ? 0.0
                  : static_cast<double>(in_time) / static_cast<double>(closed);
  result.drain_fingerprint = fingerprint.value;
  result.scheduler = scheduler.Stats();
  result.books_balance = bench::BooksBalance(result.scheduler);
  return result;
}

/// One report row. Each report keeps its own field order; the fairness one
/// adds the fill share, the fingerprint and the fairness counters.
JsonValue Row(std::size_t sessions, const Mode& mode, const RunResult& run,
              bool fairness_report) {
  auto row = JsonValue::Object();
  row.Set("sessions", static_cast<std::uint64_t>(sessions));
  row.Set("mode", mode.name);
  row.Set("outvoted_max_wait_ms", run.outvoted_max_wait_ms);
  if (fairness_report) {
    row.Set("outvoted_fill_share", run.outvoted_fill_share);
    row.Set("outvoted_delivered", run.outvoted_delivered);
  }
  row.Set("hot_max_wait_ms", run.hot_max_wait_ms);
  row.Set("p99_fill_ms", run.p99_fill_ms);
  row.Set("useful_fill_rate", run.useful_fill_rate);
  if (fairness_report) {
    row.Set("drain_fingerprint", run.drain_fingerprint);
  } else {
    row.Set("outvoted_delivered", run.outvoted_delivered);
  }
  row.Set("predictions_published", run.scheduler.predictions_published);
  row.Set("fills_issued", run.scheduler.fills_issued);
  row.Set("dedup_saved_fetches", run.scheduler.dedup_saved_fetches);
  row.Set("stale_drops", run.scheduler.stale_drops);
  row.Set("deliveries", run.scheduler.deliveries);
  row.Set("deadline_promotions", run.scheduler.deadline_promotions);
  row.Set("deadline_misses", run.scheduler.deadline_misses);
  if (fairness_report) {
    row.Set("fairness_picks", run.scheduler.fairness_picks);
    row.Set("fairness_promotions", run.scheduler.fairness_promotions);
  }
  row.Set("books_balance", run.books_balance);
  return row;
}

/// How many times shorter `better` kept the outvoted session's worst wait
/// than `baseline` did; 0 when `better` never made it wait.
double WaitReduction(const RunResult& baseline, const RunResult& better) {
  return better.outvoted_max_wait_ms > 0.0
             ? baseline.outvoted_max_wait_ms / better.outvoted_max_wait_ms
             : 0.0;
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Prefetch scheduling under saturation — deadlines and fairness shares",
      "per-session staleness bounds and weighted DRR drain slices vs "
      "utility-only drain order");

  eval::TablePrinter table({"Sessions", "Mode", "Bar", "OutvotedMaxWait",
                            "OutvotedShare", "HotMaxWait", "p99Fill",
                            "UsefulRate", "Promotions", "Misses", "FairPicks",
                            "FairPromos", "Books"});
  auto add_row = [&table](std::size_t sessions, const Mode& mode,
                          const RunResult& run) {
    table.AddRow({std::to_string(sessions), mode.name,
                  mode.deadline_aware
                      ? eval::TablePrinter::Num(mode.utility_bar, 1)
                      : "-",
                  std::to_string(run.outvoted_max_wait_ms),
                  bench::Pct(run.outvoted_fill_share),
                  std::to_string(run.hot_max_wait_ms),
                  std::to_string(run.p99_fill_ms),
                  bench::Pct(run.useful_fill_rate),
                  std::to_string(run.scheduler.deadline_promotions),
                  std::to_string(run.scheduler.deadline_misses),
                  std::to_string(run.scheduler.fairness_picks),
                  std::to_string(run.scheduler.fairness_promotions),
                  run.books_balance ? "yes" : "NO"});
  };
  auto deadline_rows = JsonValue::Array();
  auto fairness_rows = JsonValue::Array();
  bool deadline_pass = true;
  bool fairness_pass = true;
  double deadline_reduction_64 = 0.0;
  double fairness_reduction_64 = 0.0;

  for (std::size_t sessions : {4u, 16u, 64u}) {
    const RunResult utility = RunSaturation(sessions, kUtility);
    const RunResult deadline = RunSaturation(sessions, kDeadline);
    std::vector<RunResult> fair;  // In kFairnessModes order.
    for (const Mode& mode : kFairnessModes) {
      fair.push_back(RunSaturation(sessions, mode));
    }
    const RunResult& capped = fair[0];  // Deadline-only at bar 1.0.
    const RunResult& shares_off = fair[1];
    const RunResult& shares = fair[2];

    add_row(sessions, kUtility, utility);
    add_row(sessions, kDeadline, deadline);
    deadline_rows.Push(Row(sessions, kUtility, utility, false));
    deadline_rows.Push(Row(sessions, kDeadline, deadline, false));
    fairness_rows.Push(Row(sessions, kUtility, utility, true));
    for (std::size_t m = 0; m < fair.size(); ++m) {
      add_row(sessions, kFairnessModes[m], fair[m]);
      fairness_rows.Push(Row(sessions, kFairnessModes[m], fair[m], true));
    }

    // Balanced books everywhere; defaults off must never touch the
    // deadline counters (utility) or the fairness ones (shares off).
    if (!utility.books_balance || !deadline.books_balance ||
        utility.scheduler.deadline_promotions != 0 ||
        utility.scheduler.deadline_misses != 0) {
      deadline_pass = false;
    }
    for (const RunResult* run : {&utility, &capped, &shares_off, &shares}) {
      if (!run->books_balance) fairness_pass = false;
      if (run != &shares && (run->scheduler.fairness_picks != 0 ||
                             run->scheduler.fairness_promotions != 0)) {
        fairness_pass = false;
      }
    }
    // Defaults-off bit-identity: with fairness_share 0, setting weights
    // must leave the drain (and so the delivery sequence) untouched.
    if (capped.drain_fingerprint != shares_off.drain_fingerprint) {
      std::cerr << "FAIL: shares-off fingerprint diverged at " << sessions
                << " sessions\n";
      fairness_pass = false;
    }

    if (sessions == 64) {
      // Deadline gate: >= 2x lower worst-case wait for the starved session,
      // no useful-fill regression, and the promotions actually happened
      // (the win came from EDF, not noise).
      deadline_reduction_64 = WaitReduction(utility, deadline);
      if (deadline_reduction_64 < 2.0 ||
          deadline.useful_fill_rate + 0.01 < utility.useful_fill_rate ||
          deadline.scheduler.deadline_promotions == 0) {
        deadline_pass = false;
      }
      // Fairness gate: the session below the bar — unrescuable by EDF —
      // sees its worst-case wait cut >= 2x by its guaranteed share, with no
      // useful-fill regression, and the slice actually ran.
      fairness_reduction_64 = WaitReduction(capped, shares);
      if (fairness_reduction_64 < 2.0 ||
          shares.useful_fill_rate + 0.01 < capped.useful_fill_rate ||
          shares.scheduler.fairness_picks == 0) {
        fairness_pass = false;
      }
    }
  }
  table.Print();
  std::cout << "\nOutvoted max-wait reduction at 64 sessions: "
            << deadline_reduction_64 << "x (deadline vs utility), "
            << fairness_reduction_64
            << "x (shares vs deadline-only at bar 1.0)\n";

  auto deadline_report = bench::Report("deadline_staleness", deadline_pass);
  deadline_report.Set("outvoted_wait_reduction_64", deadline_reduction_64);
  deadline_report.Set("results", std::move(deadline_rows));
  auto fairness_report = bench::Report("fairness_shares", fairness_pass);
  fairness_report.Set("fairness_share", kFairnessShare);
  fairness_report.Set("outvoted_weight", kOutvotedWeight);
  fairness_report.Set("outvoted_wait_reduction_64", fairness_reduction_64);
  fairness_report.Set("results", std::move(fairness_rows));
  if (!bench::WriteReport("BENCH_deadline.json", deadline_report) ||
      !bench::WriteReport("BENCH_fairness.json", fairness_report)) {
    return 1;
  }

  std::cout << "\nUtility order starves the outvoted session for the whole\n"
            << "saturated run; deadline-aware draining bounds its wait to\n"
            << "about one think window at the same useful-fill rate. "
            << (deadline_pass ? "PASS\n" : "FAIL\n")
            << "Below the deadline bar, EDF cannot rescue the outvoted\n"
            << "session; its guaranteed DRR share serves each wave within a\n"
            << "few drain rounds instead of at the window's end. "
            << (fairness_pass ? "PASS\n" : "FAIL\n");
  return deadline_pass && fairness_pass ? 0 : 1;
}
