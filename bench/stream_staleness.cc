// Time-to-first-usable-tile under a constrained client channel: the
// request-triggered all-or-nothing push (a fill only helps once its FULL
// payload has crossed the wire) vs the continuous progressive stream
// (coarse base chunks first, exact refinements in the leftover bandwidth),
// at 4/16/64 sessions over an under-provisioned global egress budget.
//
// Discrete-event shape on a 1 ms SimClock tick: sessions publish waves of
// ranked predictions into a pull-mode PrefetchScheduler, fills drain within
// the tick (the backend is NOT the bottleneck here), and completed fills
// are submitted to a pull-mode StreamScheduler whose global token bucket
// models the outbound channel — the saturated resource. At 64 sessions the
// offered load (~6 tiles x ~570 B per wave per session) is ~3.5x the
// channel rate: the all-or-nothing schedule ships whole blobs in utility
// order and most tiles are superseded before they ever become usable,
// while the progressive schedule ships every wave's ~90 B bases first
// (they fit comfortably) and spends what remains on refinements.
//
// Four modes per session count:
//   off            — no StreamScheduler at all: fills land whole at drain
//                    time (the PR 8 delivery path). Its drain fingerprint
//                    is the baseline.
//   off_control    — same drain loop, but a default-constructed
//                    StreamScheduler exists, every session is registered,
//                    and the supersession/pump hooks run — with nothing
//                    ever submitted. Its fingerprint must be BIT-IDENTICAL
//                    to `off` and its counters all zero, proving the
//                    defaults keep the feature fully off.
//   all_or_nothing — StreamScheduler with progressive=false: the
//                    request-triggered comparator, one exact chunk per
//                    tile through the constrained channel.
//   progressive    — StreamScheduler with progressive=true: base +
//                    refinement through the same channel.
//
// Time-to-first-usable is right-censored: a tile superseded (or cut off by
// the end of the run) before its first chunk arrived contributes its wait
// AT the censor time — an underestimate for the losing schedule, so the
// headline reduction is conservative.
//
// Emits BENCH_stream.json; CI gates on the 64-session point (p99
// time-to-first-usable cut >= 2x by the progressive stream vs the
// all-or-nothing push at an equal-or-better usable-delivery rate), the
// off/off_control fingerprint bit-identity, zero stream counters on every
// off row, and balanced books everywhere.

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json_writer.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "core/prefetch_scheduler.h"
#include "core/stream_scheduler.h"
#include "eval/table_printer.h"
#include "storage/tile_store.h"
#include "tiles/pyramid.h"

#include "bench_common.h"

using namespace fc;

namespace {

/// The outbound channel: ~60 B/ms against an offered load of ~219 B/ms at
/// 64 sessions (saturated ~3.5x) and ~14 B/ms at 4 (unconstrained).
constexpr double kChannelBytesPerMs = 60.0;
/// Larger than any chunk (~600 B whole blob), so no chunk needs the
/// oversized-at-full-bucket escape and pacing is purely rate-driven.
constexpr std::size_t kChannelBurstBytes = 4096;
constexpr std::size_t kWaveKeys = 6;
constexpr std::size_t kKeysPerSession = 16;  // private rotation per session
constexpr std::size_t kFillsPerTick = 8;     // backend never the bottleneck
/// Coarse fidelity of the base chunk: |error| <= 4 per cell on values in
/// [0, ~500] — a usable thumbnail at ~1/6 of the exact payload.
constexpr double kBaseStep = 8.0;

struct ModeSpec {
  const char* name;
  bool streaming;    ///< Route deliveries through a StreamScheduler.
  bool progressive;  ///< Meaningful only when streaming.
  bool control;      ///< off_control: scheduler present but never fed.
};

constexpr ModeSpec kModes[] = {
    {"off", false, false, false},
    {"off_control", false, false, true},
    {"all_or_nothing", true, false, false},
    {"progressive", true, true, false},
};

/// 6 levels: level 5 is a 32x32 grid — 1024 distinct keys, a private
/// 16-key rotation for each of up to 64 sessions.
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

/// One published tile waiting to become usable client-side.
struct Outstanding {
  double publish_ms = 0.0;
  bool usable = false;  ///< First chunk (or the whole blob) arrived.
  bool exact = false;   ///< Exact fidelity arrived.
};

struct RunResult {
  double p99_ttfu_ms = 0.0;
  double max_ttfu_ms = 0.0;
  double usable_rate = 0.0;  ///< Usable before supersession / end of run.
  double exact_rate = 0.0;   ///< Exact before supersession / end of run.
  std::uint64_t published = 0;
  std::uint64_t delivered_usable = 0;
  std::uint64_t drain_fingerprint = 0;  ///< Hash of the delivery sequence.
  core::PrefetchSchedulerStats prefetch;
  core::StreamSchedulerStats stream;
  bool books_balance = false;
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

RunResult RunChannel(std::size_t num_sessions, const ModeSpec& mode,
                     double end_ms) {
  auto pyramid = BenchPyramid();
  storage::MemoryTileStore store(pyramid);
  SimClock clock;

  core::PrefetchSchedulerOptions fetch_options;
  fetch_options.clock = &clock;
  core::PrefetchScheduler scheduler(&store, /*executor=*/nullptr,
                                    /*shared=*/nullptr, fetch_options);

  std::unique_ptr<core::StreamScheduler> stream;
  if (mode.streaming) {
    core::StreamSchedulerOptions stream_options;
    stream_options.clock = &clock;
    stream_options.progressive = mode.progressive;
    stream_options.codec.encoding = storage::TileEncoding::kRawF64;
    stream_options.codec.progressive_base_step = kBaseStep;
    stream_options.total_bytes_per_ms = kChannelBytesPerMs;
    stream_options.total_burst_bytes = kChannelBurstBytes;
    stream = std::make_unique<core::StreamScheduler>(/*executor=*/nullptr,
                                                     stream_options);
  } else if (mode.control) {
    // Defaults-off control: the subsystem exists (stock options, clock
    // wired — exactly what SessionManager would construct), sessions
    // register, the supersession hook and the pump run every tick, but no
    // fill is ever submitted. Nothing downstream may change.
    core::StreamSchedulerOptions stream_options;
    stream_options.clock = &clock;
    stream = std::make_unique<core::StreamScheduler>(/*executor=*/nullptr,
                                                     stream_options);
  }
  const bool route_through_stream = mode.streaming;

  struct Session {
    std::uint64_t fetch_id = 0;
    std::uint64_t stream_id = 0;
    double next_move_ms = 0.0;
    std::uint64_t generation = 0;
    std::size_t base_index = 0;  ///< Start of this session's key range.
    std::size_t cursor = 0;
    Rng rng{0};
    std::unordered_map<tiles::TileKey, Outstanding, tiles::TileKeyHash> open;
    std::vector<double> ttfu;  ///< Usable waits + censored waits.
    std::uint64_t closed = 0;
    std::uint64_t usable_closed = 0;
    std::uint64_t exact_closed = 0;

    void Close(const tiles::TileKey& key, double now_ms) {
      auto it = open.find(key);
      if (it == open.end()) return;
      if (!it->second.usable) {  // censored: never usable while relevant
        ttfu.push_back(now_ms - it->second.publish_ms);
      } else {
        ++usable_closed;
      }
      if (it->second.exact) ++exact_closed;
      ++closed;
      open.erase(it);
    }
  };

  // Identical delivery sequences must hash identically across modes within
  // this binary; the fingerprint folds (session, key, fidelity) in order.
  std::uint64_t fingerprint = 14695981039346656037ull;  // FNV-1a offset
  auto mix = [&fingerprint](std::uint64_t value) {
    fingerprint ^= value;
    fingerprint *= 1099511628211ull;  // FNV-1a prime
  };

  std::vector<std::unique_ptr<Session>> sessions;
  for (std::size_t i = 0; i < num_sessions; ++i) {
    auto session = std::make_unique<Session>();
    session->base_index = i * kKeysPerSession;
    session->rng = Rng(/*seed=*/7700 + 131 * i);
    session->next_move_ms = session->rng.UniformDouble() * 1000.0;
    sessions.push_back(std::move(session));
  }

  std::vector<double> all_ttfu;
  auto mark_usable = [&](Session& session, const tiles::TileKey& key,
                         double now_ms) {
    auto it = session.open.find(key);
    if (it == session.open.end() || it->second.usable) return;
    it->second.usable = true;
    session.ttfu.push_back(now_ms - it->second.publish_ms);
  };
  auto mark_exact = [&](Session& session, const tiles::TileKey& key) {
    auto it = session.open.find(key);
    if (it != session.open.end()) it->second.exact = true;
  };

  for (std::size_t i = 0; i < num_sessions; ++i) {
    Session* session = sessions[i].get();
    if (route_through_stream) {
      session->stream_id = stream->RegisterSession(
          i + 1,
          [session, &clock, &mix, &mark_usable, &mark_exact, i](
              const tiles::TileKey& key, const tiles::TilePtr&, bool exact,
              std::uint64_t) {
            mix(i);
            mix(static_cast<std::uint64_t>(tiles::TileKeyHash{}(key)));
            mix(exact ? 1 : 0);
            mark_usable(*session, key, clock.NowMillis());
            if (exact) mark_exact(*session, key);
          });
    } else if (mode.control) {
      session->stream_id = stream->RegisterSession(
          i + 1,
          [](const tiles::TileKey&, const tiles::TilePtr&, bool,
             std::uint64_t) { std::abort(); });  // must never fire
    }
  }
  for (std::size_t i = 0; i < num_sessions; ++i) {
    Session* session = sessions[i].get();
    session->fetch_id = scheduler.RegisterSession(
        i + 1,
        [session, &clock, &mix, &mark_usable, &mark_exact,
         route_through_stream, &stream, i](
            const tiles::TileKey& key, const tiles::TilePtr& tile,
            std::uint64_t generation, double confidence, std::uint64_t) {
          if (route_through_stream) {
            stream->SubmitTile(session->stream_id, key, tile, generation,
                               confidence);
            return;
          }
          // PR 8 path: the fill lands whole the moment it drains.
          mix(i);
          mix(static_cast<std::uint64_t>(tiles::TileKeyHash{}(key)));
          mix(1);
          mark_usable(*session, key, clock.NowMillis());
          mark_exact(*session, key);
        });
  }

  auto publish_wave = [&](Session& session, double now) {
    // The user moved on: whatever the channel never made usable is stale.
    std::vector<tiles::TileKey> superseded;
    for (const auto& [key, open] : session.open) superseded.push_back(key);
    for (const auto& key : superseded) session.Close(key, now);

    std::vector<core::PrefetchCandidate> wave;
    for (std::size_t j = 0; j < kWaveKeys; ++j) {
      const auto key = Level5(session.base_index +
                              (session.cursor + j) % kKeysPerSession);
      const double confidence = 0.9 - 0.08 * static_cast<double>(j);
      session.open.emplace(key, Outstanding{now});
      wave.push_back({key, confidence});
    }
    session.cursor = (session.cursor + kWaveKeys) % kKeysPerSession;
    ++session.generation;
    scheduler.Publish(session.fetch_id, session.generation, std::move(wave));
    if (stream != nullptr) {
      stream->CancelStaleGenerations(session.stream_id, session.generation);
    }
    session.next_move_ms = now + 600.0 + session.rng.UniformDouble() * 800.0;
  };

  while (clock.NowMillis() < end_ms) {
    const double now = clock.NowMillis();
    for (auto& session : sessions) {
      if (session->next_move_ms <= now) publish_wave(*session, now);
    }
    for (std::size_t k = 0; k < kFillsPerTick && scheduler.pending() > 0;
         ++k) {
      scheduler.DrainOne();
    }
    if (stream != nullptr) stream->Pump();
    clock.AdvanceMillis(1.0);
  }
  // Whatever never became usable starved to the end of the run.
  for (auto& session : sessions) {
    std::vector<tiles::TileKey> leftover;
    for (const auto& [key, open] : session->open) leftover.push_back(key);
    for (const auto& key : leftover) session->Close(key, end_ms);
  }
  scheduler.Shutdown();
  if (stream != nullptr) stream->Shutdown();

  RunResult result;
  std::uint64_t closed = 0, usable = 0, exact = 0;
  for (const auto& session : sessions) {
    closed += session->closed;
    usable += session->usable_closed;
    exact += session->exact_closed;
    all_ttfu.insert(all_ttfu.end(), session->ttfu.begin(),
                    session->ttfu.end());
    result.published += session->closed;
    for (const double wait : session->ttfu) {
      result.max_ttfu_ms = std::max(result.max_ttfu_ms, wait);
    }
  }
  result.delivered_usable = usable;
  result.usable_rate =
      closed == 0 ? 0.0
                  : static_cast<double>(usable) / static_cast<double>(closed);
  result.exact_rate =
      closed == 0 ? 0.0
                  : static_cast<double>(exact) / static_cast<double>(closed);
  result.p99_ttfu_ms = Percentile(std::move(all_ttfu), 0.99);
  result.drain_fingerprint = fingerprint;
  result.prefetch = scheduler.Stats();
  if (stream != nullptr) result.stream = stream->Stats();
  const bool fetch_books =
      result.prefetch.fills_issued + result.prefetch.dedup_saved_fetches ==
      result.prefetch.predictions_published;
  // Every enqueued chunk is pushed, shed stale (supersession or the final
  // shutdown), or expired; pushes split exactly into the two classes.
  const bool stream_books =
      result.stream.chunks_pushed + result.stream.stale_chunks_dropped +
              result.stream.expired_chunks_dropped ==
          result.stream.chunks_enqueued &&
      result.stream.base_chunks_pushed + result.stream.exact_chunks_pushed ==
          result.stream.chunks_pushed;
  result.books_balance = fetch_books && stream_books;
  return result;
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Continuous progressive push vs request-triggered all-or-nothing",
      "time-to-first-usable-tile under a constrained client channel");

  const double end_ms = bench::FastBench() ? 6000.0 : 20000.0;
  const std::vector<std::size_t> session_counts = {4, 16, 64};

  eval::TablePrinter table({"Sessions", "Mode", "P99TTFU", "MaxTTFU",
                            "UsableRate", "ExactRate", "BaseChunks",
                            "Stalls", "Books"});
  auto results = JsonValue::Array();
  bool pass = true;
  double reduction_64 = 0.0;

  for (std::size_t sessions : session_counts) {
    std::unordered_map<std::string, RunResult> runs;
    for (const ModeSpec& mode : kModes) {
      const RunResult run = RunChannel(sessions, mode, end_ms);
      table.AddRow({std::to_string(sessions), mode.name,
                    std::to_string(run.p99_ttfu_ms),
                    std::to_string(run.max_ttfu_ms),
                    bench::Pct(run.usable_rate), bench::Pct(run.exact_rate),
                    std::to_string(run.stream.base_chunks_pushed),
                    std::to_string(run.stream.budget_stalls),
                    run.books_balance ? "yes" : "NO"});

      if (!run.books_balance) pass = false;
      if (!mode.streaming &&
          (run.stream.tiles_submitted != 0 || run.stream.chunks_pushed != 0 ||
           run.stream.chunks_enqueued != 0)) {
        pass = false;  // off must never touch the stream counters
      }

      auto row = JsonValue::Object();
      row.Set("sessions", static_cast<std::uint64_t>(sessions));
      row.Set("mode", mode.name);
      row.Set("p99_ttfu_ms", run.p99_ttfu_ms);
      row.Set("max_ttfu_ms", run.max_ttfu_ms);
      row.Set("usable_rate", run.usable_rate);
      row.Set("exact_rate", run.exact_rate);
      row.Set("published", run.published);
      row.Set("delivered_usable", run.delivered_usable);
      row.Set("drain_fingerprint", run.drain_fingerprint);
      row.Set("predictions_published", run.prefetch.predictions_published);
      row.Set("fills_issued", run.prefetch.fills_issued);
      row.Set("dedup_saved_fetches", run.prefetch.dedup_saved_fetches);
      row.Set("tiles_submitted", run.stream.tiles_submitted);
      row.Set("chunks_enqueued", run.stream.chunks_enqueued);
      row.Set("chunks_pushed", run.stream.chunks_pushed);
      row.Set("base_chunks_pushed", run.stream.base_chunks_pushed);
      row.Set("exact_chunks_pushed", run.stream.exact_chunks_pushed);
      row.Set("first_usable_pushes", run.stream.first_usable_pushes);
      row.Set("bytes_pushed", run.stream.bytes_pushed);
      row.Set("budget_stalls", run.stream.budget_stalls);
      row.Set("stale_chunks_dropped", run.stream.stale_chunks_dropped);
      row.Set("expired_chunks_dropped", run.stream.expired_chunks_dropped);
      row.Set("books_balance", run.books_balance);
      results.Push(std::move(row));
      runs.emplace(mode.name, run);
    }

    // Defaults-off bit-identity: constructing the scheduler, registering
    // every session, and running the supersession/pump hooks — with
    // nothing submitted — must leave the delivery sequence untouched.
    if (runs.at("off").drain_fingerprint !=
        runs.at("off_control").drain_fingerprint) {
      std::cerr << "FAIL: off_control fingerprint diverged at " << sessions
                << " sessions\n";
      pass = false;
    }

    if (sessions == 64) {
      const RunResult& aon = runs.at("all_or_nothing");
      const RunResult& prog = runs.at("progressive");
      reduction_64 = prog.p99_ttfu_ms > 0.0
                         ? aon.p99_ttfu_ms / prog.p99_ttfu_ms
                         : 0.0;
      // The acceptance gate: under saturation the progressive stream gets
      // a usable tile to the client >= 2x sooner at the tail, makes MORE
      // tiles usable while they are still relevant, and actually shipped
      // split chunks.
      if (reduction_64 < 2.0) pass = false;
      if (prog.usable_rate + 0.01 < aon.usable_rate) pass = false;
      if (prog.stream.base_chunks_pushed == 0) pass = false;
      if (prog.stream.exact_chunks_pushed == 0) pass = false;
    }
  }
  table.Print();
  std::cout << "\np99 time-to-first-usable reduction at 64 sessions "
            << "(progressive vs all-or-nothing): " << reduction_64 << "x\n";

  auto report = JsonValue::Object();
  report.Set("bench", "stream_staleness");
  report.Set("fast_mode", bench::FastBench());
  report.Set("pass", pass);
  report.Set("channel_bytes_per_ms", kChannelBytesPerMs);
  report.Set("progressive_base_step", kBaseStep);
  report.Set("ttfu_p99_reduction_64", reduction_64);
  report.Set("results", std::move(results));
  const std::string json_path = "BENCH_stream.json";
  if (auto status = WriteJsonFile(json_path, report); !status.ok()) {
    std::cerr << "ERROR writing " << json_path << ": " << status << "\n";
    return 1;
  }
  std::cout << "Wrote " << json_path << "\n";

  std::cout << "\nThe same channel, the same utility order: shipping the\n"
            << "coarse base first turns most of the backlog usable within\n"
            << "each wave instead of after it. "
            << (pass ? "PASS\n" : "FAIL\n");
  return pass ? 0 : 1;
}
