// Telemetry overhead: the serving stack at 64 concurrent sessions with the
// full observability surface enabled (metrics registry + every snapshot
// adapter + sampled request tracing) versus the identical workload with no
// telemetry wired at all.
//
// The hot-path contract in common/metrics.h is that recording is one
// relaxed atomic add on a sharded cell, and unsampled requests carry inert
// spans that never read the clock. This harness holds the subsystem to
// that contract end to end: the telemetry configuration must stay within
// 3% of the baseline's wall-clock time (min over alternating repetitions,
// with a small absolute floor so sub-100ms smoke runs don't gate on timer
// noise).
//
// It also audits the books: one registry snapshot taken after the run must
// satisfy the scheduler's retirement invariant (fills_issued +
// dedup_saved_fetches == predictions_published) and the request-path
// histogram must have counted exactly the requests the servers served.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "server/session.h"
#include "storage/tile_store.h"

#include "bench_common.h"

using namespace fc;

namespace {

constexpr std::size_t kSessions = 64;
constexpr int kReps = 3;
/// Timer-noise floor: deltas under this never fail the gate (relevant only
/// to FORECACHE_FAST_BENCH smoke runs whose whole workload is a few ms).
constexpr double kNoiseFloorSec = 0.05;
constexpr double kMaxOverheadPct = 3.0;

struct RunResult {
  bench::ReplayResult replay;
  telemetry::MetricsSnapshot snapshot;  ///< Empty for the baseline.
  std::uint64_t trace_events = 0;
};

RunResult RunOnce(const sim::Study& study, bool with_telemetry) {
  SimClock clock;
  array::QueryCostModel costs(array::CalibratedPaperCosts(), 5);
  storage::SimulatedDbmsStore store(study.dataset.pyramid, costs, &clock);

  telemetry::MetricsRegistry registry;
  telemetry::TraceSinkOptions trace_options;
  trace_options.capacity = 4096;
  trace_options.sample_every = 32;
  trace_options.clock = &clock;
  telemetry::TraceSink trace(trace_options);

  server::SessionManagerOptions options =
      bench::ServingOptions(study, bench::SharedCache::kRoomy);
  options.use_push_streaming = true;
  if (with_telemetry) {
    options.metrics = &registry;
    options.trace = &trace;
  }

  std::vector<const core::Trace*> traces;
  for (std::size_t s = 0; s < kSessions; ++s) {
    traces.push_back(&study.traces[s % study.traces.size()]);
  }

  RunResult result;
  {
    server::SessionManager manager(&store, &clock,
                                   bench::TrainedComponents(5), options);
    result.replay = bench::ReplaySessions(&manager, traces);
    // Snapshot while the manager (and its pull sources) is alive: this is
    // the "one scrape covers the whole process" artifact the books are
    // audited against below.
    if (with_telemetry) {
      result.snapshot = registry.Snapshot();
      result.trace_events = trace.recorded_events();
    }
  }
  return result;
}

/// The post-run snapshot must tell the same story the components do.
bool AuditBooks(const RunResult& run, std::vector<std::string>* failures) {
  auto counter = [&run](const std::string& name) {
    return run.snapshot.CounterOr(name, 0);
  };
  const std::uint64_t published = counter("fc.prefetch.predictions_published");
  const std::uint64_t retired = counter("fc.prefetch.fills_issued") +
                                counter("fc.prefetch.dedup_saved_fetches");
  if (published != retired) {
    failures->push_back("prefetch retirement: fills_issued + "
                        "dedup_saved_fetches = " + std::to_string(retired) +
                        " != predictions_published = " +
                        std::to_string(published));
  }
  const std::uint64_t requests = counter("fc.requests.total");
  if (requests != run.replay.requests) {
    failures->push_back("fc.requests.total = " + std::to_string(requests) +
                        " != served requests = " +
                        std::to_string(run.replay.requests));
  }
  const telemetry::HistogramSnapshot* latency =
      run.snapshot.FindHistogram("fc.request.latency_us");
  if (latency == nullptr) {
    failures->push_back("fc.request.latency_us histogram missing");
  } else if (latency->count != run.replay.requests) {
    failures->push_back("fc.request.latency_us count = " +
                        std::to_string(latency->count) +
                        " != served requests = " +
                        std::to_string(run.replay.requests));
  }
  const std::uint64_t hits = counter("fc.requests.cache_hits");
  if (hits > requests) {
    failures->push_back("cache_hits " + std::to_string(hits) +
                        " exceeds requests " + std::to_string(requests));
  }
  return failures->empty();
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Telemetry overhead — full observability surface vs no telemetry",
      "registry + adapters + sampled tracing at 64 sessions");
  const auto& study = bench::GetStudy();

  // Alternate modes within each repetition so drift (thermal, page cache,
  // scheduler) lands on both sides equally; keep the min per mode.
  double baseline_sec = 0.0, telemetry_sec = 0.0;
  bool replays_ok = true;
  RunResult telemetry_run;
  for (int rep = 0; rep < kReps; ++rep) {
    RunResult base = RunOnce(study, /*with_telemetry=*/false);
    RunResult tel = RunOnce(study, /*with_telemetry=*/true);
    for (const RunResult* run : {&base, &tel}) {
      if (!run->replay.status.ok() || run->replay.requests == 0) {
        std::cerr << "ERROR: a repetition failed or served no requests\n";
        replays_ok = false;
      }
    }
    const double base_sec = base.replay.elapsed_sec;
    const double tel_sec = tel.replay.elapsed_sec;
    baseline_sec = rep == 0 ? base_sec : std::min(baseline_sec, base_sec);
    telemetry_sec = rep == 0 ? tel_sec : std::min(telemetry_sec, tel_sec);
    telemetry_run = std::move(tel);
    std::cout << "rep " << rep + 1 << "/" << kReps << ": baseline "
              << base_sec << "s, telemetry " << tel_sec << "s\n";
  }

  const double delta_sec = telemetry_sec - baseline_sec;
  const double overhead_pct =
      baseline_sec > 0.0 ? 100.0 * delta_sec / baseline_sec : 0.0;
  const bool overhead_ok =
      overhead_pct < kMaxOverheadPct || delta_sec < kNoiseFloorSec;

  std::vector<std::string> book_failures;
  const bool books_ok = AuditBooks(telemetry_run, &book_failures);
  for (const auto& failure : book_failures) {
    std::cerr << "BOOKS: " << failure << "\n";
  }

  eval::TablePrinter table({"Mode", "Best of " + std::to_string(kReps),
                            "Requests", "Trace events"});
  table.AddRow({"baseline", eval::TablePrinter::Num(baseline_sec, 3) + "s",
                std::to_string(telemetry_run.replay.requests), "-"});
  table.AddRow({"telemetry", eval::TablePrinter::Num(telemetry_sec, 3) + "s",
                std::to_string(telemetry_run.replay.requests),
                std::to_string(telemetry_run.trace_events)});
  table.Print();
  std::cout << "overhead: " << overhead_pct << "% (gate < " << kMaxOverheadPct
            << "%, noise floor " << kNoiseFloorSec << "s)\n";

  const bool pass = replays_ok && overhead_ok && books_ok;
  auto report = JsonValue::Object();
  report.Set("bench", "telemetry_overhead");
  report.Set("fast_mode", bench::FastBench());
  report.Set("sessions", static_cast<std::uint64_t>(kSessions));
  report.Set("reps", static_cast<std::uint64_t>(kReps));
  report.Set("baseline_sec", baseline_sec);
  report.Set("telemetry_sec", telemetry_sec);
  report.Set("overhead_pct", overhead_pct);
  report.Set("max_overhead_pct", kMaxOverheadPct);
  report.Set("noise_floor_sec", kNoiseFloorSec);
  report.Set("overhead_ok", overhead_ok);
  report.Set("books_ok", books_ok);
  report.Set("total_requests", telemetry_run.replay.requests);
  report.Set("trace_events", telemetry_run.trace_events);
  {
    auto books = JsonValue::Object();
    books.Set("predictions_published",
              telemetry_run.snapshot.CounterOr(
                  "fc.prefetch.predictions_published", 0));
    books.Set("fills_issued",
              telemetry_run.snapshot.CounterOr("fc.prefetch.fills_issued", 0));
    books.Set("dedup_saved_fetches",
              telemetry_run.snapshot.CounterOr(
                  "fc.prefetch.dedup_saved_fetches", 0));
    books.Set("requests_total",
              telemetry_run.snapshot.CounterOr("fc.requests.total", 0));
    books.Set("cache_hits",
              telemetry_run.snapshot.CounterOr("fc.requests.cache_hits", 0));
    report.Set("books", std::move(books));
  }
  if (const auto* latency =
          telemetry_run.snapshot.FindHistogram("fc.request.latency_us")) {
    auto hist = JsonValue::Object();
    hist.Set("count", latency->count);
    hist.Set("p50_us", latency->Quantile(0.50));
    hist.Set("p99_us", latency->Quantile(0.99));
    hist.Set("p999_us", latency->Quantile(0.999));
    report.Set("request_latency", std::move(hist));
  }
  report.Set("pass", pass);
  if (!bench::WriteReport("BENCH_telemetry.json", report)) return 1;

  std::cout << (pass ? "Telemetry stays under the overhead gate and the "
                       "books balance.\n"
                     : "FAIL: a replay, the overhead or the books check "
                       "failed.\n");
  return pass ? 0 : 1;
}
