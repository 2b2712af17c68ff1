// Unit tests for the telemetry subsystem (common/metrics.h,
// common/trace.h): histogram bucket boundaries, concurrent
// record-then-merge determinism, registry snapshot consistency, exporter
// goldens (JSON + Prometheus), trace ring wraparound + sampling, the
// FC_LOG_LEVEL plumbing, and a deterministic full-stack SimClock trace
// golden through server -> scheduler -> stream.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/ab_recommender.h"
#include "core/allocation.h"
#include "server/forecache_server.h"
#include "server/session.h"
#include "storage/tile_store.h"
#include "tiles/pyramid.h"

namespace fc::telemetry {
namespace {

// ---------------------------------------------------------------------------
// Histogram buckets

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds exactly the value 0.
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  // Bucket i holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  for (std::size_t i = 1; i < 31; ++i) {
    const std::uint64_t lower = std::uint64_t{1} << (i - 1);
    const std::uint64_t upper = (std::uint64_t{1} << i) - 1;
    EXPECT_EQ(Histogram::BucketIndex(lower), i) << "lower bound of bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(upper), i) << "upper bound of bucket " << i;
  }
  // The last bucket is open-ended.
  EXPECT_EQ(Histogram::BucketIndex(std::uint64_t{1} << 30), 31u);
  EXPECT_EQ(Histogram::BucketIndex(~std::uint64_t{0}), 31u);

  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(0), 0u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(1), 1u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(5), 31u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(31), ~std::uint64_t{0});
}

TEST(HistogramTest, RecordAndSnapshot) {
  Histogram h;
  for (std::uint64_t v : {0, 1, 2, 3}) h.Record(v);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum, 6u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 2u);
  for (std::size_t i = 3; i < HistogramSnapshot::kBuckets; ++i) {
    EXPECT_EQ(snap.buckets[i], 0u);
  }
  EXPECT_DOUBLE_EQ(snap.Mean(), 1.5);
}

TEST(HistogramTest, Quantiles) {
  HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);

  Histogram h;
  for (std::uint64_t v : {0, 1, 2, 3}) h.Record(v);
  HistogramSnapshot snap = h.Snapshot();
  // rank 2 lands in bucket 1 ([1,1]).
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 1.0);
  // rank 4 lands halfway into bucket 2 ([2,3]).
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 2.5);
  // A quantile landing in bucket 0 is exactly 0.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 0.0);

  // The open-ended bucket reports its lower bound, not an invented max.
  Histogram big;
  big.Record(~std::uint64_t{0});
  EXPECT_DOUBLE_EQ(big.Snapshot().Quantile(0.99),
                   static_cast<double>(std::uint64_t{1} << 30));
}

TEST(HistogramTest, ConcurrentRecordThenMergeIsDeterministic) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 1000;
  Histogram h;
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &c] {
      for (std::uint64_t v = 1; v <= kPerThread; ++v) {
        h.Record(v);
        c.Add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(c.Value(), kThreads * kPerThread);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_EQ(snap.sum, kThreads * kPerThread * (kPerThread + 1) / 2);
  // Per-bucket totals are exactly kThreads x the single-thread layout, no
  // matter which shard each thread hashed onto.
  std::uint64_t expected[HistogramSnapshot::kBuckets] = {};
  for (std::uint64_t v = 1; v <= kPerThread; ++v) {
    expected[Histogram::BucketIndex(v)] += kThreads;
  }
  for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
    EXPECT_EQ(snap.buckets[i], expected[i]) << "bucket " << i;
  }
}

// ---------------------------------------------------------------------------
// Registry

TEST(MetricsRegistryTest, InstrumentPointersAreStable) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("fc.test.count");
  EXPECT_EQ(registry.GetCounter("fc.test.count"), c);
  Histogram* h = registry.GetHistogram("fc.test.lat");
  EXPECT_EQ(registry.GetHistogram("fc.test.lat"), h);
  Gauge* g = registry.GetGauge("fc.test.queue");
  EXPECT_EQ(registry.GetGauge("fc.test.queue"), g);
}

TEST(MetricsRegistryTest, SnapshotCoversInstrumentsAndSources) {
  MetricsRegistry registry;
  registry.GetCounter("fc.test.count")->Add(3);
  registry.GetGauge("fc.test.queue")->Set(2.5);
  registry.GetHistogram("fc.test.lat")->Record(7);
  const std::uint64_t source_id = registry.AddSource([](SnapshotSink& sink) {
    sink.AddCounter("fc.component.stat", 42);
    sink.AddGauge("fc.component.depth", 5.0);
  });

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterOr("fc.test.count"), 3u);
  EXPECT_EQ(snap.CounterOr("fc.component.stat"), 42u);
  EXPECT_EQ(snap.CounterOr("fc.missing", 99), 99u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("fc.component.depth"), 5.0);
  ASSERT_NE(snap.FindHistogram("fc.test.lat"), nullptr);
  EXPECT_EQ(snap.FindHistogram("fc.test.lat")->count, 1u);
  EXPECT_EQ(snap.FindHistogram("fc.nope"), nullptr);

  registry.RemoveSource(source_id);
  MetricsSnapshot after = registry.Snapshot();
  EXPECT_EQ(after.counters.count("fc.component.stat"), 0u);
  EXPECT_EQ(after.CounterOr("fc.test.count"), 3u);  // instruments persist
}

// ---------------------------------------------------------------------------
// Exporter goldens. One registry, fixed values, byte-exact output — the
// formats docs/observability.md documents.

MetricsRegistry* GoldenRegistry() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    r->GetCounter("fc.test.count")->Add(3);
    r->GetGauge("fc.test.queue")->Set(2.5);
    Histogram* h = r->GetHistogram("fc.test.lat");
    for (std::uint64_t v : {0, 1, 2, 3}) h->Record(v);
    return r;
  }();
  return registry;
}

TEST(MetricsExportTest, JsonGolden) {
  const std::string json = GoldenRegistry()->Snapshot().ToJson().Dump(0);
  std::string expected =
      "{\"counters\":{\"fc.test.count\":3},"
      "\"gauges\":{\"fc.test.queue\":2.5},"
      "\"histograms\":{\"fc.test.lat\":{"
      "\"count\":4,\"sum\":6,\"mean\":1.5,\"p50\":1,\"p99\":2.5,\"p999\":2.5,"
      "\"buckets\":[1,1,2,0,0,0,0,0,0,0,0,0,0,0,0,0,"
      "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}}";
  EXPECT_EQ(json, expected);
}

TEST(MetricsExportTest, PrometheusGolden) {
  const std::string text = GoldenRegistry()->Snapshot().ToPrometheusText();
  const std::string expected =
      "# TYPE fc_test_count counter\n"
      "fc_test_count 3\n"
      "# TYPE fc_test_queue gauge\n"
      "fc_test_queue 2.5\n"
      "# TYPE fc_test_lat histogram\n"
      "fc_test_lat_bucket{le=\"0\"} 1\n"
      "fc_test_lat_bucket{le=\"1\"} 2\n"
      "fc_test_lat_bucket{le=\"3\"} 4\n"
      "fc_test_lat_bucket{le=\"+Inf\"} 4\n"
      "fc_test_lat_sum 6\n"
      "fc_test_lat_count 4\n";
  EXPECT_EQ(text, expected);
}

// ---------------------------------------------------------------------------
// Trace sink

TEST(TraceSinkTest, RingWrapsOldestFirst) {
  TraceSinkOptions options;
  options.capacity = 4;
  TraceSink sink(options);
  for (int i = 1; i <= 6; ++i) {
    sink.Record(TraceEvent{static_cast<std::uint64_t>(i), 1, "e",
                           static_cast<double>(i), static_cast<double>(i)});
  }
  EXPECT_EQ(sink.recorded_events(), 6u);
  EXPECT_EQ(sink.dropped_events(), 2u);
  std::vector<TraceEvent> events = sink.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].trace_id, static_cast<std::uint64_t>(i + 3));
  }
}

TEST(TraceSinkTest, HeadSampling) {
  TraceSinkOptions options;
  options.sample_every = 3;
  TraceSink sink(options);
  std::vector<std::uint64_t> sampled;
  for (int i = 0; i < 7; ++i) {
    TraceContext ctx = sink.StartTrace(1);
    if (ctx.sampled()) sampled.push_back(ctx.trace_id);
  }
  EXPECT_EQ(sink.started_traces(), 7u);
  // Ids are monotone from 1; 1 of every 3 is sampled, starting with the 1st.
  EXPECT_EQ(sampled, (std::vector<std::uint64_t>{1, 4, 7}));
}

TEST(TraceSinkTest, InertSpansRecordNothing) {
  TraceSink sink;
  {
    Span null_sink(nullptr, "a", TraceContext{1, 1});
    Span unsampled(&sink, "b", TraceContext{0, 1});
  }
  EXPECT_EQ(sink.recorded_events(), 0u);
  {
    Span live(&sink, "c", TraceContext{1, 1});
    live.End();
    live.End();  // idempotent
  }
  EXPECT_EQ(sink.recorded_events(), 1u);
}

// ---------------------------------------------------------------------------
// Logging satellites

TEST(LoggingTest, ParseLogLevel) {
  EXPECT_EQ(ParseLogLevel("debug", LogLevel::kInfo), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("WARNING", LogLevel::kInfo), LogLevel::kWarning);
  EXPECT_EQ(ParseLogLevel("warn", LogLevel::kInfo), LogLevel::kWarning);
  EXPECT_EQ(ParseLogLevel("Error", LogLevel::kInfo), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("0", LogLevel::kInfo), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("3", LogLevel::kInfo), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel(nullptr, LogLevel::kWarning), LogLevel::kWarning);
  EXPECT_EQ(ParseLogLevel("bogus", LogLevel::kError), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("7", LogLevel::kInfo), LogLevel::kInfo);
}

TEST(LoggingTest, LogEventsFeedTelemetryCountersEvenWhenSuppressed) {
  MetricsRegistry registry;
  const std::uint64_t source = RegisterLogEventMetrics(&registry);
  const LogEventCounts before = GetLogEventCounts();

  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kError);  // suppress the warning's output
  FC_LOG(WARNING) << "telemetry test warning (suppressed)";
  FC_LOG(ERROR) << "telemetry test error (expected in output)";
  SetLogLevel(saved);

  const LogEventCounts after = GetLogEventCounts();
  EXPECT_EQ(after.warnings - before.warnings, 1u);
  EXPECT_EQ(after.errors - before.errors, 1u);

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterOr("fc.log.warnings"), after.warnings);
  EXPECT_EQ(snap.CounterOr("fc.log.errors"), after.errors);
  registry.RemoveSource(source);
}

// ---------------------------------------------------------------------------
// TSan-covered concurrency: recorders, scrapers, and tracers in parallel.

TEST(TelemetryConcurrencyTest, RecordScrapeTraceRace) {
  MetricsRegistry registry;
  TraceSinkOptions trace_options;
  trace_options.capacity = 64;
  trace_options.sample_every = 2;
  TraceSink sink(trace_options);
  registry.AddSource([&sink](SnapshotSink& s) {
    s.AddCounter("fc.trace.recorded", sink.recorded_events());
  });

  constexpr int kRecorders = 4;
  constexpr int kOps = 5000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kRecorders; ++t) {
    threads.emplace_back([&registry, &sink] {
      Counter* c = registry.GetCounter("fc.race.count");
      Histogram* h = registry.GetHistogram("fc.race.lat");
      for (int i = 0; i < kOps; ++i) {
        c->Add(1);
        h->Record(static_cast<std::uint64_t>(i % 1024));
        TraceContext ctx = sink.StartTrace(1);
        Span span(&sink, "race.op", ctx);
      }
    });
  }
  threads.emplace_back([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      MetricsSnapshot snap = registry.Snapshot();
      (void)snap.ToPrometheusText();
    }
  });
  threads.emplace_back([&sink, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)sink.Snapshot();
    }
  });
  for (int t = 0; t < kRecorders; ++t) threads[t].join();
  stop.store(true, std::memory_order_relaxed);
  threads[kRecorders].join();
  threads[kRecorders + 1].join();

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterOr("fc.race.count"), kRecorders * kOps);
  const HistogramSnapshot* h = snap.FindHistogram("fc.race.lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, kRecorders * kOps);
  // Half the traces are sampled; every sampled one recorded exactly one
  // span (overflow past the ring is counted, never lost silently).
  EXPECT_EQ(sink.started_traces(), kRecorders * kOps);
  EXPECT_EQ(sink.recorded_events(), kRecorders * kOps / 2);
  EXPECT_EQ(sink.dropped_events(), sink.recorded_events() - 64);
}

}  // namespace
}  // namespace fc::telemetry

// ---------------------------------------------------------------------------
// Full-stack deterministic trace golden, driven on the SimClock in pull
// mode: one sampled request must leave cache.lookup, prefetch.publish,
// request.handle, then (during the drains) prefetch.fetch, then (during
// the stream flush) stream.push spans — with monotone stamps.

namespace fc::server {
namespace {

std::shared_ptr<tiles::TilePyramid> TracePyramid(int levels = 3) {
  auto schema = array::ArraySchema::Make(
      "base",
      {array::Dimension{"y", 0, 8 << (levels - 1), 8},
       array::Dimension{"x", 0, 8 << (levels - 1), 8}},
      {array::Attribute{"v"}});
  array::DenseArray base(std::move(*schema));
  for (std::int64_t y = 0; y < base.schema().dims()[0].length; ++y) {
    for (std::int64_t x = 0; x < base.schema().dims()[1].length; ++x) {
      base.SetLinear(base.LinearIndex({y, x}), 0, static_cast<double>(x));
    }
  }
  tiles::PyramidBuildOptions options;
  options.num_levels = levels;
  options.tile_width = 8;
  options.tile_height = 8;
  tiles::TilePyramidBuilder builder(options);
  auto pyramid = builder.Build(base);
  EXPECT_TRUE(pyramid.ok());
  return *pyramid;
}

struct TraceEngineParts {
  core::AbRecommender ab;
  core::FixedAllocationStrategy strategy{"all-ab", 1.0};

  static TraceEngineParts Make() {
    auto ab = core::AbRecommender::Make();
    EXPECT_TRUE(ab.ok());
    EXPECT_TRUE(ab->Train({}).ok());
    return TraceEngineParts{std::move(*ab)};
  }
};

array::QueryCostModel NoJitterCosts() {
  auto costs = array::CalibratedPaperCosts();
  costs.jitter_rel_stddev = 0.0;
  return array::QueryCostModel(costs, 1);
}

TEST(TelemetryIntegrationTest, FullStackTraceGoldenOnSimClock) {
  auto pyramid = TracePyramid();
  SimClock clock;
  storage::SimulatedDbmsStore store(pyramid, NoJitterCosts(), &clock);
  auto parts = TraceEngineParts::Make();
  core::PredictionEngineOptions engine_options;
  engine_options.prefetch_k = 4;
  core::PredictionEngine engine(&pyramid->spec(), nullptr, &parts.ab, nullptr,
                                &parts.strategy, engine_options);

  telemetry::MetricsRegistry registry;
  telemetry::TraceSinkOptions trace_options;
  trace_options.sample_every = 2;  // request 1 sampled, request 2 not
  trace_options.clock = &clock;
  telemetry::TraceSink sink(trace_options);

  core::SharedTileCache shared_cache;
  core::PrefetchSchedulerOptions scheduler_options;
  scheduler_options.clock = &clock;
  scheduler_options.metrics = &registry;
  scheduler_options.trace = &sink;
  core::PrefetchScheduler scheduler(&store, /*executor=*/nullptr,
                                    &shared_cache, scheduler_options);
  core::StreamSchedulerOptions stream_options;
  stream_options.clock = &clock;
  stream_options.codec.progressive_base_step = 8.0;
  stream_options.metrics = &registry;
  stream_options.trace = &sink;
  core::StreamScheduler stream(/*executor=*/nullptr, stream_options);

  ServerOptions options;
  options.cache.session_id = 7;
  options.cache.prefetch_bytes = 1 << 20;
  options.metrics = &registry;
  options.trace = &sink;
  ForeCacheServer server(&store, &engine, &clock, options, nullptr,
                         &shared_cache, &scheduler, &stream);
  server.StartSession();

  core::TileRequest request;
  request.tile = tiles::TileKey{0, 0, 0};
  request.move = std::nullopt;
  ASSERT_TRUE(server.HandleRequest(request).ok());
  while (scheduler.DrainOne()) {
  }
  stream.Flush();

  std::vector<telemetry::TraceEvent> events = sink.Snapshot();
  ASSERT_GE(events.size(), 5u);
  EXPECT_STREQ(events[0].name, "cache.lookup");
  EXPECT_STREQ(events[1].name, "prefetch.publish");
  EXPECT_STREQ(events[2].name, "request.handle");
  std::size_t fetches = 0, pushes = 0;
  for (std::size_t i = 3; i < events.size(); ++i) {
    if (std::string(events[i].name) == "prefetch.fetch") {
      EXPECT_EQ(pushes, 0u) << "fetch after a push: drains all ran first";
      ++fetches;
    } else {
      EXPECT_STREQ(events[i].name, "stream.push");
      ++pushes;
    }
  }
  EXPECT_GT(fetches, 0u);
  EXPECT_GT(pushes, 0u);

  for (const auto& event : events) {
    EXPECT_EQ(event.trace_id, 1u);
    EXPECT_EQ(event.session_id, 7u);
    EXPECT_LE(event.start_ms, event.end_ms);
  }
  // Ring order is span-close order; on one pull-mode thread over one
  // SimClock that order is monotone in time.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].end_ms, events[i].end_ms);
  }
  // The demand miss pays the calibrated DBMS query (~984 ms for one 8x8
  // tile, no jitter), so the lookup span covers exactly the serve step and
  // the handle span closes with it (publishing charges no clock).
  EXPECT_DOUBLE_EQ(events[0].start_ms, 0.0);
  EXPECT_NEAR(events[0].end_ms, 984.0, 2.0);
  EXPECT_DOUBLE_EQ(events[2].start_ms, 0.0);
  EXPECT_DOUBLE_EQ(events[2].end_ms, events[0].end_ms);
  // Fetch spans start when the drain rounds begin — after the request.
  EXPECT_GE(events[3].start_ms, events[2].end_ms);

  // The registry saw the same story: one request, no cache hit, one
  // latency recording, and every drain round's batch size.
  telemetry::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterOr("fc.requests.total"), 1u);
  EXPECT_EQ(snap.CounterOr("fc.requests.cache_hits"), 0u);
  const telemetry::HistogramSnapshot* latency =
      snap.FindHistogram("fc.request.latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 1u);
  const telemetry::HistogramSnapshot* batch =
      snap.FindHistogram("fc.prefetch.batch_size");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->count, fetches);

  // An unsampled request adds no spans (inert end to end) but still counts.
  const std::uint64_t recorded_before = sink.recorded_events();
  core::TileRequest again;
  again.tile = tiles::TileKey{0, 0, 0};
  again.move = std::nullopt;
  ASSERT_TRUE(server.HandleRequest(again).ok());
  while (scheduler.DrainOne()) {
  }
  stream.Flush();
  EXPECT_EQ(sink.recorded_events(), recorded_before);
  EXPECT_EQ(sink.started_traces(), 2u);
  EXPECT_EQ(registry.Snapshot().CounterOr("fc.requests.total"), 2u);
}

// One snapshot through the SessionManager covers every layer of the stack.
TEST(TelemetryIntegrationTest, ManagerSnapshotCoversAllLayers) {
  auto pyramid = TracePyramid();
  auto parts = TraceEngineParts::Make();
  SharedPredictionComponents shared;
  shared.ab = &parts.ab;
  shared.strategy = &parts.strategy;
  shared.engine_options.prefetch_k = 4;

  storage::MemoryTileStore store(pyramid);
  SimClock clock;
  telemetry::MetricsRegistry registry;
  telemetry::TraceSinkOptions trace_options;
  trace_options.clock = &clock;
  telemetry::TraceSink sink(trace_options);

  SessionManagerOptions options;
  options.executor_threads = 2;
  options.use_push_streaming = true;
  options.stream_scheduler.codec.progressive_base_step = 8.0;
  options.metrics = &registry;
  options.trace = &sink;
  {
    SessionManager manager(&store, &clock, shared, options);
    BrowserSession* session = manager.GetOrCreate("u1");
    ASSERT_TRUE(session->Open().ok());
    session->WaitForPrefetch();
    for (core::Move move : {core::Move::kZoomInNW, core::Move::kPanRight,
                            core::Move::kZoomOut}) {
      auto served = session->ApplyMove(move);
      if (!served.ok()) {
        EXPECT_TRUE(served.status().IsInvalidArgument());
      }
      session->WaitForPrefetch();
    }
    manager.executor()->Wait();

    telemetry::MetricsSnapshot snap = registry.Snapshot();
    // Serving edge.
    EXPECT_GE(snap.CounterOr("fc.requests.total"), 4u);
    const telemetry::HistogramSnapshot* latency =
        snap.FindHistogram("fc.request.latency_us");
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->count, snap.CounterOr("fc.requests.total"));
    // Shared cache, prefetch queue, stream channel, storage, logging — all
    // present in the SAME scrape.
    EXPECT_EQ(snap.counters.count("fc.cache.hits"), 1u);
    EXPECT_EQ(snap.gauges.count("fc.cache.bytes_resident"), 1u);
    EXPECT_EQ(snap.counters.count("fc.prefetch.predictions_published"), 1u);
    EXPECT_EQ(snap.counters.count("fc.stream.tiles_submitted"), 1u);
    EXPECT_EQ(snap.counters.count("fc.store.fetches"), 1u);
    EXPECT_EQ(snap.counters.count("fc.store.backend.fetches"), 1u);
    EXPECT_EQ(snap.counters.count("fc.log.warnings"), 1u);
    // The prefetch books balance once the queue has settled.
    EXPECT_EQ(snap.CounterOr("fc.prefetch.fills_issued") +
                  snap.CounterOr("fc.prefetch.dedup_saved_fetches"),
              snap.CounterOr("fc.prefetch.predictions_published"));
    // Requests traced by default sampling (every request).
    EXPECT_GT(sink.recorded_events(), 0u);
  }
  // Manager gone: its sources were removed, the registry stays scrapeable
  // and the edge instruments persist.
  telemetry::MetricsSnapshot after = registry.Snapshot();
  EXPECT_EQ(after.counters.count("fc.cache.hits"), 0u);
  EXPECT_GE(after.CounterOr("fc.requests.total"), 4u);
}

}  // namespace
}  // namespace fc::server
