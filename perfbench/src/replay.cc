#include "replay.h"

#include <sys/resource.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "array/cost_model.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "layers.h"
#include "server/session.h"
#include "spans.h"
#include "storage/tile_store.h"

namespace perfbench {
namespace {

using fc::server::BrowserSession;

// Jitter seed of the DBMS cost model, fixed so simulated latencies depend
// only on the workload seed.
constexpr std::uint64_t kCostSeed = 5;
constexpr std::size_t kPrefetchK = 5;

// push64's shared cache holds its working set (50-60 tiles) in L1 + L2 but
// not in L1 alone: L1 takes 32 decoded tiles; L2 has the byte budget of 48
// more but stores compressed blobs (~6x smaller), so it holds ~280.
constexpr std::size_t kPush64L1Tiles = 32;
constexpr std::size_t kPush64L2Tiles = 48;
constexpr double kStreamBaseStep = 1.0;

// disk_churn's shared cache is far smaller than its working set: 8 decoded
// tiles in L1 and the byte budget of 2 more in L2 (~12 compressed blobs).
constexpr std::size_t kDiskL1Tiles = 8;
constexpr std::size_t kDiskL2Tiles = 2;
constexpr std::size_t kDiskSessionThreads = 2;
constexpr std::size_t kDiskExecutorThreads = 2;
constexpr std::size_t kDiskBatchTiles = 8;
constexpr std::uint64_t kDiskTraceSampleEvery = 32;

std::int64_t ProcessCpuNs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1'000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

/// Wall and process-CPU time of the timed window.
class ReplayTimer {
 public:
  explicit ReplayTimer(EpochResult* result) : result_(result) {
    wall_ = NowNs();
    cpu_ = ProcessCpuNs();
  }
  ~ReplayTimer() {
    result_->cpu_ns = ProcessCpuNs() - cpu_;
    result_->wall_ns = NowNs() - wall_;
  }
  ReplayTimer(const ReplayTimer&) = delete;
  ReplayTimer& operator=(const ReplayTimer&) = delete;

 private:
  EpochResult* result_;
  std::int64_t wall_ = 0;
  std::int64_t cpu_ = 0;
};

/// The prediction components every session shares, decorated when traced.
struct Predictors {
  explicit Predictors(const ReplayContext& ctx)
      : ab(ctx.models->ab.get(), Layer::kRecommendAb),
        sb(ctx.models->sb.get(), Layer::kRecommendSb) {
    shared.classifier = ctx.models->classifier.get();
    shared.ab = ctx.traced ? static_cast<const fc::core::Recommender*>(&ab)
                           : ctx.models->ab.get();
    shared.sb = ctx.traced ? static_cast<const fc::core::Recommender*>(&sb)
                           : ctx.models->sb.get();
    shared.strategy = &ctx.models->strategy;
    shared.engine_options.prefetch_k = kPrefetchK;
  }
  Predictors(const Predictors&) = delete;
  Predictors& operator=(const Predictors&) = delete;

  TracedRecommender ab;
  TracedRecommender sb;
  fc::server::SharedPredictionComponents shared;
};

/// Issues request `index` of `plan` (Open for 0, else its move) and logs it.
void Issue(BrowserSession* session, std::uint32_t session_index,
           const SessionPlan& plan, std::size_t index, bool traced,
           PrefetchLedger* ledger, std::vector<ServedRecord>* log) {
  ServedRecord record;
  record.session = session_index;
  record.expected = plan.keys[index];
  SetDemandKey(record.expected);
  SetCurrentRequest((session_index + 1) << 16 | static_cast<std::uint32_t>(index));
  const std::int64_t start = NowNs();
  fc::Result<fc::server::ServedRequest> served = [&] {
    ScopedSpan span(Layer::kApply);
    return index == 0 ? session->Open() : session->ApplyMove(plan.moves[index - 1]);
  }();
  record.serve_ns = NowNs() - start;
  SetDemandKey(std::nullopt);
  SetCurrentRequest(0);
  if (served.ok()) {
    record.tile = served->tile;
    record.cache_hit = served->cache_hit;
    record.sim_latency_ms = served->latency_ms;
    if (traced && served->cache_hit) ledger->NoteHit(record.expected);
  }
  log->push_back(std::move(record));
}

void CountHits(const fc::server::ForeCacheServer& server, EpochResult* result) {
  result->private_hits += server.cache_manager().private_hits();
  result->shared_hits += server.cache_manager().shared_hits();
}

void TallyServed(EpochResult* result) {
  result->requests = result->served.size();
  for (const auto& record : result->served) {
    if (record.tile == nullptr) ++result->failed;
  }
}

void CopyDecoratorCounts(const TracedStore& store, const PrefetchLedger& ledger,
                         const Predictors& predictors, EpochResult* result) {
  result->predict_calls = predictors.ab.calls() + predictors.sb.calls();
  result->store_calls = store.calls();
  result->store_tiles = store.tiles();
  result->store_errors = store.errors();
  result->prefetch_fills = ledger.fills();
  result->prefetch_useful = ledger.useful();
}

fc::array::QueryCostModel CostModel() {
  return fc::array::QueryCostModel(fc::array::CalibratedPaperCosts(), kCostSeed);
}

// push64: 64 sessions, pull mode, one thread. Shared cache + cross-session
// prefetch queue (no executor) + progressive push (no executor). Each round
// every live session issues one request, then the queue drains and the
// stream pumps until idle.
EpochResult RunPush64(const ReplayContext& ctx) {
  EpochResult result;
  const std::int64_t build_start = NowNs();
  const auto& pyramid = ctx.study->dataset.pyramid;
  const std::size_t tile_bytes = pyramid->NominalTileBytes();
  const WorkloadPlan& plan = *ctx.plan;

  fc::SimClock clock;
  fc::storage::SimulatedDbmsStore dbms(pyramid, CostModel(), &clock);
  PrefetchLedger ledger;
  TracedStore traced_store(&dbms, &ledger);
  fc::storage::TileStore* store =
      ctx.traced ? static_cast<fc::storage::TileStore*>(&traced_store) : &dbms;
  Predictors predictors(ctx);

  fc::core::SharedTileCacheOptions cache_options;
  cache_options.l1_bytes = kPush64L1Tiles * tile_bytes;
  cache_options.l2_bytes = kPush64L2Tiles * tile_bytes;
  fc::core::SharedTileCache shared(cache_options);
  fc::core::PrefetchSchedulerOptions scheduler_options;
  scheduler_options.clock = &clock;
  scheduler_options.nominal_tile_bytes = tile_bytes;
  fc::core::PrefetchScheduler scheduler(store, /*executor=*/nullptr, &shared,
                                        scheduler_options);
  fc::core::StreamSchedulerOptions stream_options;
  stream_options.clock = &clock;
  stream_options.codec = StreamCodecOptions();
  fc::core::StreamScheduler stream(/*executor=*/nullptr, stream_options);

  // Declared after the schedulers so sessions unregister before they die.
  struct Session {
    std::unique_ptr<fc::core::PredictionEngine> engine;
    std::unique_ptr<fc::server::ForeCacheServer> server;
    std::unique_ptr<BrowserSession> browser;
  };
  std::vector<Session> sessions(plan.sessions.size());
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    const auto& shared_parts = predictors.shared;
    sessions[s].engine = std::make_unique<fc::core::PredictionEngine>(
        &pyramid->spec(), shared_parts.classifier, shared_parts.ab,
        shared_parts.sb, shared_parts.strategy, shared_parts.engine_options);
    fc::server::ServerOptions server_options;
    server_options.cache.session_id = s + 1;
    sessions[s].server = std::make_unique<fc::server::ForeCacheServer>(
        store, sessions[s].engine.get(), &clock, server_options,
        /*executor=*/nullptr, &shared, &scheduler, &stream);
    sessions[s].browser =
        std::make_unique<BrowserSession>(sessions[s].server.get());
  }
  result.served.reserve(plan.requests);
  result.stack_ns = NowNs() - build_start;

  {
    ReplayTimer timer(&result);
    for (std::size_t round = 0;; ++round) {
      bool issued = false;
      for (std::size_t s : plan.turn_order) {
        const SessionPlan& session_plan = plan.sessions[s];
        if (round >= session_plan.keys.size()) continue;
        Issue(sessions[s].browser.get(), static_cast<std::uint32_t>(s),
              session_plan, round, ctx.traced, &ledger, &result.served);
        issued = true;
      }
      if (!issued) break;
      for (;;) {
        ScopedSpan span(Layer::kDrain);
        if (!scheduler.DrainOne()) break;
      }
      for (;;) {
        ScopedSpan span(Layer::kPump);
        if (stream.Pump() == 0) break;
      }
    }
  }
  result.replay_thread_ns = result.wall_ns;

  TallyServed(&result);
  for (const auto& session : sessions) CountHits(*session.server, &result);
  result.has_cache = true;
  result.cache = shared.Stats();
  result.has_prefetch = true;
  result.prefetch = scheduler.Stats();
  result.has_stream = true;
  result.stream = stream.Stats();
  result.stream_queued_after = stream.queued();
  result.store_queries = dbms.query_count();
  result.store_chunk_scans = dbms.chunk_scan_count();
  CopyDecoratorCounts(traced_store, ledger, predictors, &result);
  return result;
}

// paper_sync: the paper's single-user configuration. Sessions run alone and
// in turn, with synchronous in-line prefetch into private regions only — no
// shared cache, no scheduler, no streaming.
EpochResult RunPaperSync(const ReplayContext& ctx) {
  EpochResult result;
  const std::int64_t build_start = NowNs();
  const WorkloadPlan& plan = *ctx.plan;
  fc::SimClock clock;
  fc::storage::SimulatedDbmsStore dbms(ctx.study->dataset.pyramid, CostModel(),
                                       &clock);
  PrefetchLedger ledger;
  TracedStore traced_store(&dbms, &ledger);
  fc::storage::TileStore* store =
      ctx.traced ? static_cast<fc::storage::TileStore*>(&traced_store) : &dbms;
  Predictors predictors(ctx);
  fc::server::SessionManager manager(store, &clock, predictors.shared,
                                     fc::server::ServerOptions{});
  result.served.reserve(plan.requests);
  result.stack_ns = NowNs() - build_start;

  {
    ReplayTimer timer(&result);
    for (std::size_t s : plan.turn_order) {
      const std::string id = "s" + std::to_string(s);
      BrowserSession* session = manager.GetOrCreate(id);
      const SessionPlan& session_plan = plan.sessions[s];
      for (std::size_t i = 0; i < session_plan.keys.size(); ++i) {
        Issue(session, static_cast<std::uint32_t>(s), session_plan, i,
              ctx.traced, &ledger, &result.served);
      }
      if (auto server = manager.ServerFor(id); server.ok()) {
        CountHits(**server, &result);
      }
      if (!manager.Close(id).ok()) result.errors.push_back("close " + id);
    }
  }
  result.replay_thread_ns = result.wall_ns;

  TallyServed(&result);
  result.store_queries = dbms.query_count();
  result.store_chunk_scans = dbms.chunk_scan_count();
  CopyDecoratorCounts(traced_store, ledger, predictors, &result);
  return result;
}

// disk_churn: the deployed configuration. SessionManager with session and
// executor threads, single-flight, telemetry wired with 1-in-32 trace
// sampling, a packed-extent DiskTileStore with range-coalesced batches, and
// a small TinyLFU-filtered two-tier shared cache. Streaming off.
EpochResult RunDiskChurn(const ReplayContext& ctx) {
  EpochResult result;
  const std::int64_t build_start = NowNs();
  const auto& pyramid = ctx.study->dataset.pyramid;
  const std::size_t tile_bytes = pyramid->NominalTileBytes();
  const WorkloadPlan& plan = *ctx.plan;

  fc::storage::RangeCoalesceOptions coalesce;
  coalesce.enabled = true;
  auto opened = fc::storage::DiskTileStore::Open(ctx.disk_dir, pyramid->spec(),
                                                 {}, coalesce);
  if (!opened.ok() || !(*opened)->packed_loaded()) {
    result.errors.push_back("disk store at " + ctx.disk_dir +
                            " did not open with a packed extent");
    return result;
  }
  std::unique_ptr<fc::storage::DiskTileStore> disk = std::move(opened).value();
  PrefetchLedger ledger;
  TracedStore traced_store(disk.get(), &ledger);
  fc::storage::TileStore* store =
      ctx.traced ? static_cast<fc::storage::TileStore*>(&traced_store)
                 : disk.get();
  Predictors predictors(ctx);

  // Wall-clock mode: no SimClock, so ServedRequest::latency_ms is the
  // measured serve-step time (the disk store charges no virtual cost).
  fc::SteadyClock wall_clock;
  fc::telemetry::MetricsRegistry registry;
  fc::telemetry::TraceSinkOptions trace_options;
  trace_options.sample_every = kDiskTraceSampleEvery;
  trace_options.clock = &wall_clock;
  fc::telemetry::TraceSink sink(trace_options);

  fc::server::SessionManagerOptions options;
  options.server.wall_clock = &wall_clock;
  options.executor_threads = kDiskExecutorThreads;
  options.use_shared_cache = true;
  options.shared_cache.l1_bytes = kDiskL1Tiles * tile_bytes;
  options.shared_cache.l2_bytes = kDiskL2Tiles * tile_bytes;
  options.shared_cache.admission.policy = fc::core::AdmissionPolicyKind::kTinyLfu;
  options.shared_cache.admission.sketch_counters = 1024;
  options.single_flight = true;
  options.use_prefetch_scheduler = true;
  options.prefetch_scheduler.batch.max_batch_tiles = kDiskBatchTiles;
  options.prefetch_scheduler.nominal_tile_bytes = tile_bytes;
  options.use_push_streaming = false;
  options.metrics = &registry;
  options.trace = &sink;
  fc::server::SessionManager manager(store, /*clock=*/nullptr,
                                     predictors.shared, options);

  std::vector<std::vector<ServedRecord>> logs(plan.sessions.size());
  std::vector<std::int64_t> thread_ns(plan.sessions.size(), 0);
  std::vector<fc::server::SessionManager::SessionWorkload> workloads;
  for (std::size_t s : plan.turn_order) {
    logs[s].reserve(plan.sessions[s].keys.size());
    workloads.push_back(
        {"s" + std::to_string(s), [&, s](BrowserSession* session) {
           SetReplayThread(true);
           const std::int64_t start = NowNs();
           const SessionPlan& session_plan = plan.sessions[s];
           for (std::size_t i = 0; i < session_plan.keys.size(); ++i) {
             Issue(session, static_cast<std::uint32_t>(s), session_plan, i,
                   ctx.traced, &ledger, &logs[s]);
             ScopedSpan span(Layer::kWait);
             session->WaitForPrefetch();
           }
           thread_ns[s] = NowNs() - start;
           return fc::Status::OK();
         }});
  }
  result.stack_ns = NowNs() - build_start;

  fc::Status status;
  {
    ReplayTimer timer(&result);
    status = manager.RunSessions(workloads, kDiskSessionThreads);
  }
  if (!status.ok()) result.errors.push_back("RunSessions: " + status.ToString());
  manager.executor()->Wait();
  for (std::int64_t ns : thread_ns) result.replay_thread_ns += ns;

  result.served.reserve(plan.requests);
  for (auto& log : logs) {
    for (auto& record : log) result.served.push_back(std::move(record));
  }
  TallyServed(&result);
  for (std::size_t s = 0; s < plan.sessions.size(); ++s) {
    if (auto server = manager.ServerFor("s" + std::to_string(s)); server.ok()) {
      CountHits(**server, &result);
    }
  }
  result.has_cache = true;
  result.cache = manager.shared_cache()->Stats();
  result.has_prefetch = true;
  result.prefetch = manager.prefetch_scheduler()->Stats();
  result.store_queries = disk->query_count();
  result.store_syscalls = disk->syscall_count();
  result.store_bytes_read = disk->bytes_read();
  CopyDecoratorCounts(traced_store, ledger, predictors, &result);
  return result;
}

}  // namespace

fc::storage::TileCodecOptions StreamCodecOptions() {
  fc::storage::TileCodecOptions options;
  options.progressive_base_step = kStreamBaseStep;
  return options;
}

EpochResult RunEpoch(const ReplayContext& ctx) {
  switch (ctx.kind) {
    case WorkloadKind::kPush64: return RunPush64(ctx);
    case WorkloadKind::kPaperSync: return RunPaperSync(ctx);
    case WorkloadKind::kDiskChurn: return RunDiskChurn(ctx);
  }
  return {};
}

double FidelityBound(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kPush64: return kStreamBaseStep / 2.0;
    case WorkloadKind::kPaperSync: return 0.0;
    case WorkloadKind::kDiskChurn:
      return fc::core::SharedTileCacheOptions{}.codec.quant_step / 2.0;
  }
  return 0.0;
}

std::uint64_t CheckEpoch(const EpochResult& epoch,
                         const fc::tiles::TilePyramid& pyramid,
                         double fidelity_bound, std::uint64_t* exact,
                         std::vector<std::string>* failures) {
  std::uint64_t failed = 0;
  auto fail = [&](std::string what) {
    ++failed;
    constexpr std::size_t kMaxReported = 10;
    if (failures->size() < kMaxReported) failures->push_back(std::move(what));
  };
  for (const auto& error : epoch.errors) fail(error);

  // Rounding slack on the bound: quantized values are reconstructed as
  // step multiples, which can land an ulp past step/2.
  const double limit = fidelity_bound * (1.0 + 1e-9);
  for (const auto& record : epoch.served) {
    if (record.tile == nullptr) continue;  // counted as a failed request
    const auto& tile = *record.tile;
    const std::string where = "session " + std::to_string(record.session) +
                              " tile " + record.expected.ToString();
    if (tile.key() != record.expected) {
      fail(where + ": served " + tile.key().ToString());
      continue;
    }
    auto source = pyramid.GetTile(record.expected);
    if (!source.ok()) {
      fail(where + ": not in the source pyramid");
      continue;
    }
    const auto& truth = **source;
    if (tile.width() != truth.width() || tile.height() != truth.height() ||
        tile.num_attrs() != truth.num_attrs()) {
      fail(where + ": shape differs from the source tile");
      continue;
    }
    bool identical = true;
    double worst = 0.0;
    for (std::size_t a = 0; a < truth.num_attrs(); ++a) {
      const auto& got = tile.AttrData(a);
      const auto& want = truth.AttrData(a);
      if (got.size() != want.size()) {
        worst = INFINITY;
        identical = false;
        break;
      }
      if (std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) == 0) {
        continue;
      }
      identical = false;
      for (std::size_t i = 0; i < got.size(); ++i) {
        const double err = std::fabs(got[i] - want[i]);
        if (!(err <= worst)) worst = std::isnan(err) ? INFINITY : err;
      }
    }
    if (identical) {
      ++*exact;
    } else if (!(worst <= limit)) {
      fail(where + ": payload off by " + std::to_string(worst) +
           " (bound " + std::to_string(fidelity_bound) + ")");
    }
  }

  if (epoch.has_prefetch) {
    const auto& p = epoch.prefetch;
    if (p.fills_issued + p.dedup_saved_fetches != p.predictions_published) {
      fail("prefetch books: fills_issued " + std::to_string(p.fills_issued) +
           " + dedup_saved_fetches " + std::to_string(p.dedup_saved_fetches) +
           " != predictions_published " + std::to_string(p.predictions_published));
    }
  }
  if (epoch.has_stream) {
    const auto& st = epoch.stream;
    if (st.chunks_pushed + st.stale_chunks_dropped + st.expired_chunks_dropped !=
            st.chunks_enqueued ||
        epoch.stream_queued_after != 0) {
      fail("stream books: pushed " + std::to_string(st.chunks_pushed) +
           " + stale " + std::to_string(st.stale_chunks_dropped) +
           " + expired " + std::to_string(st.expired_chunks_dropped) +
           " != enqueued " + std::to_string(st.chunks_enqueued) +
           " (queued after flush " + std::to_string(epoch.stream_queued_after) + ")");
    }
    if (st.base_chunks_pushed + st.exact_chunks_pushed != st.chunks_pushed) {
      fail("stream books: base " + std::to_string(st.base_chunks_pushed) +
           " + exact " + std::to_string(st.exact_chunks_pushed) +
           " != pushed " + std::to_string(st.chunks_pushed));
    }
  }
  if (epoch.has_cache) {
    const auto& c = epoch.cache;
    if (c.admission_attempts != c.insertions + c.admission_rejects) {
      fail("cache books: admission_attempts " +
           std::to_string(c.admission_attempts) + " != insertions " +
           std::to_string(c.insertions) + " + admission_rejects " +
           std::to_string(c.admission_rejects));
    }
  }
  return failed;
}

std::uint64_t Fingerprint(const EpochResult& epoch) {
  std::uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  for (const auto& record : epoch.served) {
    mix(record.session);
    mix(static_cast<std::uint64_t>(record.expected.level));
    mix(static_cast<std::uint64_t>(record.expected.x));
    mix(static_cast<std::uint64_t>(record.expected.y));
    mix(record.tile == nullptr ? 2 : record.cache_hit ? 1 : 0);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &record.sim_latency_ms, sizeof(bits));
    mix(bits);
  }
  return hash;
}

}  // namespace perfbench
