// Concurrency tests for the multi-session serving core: the executor, the
// single-flight store decorator, the atomic SimClock, and a deterministic
// N-threads x M-sessions stress test asserting that concurrent replays lose
// no stat updates and reproduce the single-threaded per-session hit rates.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "core/ab_recommender.h"
#include "core/allocation.h"
#include "server/session.h"
#include "storage/tile_store.h"
#include "tiles/pyramid.h"

namespace fc::server {
namespace {

// ---------------------------------------------------------------------------
// Executor

TEST(ExecutorTest, RunsEveryTask) {
  Executor executor(4);
  std::atomic<int> counter{0};
  constexpr int kTasks = 500;
  for (int i = 0; i < kTasks; ++i) {
    executor.Submit([&counter] { counter.fetch_add(1); });
  }
  executor.Wait();
  EXPECT_EQ(counter.load(), kTasks);
  EXPECT_GE(executor.tasks_completed(), static_cast<std::uint64_t>(kTasks));
}

TEST(ExecutorTest, WaitWithNoWorkReturnsImmediately) {
  Executor executor(2);
  executor.Wait();
  EXPECT_EQ(executor.tasks_completed(), 0u);
}

TEST(ExecutorTest, ShutdownDrainsQueue) {
  std::atomic<int> counter{0};
  {
    Executor executor(2);
    for (int i = 0; i < 100; ++i) {
      executor.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor drains + joins
  EXPECT_EQ(counter.load(), 100);
}

// ---------------------------------------------------------------------------
// SimClock under concurrent advancement

TEST(SimClockConcurrencyTest, NoChargedMicrosecondLost) {
  SimClock clock;
  constexpr int kThreads = 8;
  constexpr int kAdvancesPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&clock] {
      for (int i = 0; i < kAdvancesPerThread; ++i) clock.AdvanceMicros(3);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(clock.NowMicros(), 3LL * kThreads * kAdvancesPerThread);
}

// ---------------------------------------------------------------------------
// SingleFlightTileStore

std::shared_ptr<tiles::TilePyramid> SmallPyramid(int levels = 4) {
  auto schema = array::ArraySchema::Make(
      "base",
      {array::Dimension{"y", 0, 8 << (levels - 1), 8},
       array::Dimension{"x", 0, 8 << (levels - 1), 8}},
      {array::Attribute{"v"}});
  array::DenseArray base(std::move(*schema));
  for (std::int64_t y = 0; y < base.schema().dims()[0].length; ++y) {
    for (std::int64_t x = 0; x < base.schema().dims()[1].length; ++x) {
      base.SetLinear(base.LinearIndex({y, x}), 0, static_cast<double>(x + y));
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

/// A store whose fetches block until Release() — lets the test hold a fetch
/// "in flight" while other threads pile onto the same key.
class GatedStore : public storage::TileStore {
 public:
  explicit GatedStore(std::shared_ptr<const tiles::TilePyramid> pyramid)
      : inner_(std::move(pyramid)) {}

  Result<tiles::TilePtr> Fetch(const tiles::TileKey& key) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return open_; });
    }
    return inner_.Fetch(key);
  }
  bool Contains(const tiles::TileKey& key) const override {
    return inner_.Contains(key);
  }
  const tiles::PyramidSpec& spec() const override { return inner_.spec(); }
  std::uint64_t fetch_count() const override { return inner_.fetch_count(); }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  storage::MemoryTileStore inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(SingleFlightTileStoreTest, ConcurrentFetchesOfSameKeyCollapse) {
  auto pyramid = SmallPyramid();
  GatedStore gated(pyramid);
  storage::SingleFlightTileStore store(&gated);

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto tile = store.Fetch({0, 0, 0});
      if (tile.ok() && *tile != nullptr) ok_count.fetch_add(1);
    });
  }
  // All eight callers have arrived once fetch_count()==8: one leader (held
  // at the gate) plus seven joiners blocked on its flight.
  while (store.fetch_count() < kThreads ||
         store.deduped_count() < kThreads - 1) {
    std::this_thread::yield();
  }
  gated.Release();
  for (auto& t : threads) t.join();

  EXPECT_EQ(ok_count.load(), kThreads);
  EXPECT_EQ(gated.fetch_count(), 1u);  // one upstream query total
  EXPECT_EQ(store.deduped_count(), static_cast<std::uint64_t>(kThreads - 1));
}

TEST(SingleFlightTileStoreTest, DistinctKeysDoNotBlockEachOther) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore inner(pyramid);
  storage::SingleFlightTileStore store(&inner);
  ASSERT_TRUE(store.Fetch({0, 0, 0}).ok());
  ASSERT_TRUE(store.Fetch({1, 1, 1}).ok());
  EXPECT_EQ(inner.fetch_count(), 2u);
  EXPECT_EQ(store.deduped_count(), 0u);
  // Errors propagate to every caller.
  EXPECT_TRUE(store.Fetch({9, 9, 9}).status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Deterministic multi-threaded stress test: M sessions replaying fixed-seed
// random walks on N OS threads, checked against a single-threaded replay.

struct EngineParts {
  core::AbRecommender ab;
  core::FixedAllocationStrategy strategy{"all-ab", 1.0};

  static EngineParts Make() {
    auto ab = core::AbRecommender::Make();
    EXPECT_TRUE(ab.ok());
    EXPECT_TRUE(ab->Train({}).ok());
    return EngineParts{std::move(*ab)};
  }
};

/// The fixed-seed move tape for one session. Invalid (border) moves are
/// attempted and rejected identically in every replay.
std::vector<core::Move> MoveTape(std::uint64_t seed, std::size_t length) {
  Rng rng(seed, /*stream=*/17);
  std::vector<core::Move> tape;
  tape.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    tape.push_back(static_cast<core::Move>(rng.UniformInt(0, core::kNumMoves - 1)));
  }
  return tape;
}

Status ReplayTape(BrowserSession* session, const std::vector<core::Move>& tape) {
  FC_RETURN_IF_ERROR(session->Open().status());
  session->WaitForPrefetch();
  for (core::Move move : tape) {
    auto served = session->ApplyMove(move);
    if (!served.ok() && !served.status().IsInvalidArgument()) {
      return served.status();  // border rejections are expected; others not
    }
    // Think time fully covers the background fill — the paper's model, and
    // what makes the replay deterministic.
    session->WaitForPrefetch();
  }
  return Status::OK();
}

TEST(MultiSessionStressTest, ConcurrentReplayMatchesSingleThreaded) {
  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kMovesPerSession = 60;

  auto pyramid = SmallPyramid();
  auto parts = EngineParts::Make();
  SharedPredictionComponents shared;
  shared.ab = &parts.ab;
  shared.strategy = &parts.strategy;
  shared.engine_options.prefetch_k = 5;

  std::vector<std::vector<core::Move>> tapes;
  for (std::size_t s = 0; s < kSessions; ++s) {
    tapes.push_back(MoveTape(/*seed=*/1000 + s, kMovesPerSession));
  }

  // Reference: single-threaded, fully private sessions (legacy setup).
  storage::MemoryTileStore reference_store(pyramid);
  SimClock reference_clock;
  SessionManager reference(&reference_store, &reference_clock, shared);
  std::vector<std::uint64_t> expected_requests(kSessions);
  std::vector<std::uint64_t> expected_private_hits(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    std::string id = "user" + std::to_string(s);
    ASSERT_TRUE(ReplayTape(reference.GetOrCreate(id), tapes[s]).ok());
    auto server = reference.ServerFor(id);
    ASSERT_TRUE(server.ok());
    expected_requests[s] = (*server)->cache_manager().requests();
    expected_private_hits[s] = (*server)->cache_manager().cache_hits();
  }

  // Concurrent: shared cache + async prefetch + single-flight, driven from
  // kThreads OS threads, with one process-wide prefetch queue and with one
  // queue per session.
  for (bool use_prefetch_scheduler : {true, false}) {
    SCOPED_TRACE(use_prefetch_scheduler ? "process-wide queue"
                                        : "per-session queues");
    storage::MemoryTileStore concurrent_store(pyramid);
    SimClock concurrent_clock;
    SessionManagerOptions options;
    options.executor_threads = kThreads;
    options.use_shared_cache = true;
    // Effectively unbounded: no evictions or demotions during the test.
    options.shared_cache.l1_bytes = 64ull << 20;
    options.single_flight = true;
    options.use_prefetch_scheduler = use_prefetch_scheduler;
    SessionManager manager(&concurrent_store, &concurrent_clock, shared,
                           options);
    EXPECT_EQ(manager.prefetch_scheduler() != nullptr, use_prefetch_scheduler);

    std::vector<SessionManager::SessionWorkload> workloads;
    for (std::size_t s = 0; s < kSessions; ++s) {
      workloads.push_back({"user" + std::to_string(s),
                           [&, s](BrowserSession* session) {
                             return ReplayTape(session, tapes[s]);
                           }});
    }
    ASSERT_TRUE(manager.RunSessions(std::move(workloads), kThreads).ok());

    // Per-session stats must match the single-threaded replay exactly: no
    // lost counter updates, and private-region behavior independent of the
    // interleaving (the shared cache only adds hits on top).
    std::uint64_t total_requests = 0;
    for (std::size_t s = 0; s < kSessions; ++s) {
      std::string id = "user" + std::to_string(s);
      auto server = manager.ServerFor(id);
      ASSERT_TRUE(server.ok());
      const auto& cache = (*server)->cache_manager();
      EXPECT_EQ(cache.requests(), expected_requests[s]) << id;
      EXPECT_EQ(cache.private_hits(), expected_private_hits[s]) << id;
      EXPECT_GE(cache.cache_hits(), cache.private_hits()) << id;
      total_requests += cache.requests();
    }

    std::uint64_t expected_total = 0;
    for (auto r : expected_requests) expected_total += r;
    EXPECT_EQ(total_requests, expected_total);

    // Sharing must not increase upstream load: with no evictions, every
    // tile crosses the store boundary at most once overall, so the
    // concurrent run fetches no more than the per-session-private
    // reference.
    EXPECT_LE(concurrent_store.fetch_count(), reference_store.fetch_count());

    // Shared-cache bookkeeping is conserved.
    const auto* shared_cache = manager.shared_cache();
    ASSERT_NE(shared_cache, nullptr);
    auto stats = shared_cache->Stats();
    EXPECT_EQ(stats.insertions - stats.evictions,
              static_cast<std::uint64_t>(shared_cache->size()));
    EXPECT_EQ(stats.evictions, 0u);
  }
}

// ---------------------------------------------------------------------------
// L1/L2 tier churn under contention: many threads hammering a byte budget
// small enough that every insert demotes and most hits promote. Run under
// TSan in CI; here the checks are conservation invariants and payload
// integrity after sustained concurrent demote/promote/evict churn.

TEST(MultiSessionStressTest, TieredCacheSurvivesConcurrentPromotionChurn) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;

  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  core::SharedTileCacheOptions options;
  // Room for only ~4 decoded and a few compressed tiles across 2 shards:
  // constant demotion and promotion traffic.
  options.l1_bytes = 4 * 8 * 8 * sizeof(double);
  options.l2_bytes = 2 * 8 * 8 * sizeof(double);
  options.num_shards = 2;
  options.codec = {storage::TileEncoding::kDeltaVarint, 1e-6};
  core::SharedTileCache cache(options);

  const auto keys = pyramid->spec().AllKeys();  // working set >> budget
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> served{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(/*seed=*/900 + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const auto& key =
            keys[rng.UniformUint32(static_cast<std::uint32_t>(keys.size()))];
        auto tile = cache.GetOrFetch(key, &store);
        ASSERT_TRUE(tile.ok());
        ASSERT_NE(*tile, nullptr);
        // Promotion decodes a compressed blob: the payload must still be
        // the right tile, whatever interleaving produced it.
        ASSERT_EQ((*tile)->key(), key);
        ASSERT_EQ((*tile)->num_attrs(), 1u);
        served.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(served.load(), static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  auto stats = cache.Stats();
  // The budget is tiny, so the churn actually exercised both tiers.
  EXPECT_GT(stats.demotions, 0u);
  EXPECT_GT(stats.l2_hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  // Conservation across both tiers after the dust settles.
  EXPECT_EQ(stats.insertions - stats.evictions,
            static_cast<std::uint64_t>(cache.size()));
  EXPECT_EQ(stats.hits, stats.l1_hits + stats.l2_hits);
  EXPECT_EQ(stats.hits + stats.misses, served.load());
  // Byte accounting: resident bytes within the (per-shard ceil-divided)
  // budgets, and zero only if the cache is empty.
  EXPECT_LE(stats.l1_bytes_resident, options.l1_bytes + 8 * 8 * sizeof(double));
  EXPECT_GT(stats.bytes_resident, 0u);
}

// ---------------------------------------------------------------------------
// Admission + quota paths under contention: mixed scan/zoom sessions from 8
// threads hammer a TinyLFU-filtered, quota-governed, two-tier cache. Run
// under TSan in CI. The checks are the admission stat invariants — every
// one of them is counted under the owning shard's lock, so they must hold
// exactly whatever the interleaving.

TEST(MultiSessionStressTest, AdmissionQuotaInvariantsUnderContention) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;

  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  core::SharedTileCacheOptions options;
  options.l1_bytes = 6 * 8 * 8 * sizeof(double);
  options.l2_bytes = 3 * 8 * 8 * sizeof(double);
  options.num_shards = 2;
  options.codec = {storage::TileEncoding::kDeltaVarint, 1e-6};
  options.admission.policy = core::AdmissionPolicyKind::kTinyLfu;
  options.admission.sketch_counters = 256;
  options.admission.sketch_halve_every = 512;  // halvings happen mid-run
  options.session_quota_bytes = 3 * 8 * 8 * sizeof(double);
  core::SharedTileCache cache(options);

  const auto keys = pyramid->spec().AllKeys();
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> lookups{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(/*seed=*/700 + t);
      const std::uint64_t session = static_cast<std::uint64_t>(t) + 1;
      // Even threads zoom-loop a small hot slice; odd threads scan the
      // whole key space — the adversarial mix admission control is for.
      const bool zoomer = t % 2 == 0;
      const std::size_t hot_base = (static_cast<std::size_t>(t) * 7) % keys.size();
      std::size_t scan_pos = static_cast<std::size_t>(t) * 11;
      for (int op = 0; op < kOpsPerThread; ++op) {
        const auto& key =
            zoomer ? keys[(hot_base + rng.UniformUint32(6)) % keys.size()]
                   : keys[scan_pos++ % keys.size()];
        core::CacheAccess access{session, op % 10 == 0 ? 1.0 : 0.0};
        lookups.fetch_add(1);
        if (cache.Lookup(key, access) == nullptr) {
          auto tile = store.Fetch(key);
          ASSERT_TRUE(tile.ok());
          cache.Insert(key, *tile, access);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  auto stats = cache.Stats();
  // Admission bookkeeping is lossless under contention: every lookup
  // counted exactly one outcome, and every offer either admitted or
  // rejected (attempts == admits + rejects, the ISSUE's invariant).
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_EQ(stats.hits, stats.l1_hits + stats.l2_hits);
  EXPECT_EQ(stats.admission_attempts,
            stats.insertions + stats.admission_rejects);
  // The run exercised every policy path.
  EXPECT_GT(stats.admission_rejects, 0u);
  EXPECT_GT(stats.quota_evictions, 0u);
  // Byte governance held: per-shard budgets are strict, so totals stay
  // within the ceil-divided global budgets.
  const std::size_t shard_slack = options.num_shards;  // ceil-division
  EXPECT_LE(stats.l1_bytes_resident, options.l1_bytes + shard_slack);
  EXPECT_LE(stats.l2_bytes_resident, options.l2_bytes + shard_slack);
  // Quotas held for every session (per-shard ceil-divided share).
  const std::size_t shard_quota =
      (options.session_quota_bytes + options.num_shards - 1) / options.num_shards;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_LE(cache.SessionL1Bytes(static_cast<std::uint64_t>(t) + 1),
              options.num_shards * shard_quota)
        << "session " << t + 1;
  }
  // After the dust settles, residency bookkeeping is conserved.
  EXPECT_EQ(stats.insertions - stats.evictions,
            static_cast<std::uint64_t>(cache.size()));
}

/// End-to-end plumbing: sessions driven through the full serving stack
/// (SessionManager -> ForeCacheServer -> CacheManager -> SharedTileCache)
/// carry their numeric identity and the engine's prediction confidence
/// into every shared-cache access, so admission, quota, and priority
/// bookkeeping all move — and their invariants hold — without any caller
/// touching the cache directly.
TEST(MultiSessionStressTest, ServingStackPlumbsIdentityAndConfidence) {
  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kMovesPerSession = 40;

  auto pyramid = SmallPyramid();
  auto parts = EngineParts::Make();
  SharedPredictionComponents shared;
  shared.ab = &parts.ab;
  shared.strategy = &parts.strategy;
  shared.engine_options.prefetch_k = 5;

  storage::MemoryTileStore store(pyramid);
  SimClock clock;
  SessionManagerOptions options;
  options.executor_threads = 4;
  options.use_shared_cache = true;
  // Tight budget + filter + quotas: every fairness path gets traffic.
  options.shared_cache.l1_bytes = 8 * 8 * 8 * sizeof(double);
  options.shared_cache.num_shards = 2;
  options.shared_cache.admission.policy = core::AdmissionPolicyKind::kTinyLfu;
  options.shared_cache.admission.sketch_counters = 256;
  // This harness runs AB-only, and single-model predictions are capped at
  // confidence 0.6 by design (no cross-model agreement) — below the 0.9
  // default bound, so production single-model traffic cannot force cold
  // tiles past the filter. Lower the bound here so the test can observe
  // the engine's confidences actually reaching the cache.
  options.shared_cache.admission.priority_confidence = 0.5;
  options.shared_cache.session_quota_bytes = 4 * 8 * 8 * sizeof(double);
  options.single_flight = true;
  SessionManager manager(&store, &clock, shared, options);

  std::vector<SessionManager::SessionWorkload> workloads;
  for (std::size_t s = 0; s < kSessions; ++s) {
    workloads.push_back(
        {"user" + std::to_string(s), [&, s](BrowserSession* session) {
           return ReplayTape(session, MoveTape(/*seed=*/3000 + s, kMovesPerSession));
         }});
  }
  ASSERT_TRUE(manager.RunSessions(std::move(workloads), 4).ok());

  const auto* cache = manager.shared_cache();
  ASSERT_NE(cache, nullptr);
  auto stats = cache->Stats();
  // Identity reached the cache: demand and prefetch traffic was attributed
  // and judged (attempts happened, and the books balance exactly).
  EXPECT_GT(stats.admission_attempts, 0u);
  EXPECT_EQ(stats.admission_attempts,
            stats.insertions + stats.admission_rejects);
  // Confidence reached the cache: the engine's top-ranked (confidence 1.0)
  // predictions took the priority path whenever the filter would have run.
  EXPECT_GT(stats.priority_admits, 0u);
  // Quotas bound every session the manager numbered (ids 1..kSessions).
  const std::size_t shard_quota =
      (options.shared_cache.session_quota_bytes +
       options.shared_cache.num_shards - 1) /
      options.shared_cache.num_shards;
  for (std::size_t s = 1; s <= kSessions; ++s) {
    EXPECT_LE(cache->SessionL1Bytes(s),
              options.shared_cache.num_shards * shard_quota)
        << "session " << s;
  }
  EXPECT_EQ(stats.insertions - stats.evictions,
            static_cast<std::uint64_t>(cache->size()));
}

/// Aggregate effect test: overlapping traces through the shared cache must
/// produce a strictly better aggregate hit rate than private-only sessions.
TEST(MultiSessionStressTest, SharedCacheBeatsPrivateOnOverlappingTraces) {
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kMovesPerSession = 60;

  auto pyramid = SmallPyramid();
  auto parts = EngineParts::Make();
  SharedPredictionComponents shared;
  shared.ab = &parts.ab;
  shared.strategy = &parts.strategy;
  shared.engine_options.prefetch_k = 5;

  // Every pair of sessions shares a tape seed: maximal overlap, the
  // multi-user workload the shared cache is for.
  std::vector<std::vector<core::Move>> tapes;
  for (std::size_t s = 0; s < kSessions; ++s) {
    tapes.push_back(MoveTape(/*seed=*/500 + s / 2, kMovesPerSession));
  }

  auto aggregate_hit_rate = [&](SessionManager& manager) {
    std::uint64_t requests = 0, hits = 0;
    for (std::size_t s = 0; s < kSessions; ++s) {
      auto server = manager.ServerFor("user" + std::to_string(s));
      EXPECT_TRUE(server.ok());
      requests += (*server)->cache_manager().requests();
      hits += (*server)->cache_manager().cache_hits();
    }
    return static_cast<double>(hits) / static_cast<double>(requests);
  };

  auto run = [&](bool use_shared_cache, storage::TileStore* store) {
    SimClock clock;
    SessionManagerOptions options;
    options.executor_threads = 4;
    options.use_shared_cache = use_shared_cache;
    options.shared_cache.l1_bytes = 64ull << 20;
    options.single_flight = true;
    auto manager =
        std::make_unique<SessionManager>(store, &clock, shared, options);
    std::vector<SessionManager::SessionWorkload> workloads;
    for (std::size_t s = 0; s < kSessions; ++s) {
      workloads.push_back({"user" + std::to_string(s),
                           [&, s](BrowserSession* session) {
                             return ReplayTape(session, tapes[s]);
                           }});
    }
    EXPECT_TRUE(manager->RunSessions(std::move(workloads), 4).ok());
    return manager;
  };

  storage::MemoryTileStore private_store(pyramid);
  auto private_manager = run(/*use_shared_cache=*/false, &private_store);
  storage::MemoryTileStore shared_store(pyramid);
  auto shared_manager = run(/*use_shared_cache=*/true, &shared_store);

  EXPECT_GT(aggregate_hit_rate(*shared_manager),
            aggregate_hit_rate(*private_manager));
  EXPECT_LT(shared_store.fetch_count(), private_store.fetch_count());
}

// ---------------------------------------------------------------------------
// Teardown regression: destroying the SessionManager while the shared
// prefetch queue still holds merged, in-flight fills must be clean — the
// manager shuts the scheduler down BEFORE any session (and its delivery
// target) dies. Run under TSan in CI.

/// A store slow enough that fills are reliably still in flight when the
/// manager is torn down.
class SlowStore : public storage::TileStore {
 public:
  explicit SlowStore(std::shared_ptr<const tiles::TilePyramid> pyramid)
      : inner_(std::move(pyramid)) {}

  Result<tiles::TilePtr> Fetch(const tiles::TileKey& key) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return inner_.Fetch(key);
  }
  bool Contains(const tiles::TileKey& key) const override {
    return inner_.Contains(key);
  }
  const tiles::PyramidSpec& spec() const override { return inner_.spec(); }
  std::uint64_t fetch_count() const override { return inner_.fetch_count(); }

 private:
  storage::MemoryTileStore inner_;
};

void RunTeardownUnderInFlightMergedFills(bool deadline_aware) {
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kMovesPerSession = 6;

  auto pyramid = SmallPyramid();
  auto parts = EngineParts::Make();
  SharedPredictionComponents shared;
  shared.ab = &parts.ab;
  shared.strategy = &parts.strategy;
  shared.engine_options.prefetch_k = 5;

  SlowStore store(pyramid);
  SimClock clock;
  SessionManagerOptions options;
  options.executor_threads = 4;
  options.use_shared_cache = true;
  options.shared_cache.l1_bytes = 64ull << 20;
  options.single_flight = true;
  options.prefetch_scheduler.max_in_flight = 4;
  if (deadline_aware) {
    // Deadline mode with deadlines that expire almost immediately on the
    // frozen virtual clock: every drain round mixes expired and live
    // entries while the manager is being torn down. An expiry must never
    // reach a destroyed delivery callback — the manager still shuts the
    // scheduler down before any session dies; deadlines only reorder
    // drains, they add no timer with its own lifetime.
    options.prefetch_scheduler.deadline_aware = true;
    options.server.think_time.min_ms = 0.5;
  }

  core::PrefetchSchedulerStats stats;
  {
    SessionManager manager(&store, &clock, shared, options);
    // Sessions share one tape (maximal merge overlap) and never wait for
    // their fills, so the queue is busy the moment the workloads return.
    const auto tape = MoveTape(/*seed=*/6000, kMovesPerSession);
    std::vector<SessionManager::SessionWorkload> workloads;
    for (std::size_t s = 0; s < kSessions; ++s) {
      workloads.push_back(
          {"user" + std::to_string(s), [&tape](BrowserSession* session) {
             FC_RETURN_IF_ERROR(session->Open().status());
             for (core::Move move : tape) {
               auto served = session->ApplyMove(move);
               if (!served.ok() && !served.status().IsInvalidArgument()) {
                 return served.status();
               }
             }
             return Status::OK();
           }});
    }
    ASSERT_TRUE(manager.RunSessions(std::move(workloads), 4).ok());
    ASSERT_NE(manager.prefetch_scheduler(), nullptr);
    stats = manager.prefetch_scheduler()->Stats();
    // The manager dies here with fills typically still in flight; the
    // scheduler must retire the queue before any session is destroyed.
  }

  EXPECT_GT(stats.predictions_published, 0u);
  EXPECT_GT(stats.merged_predictions, 0u);
  // The snapshot is taken with entries still pending (the drained-queue
  // equality is asserted elsewhere, after Shutdown), but retirement never
  // outruns publication.
  EXPECT_LE(stats.fills_issued + stats.dedup_saved_fetches,
            stats.predictions_published);
}

TEST(MultiSessionStressTest, TeardownUnderInFlightMergedFills) {
  RunTeardownUnderInFlightMergedFills(/*deadline_aware=*/false);
}

TEST(MultiSessionStressTest, TeardownUnderInFlightDeadlineExpiries) {
  RunTeardownUnderInFlightMergedFills(/*deadline_aware=*/true);
}

}  // namespace
}  // namespace fc::server
