// Admission control & session fairness for the SharedTileCache: frequency
// sketch goldens (count/saturate/halve cycles), a deterministic
// scan-resistance scenario (a victim session's hit rate must survive a
// concurrent sequential scan), per-session quota enforcement, the
// priority-admission override for high-confidence prefetch fills, and a
// randomized property test that byte budgets hold under any admit/reject
// interleaving.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/admission.h"
#include "core/shared_tile_cache.h"
#include "storage/tile_store.h"
#include "tiles/pyramid.h"

namespace fc::core {
namespace {

/// Payload bytes of one 8x8 single-attribute test tile.
constexpr std::size_t kTileBytes = 8 * 8 * sizeof(double);

std::shared_ptr<tiles::TilePyramid> SmallPyramid(int levels = 4) {
  auto schema = array::ArraySchema::Make(
      "base",
      {array::Dimension{"y", 0, 8 << (levels - 1), 8},
       array::Dimension{"x", 0, 8 << (levels - 1), 8}},
      {array::Attribute{"v"}});
  array::DenseArray base(std::move(*schema));
  for (std::int64_t y = 0; y < base.schema().dims()[0].length; ++y) {
    for (std::int64_t x = 0; x < base.schema().dims()[1].length; ++x) {
      base.SetLinear(base.LinearIndex({y, x}), 0,
                     static_cast<double>(x) * 0.5 + static_cast<double>(y));
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

tiles::TilePtr FetchTile(storage::TileStore* store, const tiles::TileKey& key) {
  auto tile = store->Fetch(key);
  EXPECT_TRUE(tile.ok());
  return *tile;
}

/// One-shard L1-only cache of `tiles` 8x8 test tiles with the TinyLFU
/// filter on (small sketch, no halving inside short tests).
SharedTileCacheOptions TinyLfuCache(std::size_t tiles) {
  SharedTileCacheOptions options;
  options.l1_bytes = tiles * kTileBytes;
  options.l2_bytes = 0;
  options.num_shards = 1;
  options.admission.policy = AdmissionPolicyKind::kTinyLfu;
  options.admission.sketch_counters = 1024;
  return options;
}

// ---------------------------------------------------------------------------
// FrequencySketch goldens: exact counter behavior through count and halve
// cycles. The three probe hashes are far apart, so with 1024 counters per
// row the estimates below are collision-free and exact.

TEST(FrequencySketchTest, CountsAndSaturatesAtFifteen) {
  FrequencySketch sketch(1024);
  const std::uint64_t a = 0x1111, b = 0x2222;
  EXPECT_EQ(sketch.Estimate(a), 0u);
  for (int i = 0; i < 6; ++i) sketch.Record(a);
  EXPECT_EQ(sketch.Estimate(a), 6u);
  EXPECT_EQ(sketch.Estimate(b), 0u);  // untouched key stays cold
  for (int i = 0; i < 40; ++i) sketch.Record(a);
  EXPECT_EQ(sketch.Estimate(a), 15u);  // 4-bit counters saturate
  EXPECT_EQ(sketch.accesses(), 46u);
  EXPECT_EQ(sketch.halvings(), 0u);  // default period far away
}

TEST(FrequencySketchTest, HalvesAfterSamplePeriod) {
  FrequencySketch sketch(/*counters=*/1024, /*halve_every=*/8);
  const std::uint64_t a = 0x1111, b = 0x2222, c = 0x3333;
  for (int i = 0; i < 6; ++i) sketch.Record(a);
  for (int i = 0; i < 2; ++i) sketch.Record(b);
  // Window full (8 accesses) but not exceeded: counts intact.
  EXPECT_EQ(sketch.Estimate(a), 6u);
  EXPECT_EQ(sketch.Estimate(b), 2u);
  EXPECT_EQ(sketch.halvings(), 0u);
  // The 9th access opens a new window: everything halves first.
  sketch.Record(c);
  EXPECT_EQ(sketch.halvings(), 1u);
  EXPECT_EQ(sketch.Estimate(a), 3u);
  EXPECT_EQ(sketch.Estimate(b), 1u);
  EXPECT_EQ(sketch.Estimate(c), 1u);
  // A second full cycle decays history again: stale heat drains away.
  for (int i = 0; i < 8; ++i) sketch.Record(c);
  EXPECT_EQ(sketch.halvings(), 2u);
  EXPECT_EQ(sketch.Estimate(a), 1u);
}

TEST(FrequencySketchTest, RoundsCountersUpToPowerOfTwo) {
  FrequencySketch sketch(100);
  EXPECT_EQ(sketch.counters_per_row(), 128u);
  EXPECT_EQ(sketch.halve_every(), 8u * 128u);
  FrequencySketch tiny(1);
  EXPECT_EQ(tiny.counters_per_row(), 16u);
}

TEST(AdmissionPolicyTest, FactoryBuildsRequestedPolicy) {
  AdmissionOptions options;
  EXPECT_EQ(MakeAdmissionPolicy(options)->name(), "admit-all");
  options.policy = AdmissionPolicyKind::kTinyLfu;
  EXPECT_EQ(MakeAdmissionPolicy(options)->name(), "tinylfu");
}

TEST(AdmissionPolicyTest, TinyLfuAdmitsOnlyStrictlyWarmerCandidates) {
  TinyLfuAdmissionPolicy policy(1024);
  const std::uint64_t hot = 0x1111, cold = 0x2222, warm = 0x3333;
  policy.RecordAccess(hot);
  policy.RecordAccess(hot);
  policy.RecordAccess(cold);
  policy.RecordAccess(warm);
  policy.RecordAccess(warm);
  policy.RecordAccess(warm);
  EXPECT_TRUE(policy.ShouldAdmit(cold, {}));           // free space: admit
  EXPECT_FALSE(policy.ShouldAdmit(cold, {hot}));       // 1 vs 2: bounce
  EXPECT_FALSE(policy.ShouldAdmit(hot, {hot}));        // ties keep incumbent
  EXPECT_TRUE(policy.ShouldAdmit(warm, {hot}));        // 3 vs 2: displace
  EXPECT_TRUE(policy.ShouldAdmit(warm, {hot, cold}));  // beats every victim
  EXPECT_FALSE(policy.ShouldAdmit(hot, {cold, warm})); // one warmer victim vetoes
}

// ---------------------------------------------------------------------------
// Admission inside the cache.

TEST(AdmissionCacheTest, ColdCandidateBouncesOffWarmResidentSet) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCache cache(TinyLfuCache(2));
  const tiles::TileKey a{1, 0, 0}, b{1, 1, 0}, c{1, 0, 1};

  ASSERT_TRUE(cache.GetOrFetch(a, &store).ok());
  ASSERT_TRUE(cache.GetOrFetch(b, &store).ok());
  // Second touches: a and b now have sketch frequency 2.
  EXPECT_NE(cache.Lookup(a), nullptr);
  EXPECT_NE(cache.Lookup(b), nullptr);

  // c is served but, at frequency 1 against a frequency-2 victim, not
  // cached: the warm set survives.
  auto served = cache.GetOrFetch(c, &store);
  ASSERT_TRUE(served.ok());
  EXPECT_NE(*served, nullptr);
  EXPECT_TRUE(cache.Contains(a));
  EXPECT_TRUE(cache.Contains(b));
  EXPECT_FALSE(cache.Contains(c));

  auto stats = cache.Stats();
  EXPECT_EQ(stats.admission_attempts, 3u);
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(stats.admission_rejects, 1u);
  EXPECT_EQ(stats.admission_attempts, stats.insertions + stats.admission_rejects);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(AdmissionCacheTest, RepeatedCandidateEventuallyDisplacesStaleTile) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCache cache(TinyLfuCache(2));
  const tiles::TileKey a{1, 0, 0}, b{1, 1, 0}, c{1, 0, 1};

  ASSERT_TRUE(cache.GetOrFetch(a, &store).ok());
  ASSERT_TRUE(cache.GetOrFetch(b, &store).ok());
  EXPECT_NE(cache.Lookup(a), nullptr);  // a: frequency 2, freshened
  // c keeps knocking; once its frequency strictly beats the LRU victim b
  // (frequency 1 — never touched again), it displaces b. a survives.
  ASSERT_TRUE(cache.GetOrFetch(c, &store).ok());
  ASSERT_TRUE(cache.GetOrFetch(c, &store).ok());
  ASSERT_TRUE(cache.GetOrFetch(c, &store).ok());
  EXPECT_TRUE(cache.Contains(c));
  EXPECT_FALSE(cache.Contains(b));
  EXPECT_TRUE(cache.Contains(a));
}

// ---------------------------------------------------------------------------
// Deterministic scan-resistance scenario: a victim session zoom-looping a
// hot set that exactly fills L1, while an adversary session scans the whole
// pyramid. Single shard, single thread: every admit/reject is reproducible.

struct ScanOutcome {
  double victim_hit_rate = 0.0;
  double adversary_hit_rate = 0.0;
  SharedTileCacheStats stats;
};

ScanOutcome RunScanScenario(bool admission_on, bool with_adversary) {
  // 5 levels: the finest level's 256 tiles give the adversary a scan space
  // it passes over exactly once — per-key frequency 1, a genuine scan.
  auto pyramid = SmallPyramid(/*levels=*/5);
  storage::MemoryTileStore store(pyramid);

  constexpr std::size_t kHotTiles = 8;
  SharedTileCacheOptions options;
  options.l1_bytes = kHotTiles * kTileBytes;  // hot set exactly fills L1
  options.l2_bytes = 0;
  options.num_shards = 1;
  if (admission_on) {
    options.admission.policy = AdmissionPolicyKind::kTinyLfu;
    options.admission.sketch_counters = 1024;
  }
  SharedTileCache cache(options);

  const CacheAccess victim{1, 0.0};
  const CacheAccess adversary{2, 0.0};
  std::vector<tiles::TileKey> hot = pyramid->spec().KeysAtLevel(2);
  hot.resize(kHotTiles);
  const std::vector<tiles::TileKey> scan = pyramid->spec().KeysAtLevel(4);

  auto request = [&](const tiles::TileKey& key, const CacheAccess& access,
                     std::uint64_t* hits, std::uint64_t* requests) {
    ++*requests;
    if (cache.Lookup(key, access) != nullptr) {
      ++*hits;
      return;
    }
    cache.Insert(key, FetchTile(&store, key), access);
  };

  // Warmup: the victim loops its hot set twice (sketch frequency 2) before
  // the adversary shows up. Not measured.
  std::uint64_t sink_hits = 0, sink_requests = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& key : hot) request(key, victim, &sink_hits, &sink_requests);
  }

  // Contention: per round the victim advances one step through its loop
  // while the adversary scans 16 tiles. Two full victim cycles measured.
  std::uint64_t victim_hits = 0, victim_requests = 0;
  std::uint64_t adversary_hits = 0, adversary_requests = 0;
  std::size_t scan_pos = 0;
  constexpr std::size_t kRounds = 2 * kHotTiles;
  for (std::size_t round = 0; round < kRounds; ++round) {
    request(hot[round % hot.size()], victim, &victim_hits, &victim_requests);
    if (with_adversary) {
      for (int burst = 0; burst < 16; ++burst) {
        request(scan[scan_pos++ % scan.size()], adversary, &adversary_hits,
                &adversary_requests);
      }
    }
  }

  ScanOutcome outcome;
  outcome.victim_hit_rate =
      static_cast<double>(victim_hits) / static_cast<double>(victim_requests);
  outcome.adversary_hit_rate =
      adversary_requests == 0 ? 0.0
                              : static_cast<double>(adversary_hits) /
                                    static_cast<double>(adversary_requests);
  outcome.stats = cache.Stats();
  return outcome;
}

TEST(AdmissionCacheTest, ScanResistanceKeepsVictimHitRateWithin10Pct) {
  // Reference: the victim alone, admission on — a perfect hit rate once
  // warmed, since the hot set exactly fits.
  auto alone = RunScanScenario(/*admission_on=*/true, /*with_adversary=*/false);
  ASSERT_DOUBLE_EQ(alone.victim_hit_rate, 1.0);

  // Under scan pressure with the filter on, the victim keeps >= 90% of its
  // solo hit rate (the ISSUE's bound; in this deterministic scenario the
  // scan bounces entirely and the rate stays 1.0).
  auto contended = RunScanScenario(/*admission_on=*/true, /*with_adversary=*/true);
  EXPECT_GE(contended.victim_hit_rate, 0.9 * alone.victim_hit_rate);
  EXPECT_GT(contended.stats.admission_rejects, 0u);
  EXPECT_EQ(contended.stats.admission_attempts,
            contended.stats.insertions + contended.stats.admission_rejects);

  // And the scenario is genuinely adversarial: with admission off the same
  // scan flushes the victim's hot set and its hit rate collapses.
  auto flushed = RunScanScenario(/*admission_on=*/false, /*with_adversary=*/true);
  EXPECT_LT(flushed.victim_hit_rate, 0.5);
  EXPECT_GE(contended.victim_hit_rate, 2.0 * flushed.victim_hit_rate);
}

// ---------------------------------------------------------------------------
// Per-session quotas.

TEST(QuotaTest, SessionOverQuotaEvictsOnlyItsOwnOldestTiles) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCacheOptions options;
  options.l1_bytes = 16 * kTileBytes;  // far from full: only quotas bind
  options.num_shards = 1;
  options.session_quota_bytes = 4 * kTileBytes;
  SharedTileCache cache(options);

  const CacheAccess a{1, 0.0}, b{2, 0.0};
  // B parks two tiles first; they must survive A's overrun untouched.
  const auto level3 = pyramid->spec().KeysAtLevel(3);
  cache.Insert(level3[0], FetchTile(&store, level3[0]), b);
  cache.Insert(level3[1], FetchTile(&store, level3[1]), b);

  // A inserts 8 tiles against a 4-tile quota: each overrun displaces A's
  // own oldest tile, in insertion order.
  const auto level2 = pyramid->spec().KeysAtLevel(2);
  for (std::size_t i = 0; i < 8; ++i) {
    cache.Insert(level2[i], FetchTile(&store, level2[i]), a);
  }

  EXPECT_EQ(cache.SessionL1Bytes(1), 4 * kTileBytes);
  EXPECT_EQ(cache.SessionL1Bytes(2), 2 * kTileBytes);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(cache.Contains(level2[i])) << "oldest A tile " << i;
  }
  for (std::size_t i = 4; i < 8; ++i) {
    EXPECT_TRUE(cache.Contains(level2[i])) << "newest A tile " << i;
  }
  EXPECT_TRUE(cache.Contains(level3[0]));
  EXPECT_TRUE(cache.Contains(level3[1]));

  auto stats = cache.Stats();
  EXPECT_EQ(stats.quota_evictions, 4u);
  EXPECT_EQ(stats.insertions, 10u);
  EXPECT_EQ(stats.evictions, 4u);  // no L2: quota displacement = true drop
  EXPECT_EQ(stats.insertions - stats.evictions,
            static_cast<std::uint64_t>(cache.size()));
}

TEST(QuotaTest, AnonymousAccessesAreQuotaExempt) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCacheOptions options;
  options.l1_bytes = 16 * kTileBytes;
  options.num_shards = 1;
  options.session_quota_bytes = 2 * kTileBytes;
  SharedTileCache cache(options);

  const auto level2 = pyramid->spec().KeysAtLevel(2);
  for (std::size_t i = 0; i < 6; ++i) {
    cache.Insert(level2[i], FetchTile(&store, level2[i]));  // session_id 0
  }
  EXPECT_EQ(cache.size(), 6u);  // no quota charged, nothing displaced
  EXPECT_EQ(cache.Stats().quota_evictions, 0u);
  EXPECT_EQ(cache.SessionL1Bytes(0), 0u);
}

TEST(QuotaTest, TileLargerThanQuotaIsServedButNeverCharged) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCacheOptions options;
  options.l1_bytes = 16 * kTileBytes;
  options.num_shards = 1;
  options.session_quota_bytes = kTileBytes / 2;  // below one tile
  SharedTileCache cache(options);

  auto tile = cache.GetOrFetch({1, 0, 0}, &store, {1, 0.0});
  ASSERT_TRUE(tile.ok());
  EXPECT_NE(*tile, nullptr);          // served
  EXPECT_EQ(cache.size(), 0u);        // but the quota cannot hold it
  auto stats = cache.Stats();
  EXPECT_EQ(stats.admission_rejects, 1u);
  EXPECT_EQ(stats.admission_attempts, stats.insertions + stats.admission_rejects);
}

TEST(QuotaTest, FilterJudgesRealVictimsNotQuotaSelfEvictions) {
  // A session at its quota pays for new admissions with its own oldest
  // tiles; the frequency filter must judge the candidate against the
  // residents actually displaced — not the warm global-LRU front that
  // quota eviction leaves untouched.
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCacheOptions options = TinyLfuCache(4);
  options.session_quota_bytes = 2 * kTileBytes;
  SharedTileCache cache(options);

  const auto level2 = pyramid->spec().KeysAtLevel(2);
  const CacheAccess neighbor{1, 0.0}, self{2, 0.0};
  // Neighbor holds two very warm tiles at the LRU front.
  ASSERT_TRUE(cache.GetOrFetch(level2[0], &store, neighbor).ok());
  ASSERT_TRUE(cache.GetOrFetch(level2[1], &store, neighbor).ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(cache.Lookup(level2[0], neighbor), nullptr);
    EXPECT_NE(cache.Lookup(level2[1], neighbor), nullptr);
  }
  // The session fills its quota with cold tiles; the shard is now at its
  // 4-tile budget with the neighbor's warm pair oldest in LRU order.
  ASSERT_TRUE(cache.GetOrFetch(level2[2], &store, self).ok());
  ASSERT_TRUE(cache.GetOrFetch(level2[3], &store, self).ok());

  // A cold candidate from the quota-bound session: the bytes come out of
  // its own cold tiles (quota eviction), so the filter has no foreign
  // victim to protect and must admit.
  ASSERT_TRUE(cache.GetOrFetch(level2[4], &store, self).ok());
  EXPECT_TRUE(cache.Contains(level2[4]));
  EXPECT_FALSE(cache.Contains(level2[2]));  // own oldest paid for it
  EXPECT_TRUE(cache.Contains(level2[0]));   // neighbor untouched
  EXPECT_TRUE(cache.Contains(level2[1]));
  auto stats = cache.Stats();
  EXPECT_EQ(stats.quota_evictions, 1u);
  EXPECT_EQ(stats.admission_rejects, 0u);
  EXPECT_EQ(cache.SessionL1Bytes(2), 2 * kTileBytes);
}

// ---------------------------------------------------------------------------
// Priority admission.

TEST(PriorityAdmissionTest, HighConfidencePrefetchBypassesFilter) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCache cache(TinyLfuCache(2));  // priority_confidence = 0.9
  const tiles::TileKey a{1, 0, 0}, b{1, 1, 0}, c{1, 0, 1};

  ASSERT_TRUE(cache.GetOrFetch(a, &store).ok());
  ASSERT_TRUE(cache.GetOrFetch(b, &store).ok());
  EXPECT_NE(cache.Lookup(a), nullptr);
  EXPECT_NE(cache.Lookup(b), nullptr);

  // A low-confidence fill of cold c bounces...
  cache.Insert(c, FetchTile(&store, c), {3, 0.5});
  EXPECT_FALSE(cache.Contains(c));
  EXPECT_EQ(cache.Stats().admission_rejects, 1u);
  EXPECT_EQ(cache.Stats().priority_admits, 0u);

  // ...but when the engine is near-certain the user moves there next, the
  // same tile must not be bounced for being new.
  cache.Insert(c, FetchTile(&store, c), {3, 0.95});
  EXPECT_TRUE(cache.Contains(c));
  auto stats = cache.Stats();
  EXPECT_EQ(stats.priority_admits, 1u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);  // one warm tile paid for the override
  EXPECT_EQ(stats.admission_attempts, stats.insertions + stats.admission_rejects);
}

// A merged prefetch fill (GetOrFetchSharedBatch) counts every subscriber's
// intent in the frequency sketch, not just the one its probe records: three
// subscribers make a cold tile warmer than a twice-touched victim, while
// their summed confidence (0.6) stays below priority_confidence, so the
// filter itself decides.
TEST(PriorityAdmissionTest, MergedFillSubscribersEachWarmTheSketch) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  const tiles::TileKey victim{1, 0, 0}, candidate{1, 1, 0};
  auto fill = [&](std::vector<CacheAccess> subscribers) {
    SharedTileCache cache(TinyLfuCache(1));  // full with one tile
    EXPECT_TRUE(cache.GetOrFetch(victim, &store).ok());
    EXPECT_NE(cache.Lookup(victim), nullptr);  // sketch count 2
    auto results = cache.GetOrFetchSharedBatch(
        {{candidate, std::move(subscribers)}}, &store);
    EXPECT_TRUE(results[0].ok() && (*results[0]).fetched);
    return cache.Contains(candidate);
  };
  // 1 probe + 2 further subscribers = count 3 > 2: admitted.
  EXPECT_TRUE(fill({{1, 0.2}, {2, 0.2}, {3, 0.2}}));
  // The probe alone = count 1: bounced.
  EXPECT_FALSE(fill({{1, 0.2}}));
}

TEST(PriorityAdmissionTest, PriorityStillRespectsQuota) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCacheOptions options = TinyLfuCache(8);
  options.session_quota_bytes = 2 * kTileBytes;
  SharedTileCache cache(options);

  const auto level2 = pyramid->spec().KeysAtLevel(2);
  for (std::size_t i = 0; i < 4; ++i) {
    cache.Insert(level2[i], FetchTile(&store, level2[i]), {1, 1.0});
  }
  // Full confidence bypasses the frequency filter, never the fairness
  // quota: the session still holds at most its share.
  EXPECT_EQ(cache.SessionL1Bytes(1), 2 * kTileBytes);
  EXPECT_EQ(cache.Stats().quota_evictions, 2u);
}

// ---------------------------------------------------------------------------
// Randomized property: whatever the admit/reject/demote interleaving, byte
// budgets and stat conservation hold after every single operation.

TEST(AdmissionPropertyTest, BudgetsAndInvariantsHoldUnderRandomWorkload) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);

  SharedTileCacheOptions options;
  options.l1_bytes = 6 * kTileBytes;
  options.l2_bytes = 3 * kTileBytes;
  options.num_shards = 1;
  options.admission.policy = AdmissionPolicyKind::kTinyLfu;
  options.admission.sketch_counters = 64;   // collisions welcome
  options.admission.sketch_halve_every = 128;  // many halvings in-run
  options.session_quota_bytes = 3 * kTileBytes;
  SharedTileCache cache(options);

  const auto keys = pyramid->spec().AllKeys();
  Rng rng(/*seed=*/20260730);
  std::uint64_t lookups = 0;
  for (int op = 0; op < 2000; ++op) {
    const auto& key = keys[rng.UniformUint32(static_cast<std::uint32_t>(keys.size()))];
    CacheAccess access;
    access.session_id = 1 + rng.UniformUint32(3);
    access.confidence = rng.Bernoulli(0.15) ? 1.0 : rng.UniformDouble();
    ++lookups;
    if (cache.Lookup(key, access) == nullptr) {
      cache.Insert(key, FetchTile(&store, key), access);
    }

    auto stats = cache.Stats();
    ASSERT_LE(stats.l1_bytes_resident, options.l1_bytes) << "op " << op;
    ASSERT_LE(stats.l2_bytes_resident, options.l2_bytes) << "op " << op;
    ASSERT_LE(stats.bytes_resident, options.l1_bytes + options.l2_bytes);
    ASSERT_EQ(stats.admission_attempts,
              stats.insertions + stats.admission_rejects)
        << "op " << op;
    ASSERT_EQ(stats.hits + stats.misses, lookups) << "op " << op;
    for (std::uint64_t session = 1; session <= 3; ++session) {
      ASSERT_LE(cache.SessionL1Bytes(session), options.session_quota_bytes)
          << "op " << op << " session " << session;
    }
  }

  auto stats = cache.Stats();
  EXPECT_EQ(stats.insertions - stats.evictions,
            static_cast<std::uint64_t>(cache.size()));
  // The workload actually exercised every policy path.
  EXPECT_GT(stats.admission_rejects, 0u);
  EXPECT_GT(stats.priority_admits, 0u);
  EXPECT_GT(stats.quota_evictions, 0u);
  EXPECT_GT(stats.demotions, 0u);
  EXPECT_GT(stats.l2_hits, 0u);
}

}  // namespace
}  // namespace fc::core
