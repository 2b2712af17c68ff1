// Admission control under an adversarial scan: does the fairness layer
// actually protect a victim session's hit rate?
//
// N zoom-loop sessions each keep a small hot set warm while one scan-heavy
// session sweeps the finest pyramid level — the multi-tenant failure mode
// where, without admission control, every scanned tile is admitted and the
// victims' hot sets are flushed once per sweep (the contention Continuous
// Prefetch guards against with utility-ordered scheduling, and that Kyrix's
// shared tile backend must absorb at scale). The replay is single-threaded
// and round-robin, so every admit/reject decision is deterministic.
//
// Three configurations at one byte budget sized to exactly the victims'
// combined hot sets: admission off (PR 2 behavior), the TinyLFU frequency
// filter, and TinyLFU plus per-session quotas. The acceptance gate is the
// ISSUE's: victim hit rate with admission on must be >= 2x the
// admission-off rate.
//
// Emits BENCH_admission.json for the perf trajectory.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "core/shared_tile_cache.h"
#include "eval/table_printer.h"
#include "storage/tile_store.h"

#include "bench_common.h"

using namespace fc;

namespace {

constexpr std::size_t kVictims = 4;
constexpr std::size_t kHotTilesPerVictim = 12;
constexpr std::size_t kScansPerRound = 16;
constexpr std::uint64_t kAdversaryId = 99;

struct SessionTally {
  std::uint64_t hits = 0;
  std::uint64_t requests = 0;
  double HitRate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(hits) / static_cast<double>(requests);
  }
};

struct RunResult {
  std::string name;
  double victim_hit_rate = 0.0;      ///< Aggregate over all victims.
  double min_victim_hit_rate = 0.0;  ///< The worst-treated victim (fairness).
  double adversary_hit_rate = 0.0;
  std::size_t victim_bytes = 0;
  std::size_t adversary_bytes = 0;
  core::SharedTileCacheStats stats;
};

RunResult Replay(const std::string& name, const sim::Study& study,
                 core::SharedTileCacheOptions options) {
  storage::MemoryTileStore store(study.dataset.pyramid);
  core::SharedTileCache cache(options);
  const auto& spec = study.dataset.pyramid->spec();

  // Hot sets: disjoint slices of the second-finest level. Scan space: the
  // finest level, large enough that a sweep is a genuine scan (every key
  // touched far less often than the victims touch theirs).
  const auto hot_level = spec.KeysAtLevel(spec.num_levels - 2);
  const auto scan = spec.KeysAtLevel(spec.num_levels - 1);
  std::vector<std::vector<tiles::TileKey>> hot(kVictims);
  for (std::size_t v = 0; v < kVictims; ++v) {
    for (std::size_t i = 0; i < kHotTilesPerVictim; ++i) {
      hot[v].push_back(hot_level[(v * kHotTilesPerVictim + i) % hot_level.size()]);
    }
  }

  auto request = [&](const tiles::TileKey& key, std::uint64_t session,
                     SessionTally* tally) {
    ++tally->requests;
    if (cache.Lookup(key, {session}) != nullptr) {
      ++tally->hits;
      return;
    }
    auto tile = store.Fetch(key);
    if (tile.ok()) cache.Insert(key, *tile, {session});
  };

  // Warmup (unmeasured): each victim loops its hot set twice, so the set
  // is resident and carries sketch frequency >= 2 when the scan starts.
  SessionTally sink;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t v = 0; v < kVictims; ++v) {
      for (const auto& key : hot[v]) request(key, v + 1, &sink);
    }
  }

  // Contention: per round every victim advances one step through its loop
  // and the adversary scans a burst. Two full victim cycles measured.
  std::vector<SessionTally> victims(kVictims);
  SessionTally adversary;
  std::size_t scan_pos = 0;
  const std::size_t rounds = 2 * kHotTilesPerVictim;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t v = 0; v < kVictims; ++v) {
      request(hot[v][round % hot[v].size()], v + 1, &victims[v]);
    }
    for (std::size_t burst = 0; burst < kScansPerRound; ++burst) {
      request(scan[scan_pos++ % scan.size()], kAdversaryId, &adversary);
    }
  }

  RunResult result;
  result.name = name;
  std::uint64_t hits = 0, requests = 0;
  result.min_victim_hit_rate = 1.0;
  for (std::size_t v = 0; v < kVictims; ++v) {
    hits += victims[v].hits;
    requests += victims[v].requests;
    result.min_victim_hit_rate =
        std::min(result.min_victim_hit_rate, victims[v].HitRate());
    result.victim_bytes += cache.SessionL1Bytes(v + 1);
  }
  result.victim_hit_rate =
      static_cast<double>(hits) / static_cast<double>(requests);
  result.adversary_hit_rate = adversary.HitRate();
  result.adversary_bytes = cache.SessionL1Bytes(kAdversaryId);
  result.stats = cache.Stats();
  return result;
}

JsonValue ToJson(const RunResult& r) {
  auto row = JsonValue::Object();
  row.Set("config", r.name);
  row.Set("victim_hit_rate", r.victim_hit_rate);
  row.Set("min_victim_hit_rate", r.min_victim_hit_rate);
  row.Set("adversary_hit_rate", r.adversary_hit_rate);
  row.Set("victim_bytes", r.victim_bytes);
  row.Set("adversary_bytes", r.adversary_bytes);
  row.Set("admission_attempts", r.stats.admission_attempts);
  row.Set("admission_rejects", r.stats.admission_rejects);
  row.Set("priority_admits", r.stats.priority_admits);
  row.Set("quota_evictions", r.stats.quota_evictions);
  row.Set("insertions", r.stats.insertions);
  row.Set("evictions", r.stats.evictions);
  row.Set("hit_rate_overall", r.stats.HitRate());
  row.Set("bytes_resident", r.stats.bytes_resident);
  return row;
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Admission control & session fairness — victim hit rate under a "
      "concurrent scan adversary",
      "north star: multi-tenant serving; cf. Continuous Prefetch utility "
      "scheduling, Kyrix shared backends");
  const auto& study = bench::GetStudy();

  const std::size_t tile_bytes = study.dataset.pyramid->NominalTileBytes();
  // The budget fits exactly the victims' combined hot sets: any admitted
  // scan tile necessarily displaces a victim tile.
  core::SharedTileCacheOptions base;
  base.l1_bytes = kVictims * kHotTilesPerVictim * tile_bytes;
  base.l2_bytes = 0;
  base.num_shards = 1;  // deterministic victim ordering

  core::SharedTileCacheOptions filtered = base;
  filtered.admission.policy = core::AdmissionPolicyKind::kTinyLfu;
  filtered.admission.sketch_counters = 4096;

  core::SharedTileCacheOptions quota_only = base;
  quota_only.session_quota_bytes = base.l1_bytes / 4;

  core::SharedTileCacheOptions fair = filtered;
  fair.session_quota_bytes = base.l1_bytes / 4;

  std::cout << "budget: " << base.l1_bytes << " bytes ("
            << kVictims * kHotTilesPerVictim << " nominal tiles), "
            << kVictims << " zoom-loop victims x " << kHotTilesPerVictim
            << " hot tiles, adversary scans " << kScansPerRound
            << " tiles/round over "
            << study.dataset.pyramid->spec()
                   .KeysAtLevel(study.dataset.pyramid->spec().num_levels - 1)
                   .size()
            << " keys\n\n";

  auto off = Replay("admission_off", study, base);
  auto quota = Replay("quota_only", study, quota_only);
  auto tinylfu = Replay("tinylfu", study, filtered);
  auto fairness = Replay("tinylfu_quota", study, fair);

  eval::TablePrinter table({"Config", "Victim hit rate", "Worst victim",
                            "Adversary", "Rejects", "Quota evicts"});
  for (const auto& r : {off, quota, tinylfu, fairness}) {
    table.AddRow({r.name, bench::Pct(r.victim_hit_rate),
                  bench::Pct(r.min_victim_hit_rate),
                  bench::Pct(r.adversary_hit_rate),
                  std::to_string(r.stats.admission_rejects),
                  std::to_string(r.stats.quota_evictions)});
  }
  table.Print();

  // Acceptance: with the fairness layer on, the victims' L1 hit rate is at
  // least double the unprotected rate (ratio reported against a floored
  // denominator so a fully flushed baseline stays finite).
  const double floored_off = std::max(off.victim_hit_rate, 0.005);
  const double ratio = fairness.victim_hit_rate / floored_off;
  const bool pass = fairness.victim_hit_rate >= 2.0 * off.victim_hit_rate &&
                    fairness.victim_hit_rate >= 0.5 &&
                    tinylfu.victim_hit_rate >= 2.0 * off.victim_hit_rate;
  std::cout << "\nVictim hit rate " << bench::Pct(off.victim_hit_rate)
            << " unprotected vs " << bench::Pct(fairness.victim_hit_rate)
            << " with admission control ("
            << eval::TablePrinter::Num(ratio, 1) << "x). "
            << (pass ? "PASS\n" : "FAIL: admission added no protection.\n");

  auto report = bench::Report("admission_scan_resistance", pass);
  report.Set("budget_bytes", base.l1_bytes);
  report.Set("victims", kVictims);
  report.Set("hot_tiles_per_victim", kHotTilesPerVictim);
  report.Set("scans_per_round", kScansPerRound);
  report.Set("victim_hit_ratio", std::min(ratio, 999.0));
  auto results = JsonValue::Array();
  results.Push(ToJson(off));
  results.Push(ToJson(quota));
  results.Push(ToJson(tinylfu));
  results.Push(ToJson(fairness));
  report.Set("results", std::move(results));
  if (!bench::WriteReport("BENCH_admission.json", report)) return 1;
  return pass ? 0 : 1;
}
