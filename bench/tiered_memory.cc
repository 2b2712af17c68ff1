// Tiered memory governance: at one fixed byte budget, how many tiles stay
// resident — and how many requests stay off the DBMS — with the compressed
// L2 tier versus a decoded-only (L1) cache?
//
// The Khameleon line of work shows prefetch utility collapses without
// explicit resource budgeting; here the budget is bytes, and the question is
// what the best shape for those bytes is. A Zipf-skewed tile workload over
// the study pyramid replays against (a) the whole budget as decoded L1 and
// (b) the budget split between decoded L1 and codec-compressed L2. The
// compressed tier should hold several times more tiles per byte, turning
// would-be DBMS round trips into sub-millisecond decodes.
//
// Emits BENCH_tiered_memory.json for the perf trajectory.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/rng.h"
#include "core/shared_tile_cache.h"
#include "eval/table_printer.h"
#include "storage/tile_codec.h"
#include "storage/tile_store.h"

#include "bench_common.h"

using namespace fc;

namespace {

/// Zipf-ranked key sampler: key ranks are a fixed shuffle of the pyramid's
/// keys, draws follow p(rank) ~ 1/(rank+1). Deterministic.
class ZipfKeys {
 public:
  ZipfKeys(std::vector<tiles::TileKey> keys, std::uint64_t seed)
      : keys_(std::move(keys)), rng_(seed) {
    Rng shuffler(seed, /*stream=*/7);
    shuffler.Shuffle(&keys_);
    cumulative_.reserve(keys_.size());
    double total = 0.0;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      cumulative_.push_back(total);
    }
  }

  const tiles::TileKey& Next() {
    double u = rng_.UniformDouble() * cumulative_.back();
    auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
    return keys_[static_cast<std::size_t>(it - cumulative_.begin())];
  }

 private:
  std::vector<tiles::TileKey> keys_;
  std::vector<double> cumulative_;
  Rng rng_;
};

struct RunResult {
  std::string name;
  std::size_t tiles_resident = 0;
  std::size_t l1_tiles = 0;
  std::size_t l2_tiles = 0;
  double hit_rate = 0.0;
  core::SharedTileCacheStats stats;
  std::uint64_t dbms_fetches = 0;
};

RunResult Replay(const std::string& name, const sim::Study& study,
                 core::SharedTileCacheOptions options, std::size_t requests) {
  storage::MemoryTileStore store(study.dataset.pyramid);
  core::SharedTileCache cache(options);
  ZipfKeys sampler(study.dataset.pyramid->spec().AllKeys(), /*seed=*/4242);
  for (std::size_t i = 0; i < requests; ++i) {
    auto tile = cache.GetOrFetch(sampler.Next(), &store);
    if (!tile.ok()) {
      std::cerr << "ERROR: " << tile.status() << "\n";
      return {};
    }
  }
  RunResult result;
  result.name = name;
  result.tiles_resident = cache.size();
  result.l1_tiles = cache.l1_size();
  result.l2_tiles = cache.l2_size();
  result.stats = cache.Stats();
  result.hit_rate = result.stats.HitRate();
  result.dbms_fetches = store.fetch_count();
  return result;
}

/// Mean encoded bytes per tile over a sample, per encoding.
JsonValue CodecRatios(const sim::Study& study) {
  auto section = JsonValue::Array();
  const auto keys = study.dataset.pyramid->spec().AllKeys();
  const std::size_t step = std::max<std::size_t>(1, keys.size() / 64);
  for (auto encoding :
       {storage::TileEncoding::kRawF64, storage::TileEncoding::kFloat32,
        storage::TileEncoding::kDeltaVarint}) {
    storage::TileCodec codec({encoding, 1e-4});
    std::size_t raw = 0, encoded = 0, count = 0;
    for (std::size_t i = 0; i < keys.size(); i += step) {
      auto tile = study.dataset.pyramid->GetTile(keys[i]);
      if (!tile.ok()) continue;
      raw += (*tile)->SizeBytes();
      encoded += codec.Encode(**tile).size();
      ++count;
    }
    auto row = JsonValue::Object();
    row.Set("encoding", storage::TileEncodingName(encoding));
    row.Set("tiles_sampled", count);
    row.Set("mean_raw_bytes", count == 0 ? 0.0 : double(raw) / double(count));
    row.Set("mean_encoded_bytes",
            count == 0 ? 0.0 : double(encoded) / double(count));
    row.Set("compression_ratio",
            encoded == 0 ? 0.0 : double(raw) / double(encoded));
    std::cout << "  codec " << storage::TileEncodingName(encoding) << ": "
              << (encoded == 0 ? 0.0 : double(raw) / double(encoded))
              << "x over " << count << " tiles\n";
    section.Push(std::move(row));
  }
  return section;
}

JsonValue ToJson(const RunResult& r, std::size_t budget_bytes) {
  auto row = JsonValue::Object();
  row.Set("config", r.name);
  row.Set("budget_bytes", budget_bytes);
  row.Set("tiles_resident", r.tiles_resident);
  row.Set("l1_tiles", r.l1_tiles);
  row.Set("l2_tiles", r.l2_tiles);
  row.Set("hit_rate", r.hit_rate);
  row.Set("l1_hits", r.stats.l1_hits);
  row.Set("l2_hits", r.stats.l2_hits);
  row.Set("misses", r.stats.misses);
  row.Set("demotions", r.stats.demotions);
  row.Set("evictions", r.stats.evictions);
  row.Set("encode_ns", r.stats.encode_ns);
  row.Set("decode_ns", r.stats.decode_ns);
  row.Set("bytes_resident", r.stats.bytes_resident);
  row.Set("l1_bytes_resident", r.stats.l1_bytes_resident);
  row.Set("l2_bytes_resident", r.stats.l2_bytes_resident);
  row.Set("dbms_fetches", r.dbms_fetches);
  return row;
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Tiered memory — compressed L2 tier vs decoded-only cache at one "
      "byte budget",
      "north star: byte-governed serving; cf. Khameleon resource budgeting");
  const auto& study = bench::GetStudy();

  const std::size_t tile_bytes = study.dataset.pyramid->NominalTileBytes();
  const std::size_t budget = 32 * tile_bytes;
  const std::size_t requests = bench::FastBench() ? 20000 : 60000;
  std::cout << "budget: " << budget << " bytes (" << budget / tile_bytes
            << " nominal tiles), working set "
            << study.dataset.pyramid->tile_count() << " tiles, " << requests
            << " Zipf-skewed requests\n\nCodec compression on this dataset:\n";

  auto codec_section = CodecRatios(study);

  core::SharedTileCacheOptions l1_only;
  l1_only.l1_bytes = budget;
  l1_only.l2_bytes = 0;
  l1_only.num_shards = 4;

  core::SharedTileCacheOptions tiered;
  tiered.l1_bytes = budget / 2;
  tiered.l2_bytes = budget - tiered.l1_bytes;
  tiered.num_shards = 4;
  tiered.codec = {storage::TileEncoding::kDeltaVarint, 1e-4};

  auto base = Replay("l1_only", study, l1_only, requests);
  auto two_tier = Replay("tiered", study, tiered, requests);

  eval::TablePrinter table({"Config", "Resident tiles", "L1/L2", "Hit rate",
                            "L2 hits", "DBMS fetches", "Decode ms"});
  for (const auto& r : {base, two_tier}) {
    table.AddRow({r.name, std::to_string(r.tiles_resident),
                  std::to_string(r.l1_tiles) + "/" + std::to_string(r.l2_tiles),
                  bench::Pct(r.hit_rate), std::to_string(r.stats.l2_hits),
                  std::to_string(r.dbms_fetches),
                  eval::TablePrinter::Num(
                      static_cast<double>(r.stats.decode_ns) / 1e6, 2)});
  }
  std::cout << "\n";
  table.Print();

  const double resident_ratio =
      base.tiles_resident == 0
          ? 0.0
          : static_cast<double>(two_tier.tiles_resident) /
                static_cast<double>(base.tiles_resident);
  const bool pass =
      resident_ratio >= 2.0 && two_tier.hit_rate >= base.hit_rate;
  std::cout << "\nAt the same byte budget the tiered cache holds "
            << eval::TablePrinter::Num(resident_ratio, 1)
            << "x the tiles and serves "
            << (two_tier.dbms_fetches < base.dbms_fetches ? "fewer" : "MORE")
            << " DBMS queries ("
            << two_tier.dbms_fetches << " vs " << base.dbms_fetches << "). "
            << (pass ? "PASS\n" : "FAIL: tier added no headroom.\n");

  auto report = bench::Report("tiered_memory", pass);
  report.Set("budget_bytes", budget);
  report.Set("requests", requests);
  report.Set("resident_ratio", resident_ratio);
  report.Set("codec", std::move(codec_section));
  auto results = JsonValue::Array();
  results.Push(ToJson(base, budget));
  results.Push(ToJson(two_tier, budget));
  report.Set("results", std::move(results));
  if (!bench::WriteReport("BENCH_tiered_memory.json", report)) return 1;
  return pass ? 0 : 1;
}
