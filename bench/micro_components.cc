// Micro-benchmarks (google-benchmark) for the component hot paths: tile
// pyramid construction, signature extraction, Markov/KN evaluation, SVM
// prediction, LRU cache operations, and the tile codec.

#include <benchmark/benchmark.h>

#include "core/tile_cache.h"
#include "markov/markov_chain.h"
#include "storage/tile_codec.h"
#include "svm/svm.h"
#include "vision/signature.h"

#include "bench_common.h"

using namespace fc;

namespace {

const sim::Study& Study() { return fc::bench::GetStudy(); }

vision::Raster SampleRaster() {
  const auto& pyramid = *Study().dataset.pyramid;
  auto key = pyramid.spec().KeysAtLevel(pyramid.spec().num_levels - 1).front();
  auto tile = pyramid.GetTile(key);
  auto raster = (*tile)->ToRaster(pyramid.signature_attr());
  return *raster;
}

void BM_SiftExtract(benchmark::State& state) {
  auto raster = SampleRaster();
  vision::SiftExtractor extractor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(raster));
  }
}
BENCHMARK(BM_SiftExtract);

void BM_HistogramSignature(benchmark::State& state) {
  auto raster = SampleRaster();
  vision::HistogramSignature sig(32, -1.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sig.Compute(raster));
  }
}
BENCHMARK(BM_HistogramSignature);

void BM_MarkovDistribution(benchmark::State& state) {
  auto chain = markov::MarkovChain::Make(core::kNumMoves, 3);
  std::vector<std::vector<int>> traces;
  for (const auto& t : Study().traces) traces.push_back(t.MoveSymbols());
  (void)chain->Train(traces);
  std::vector<int> recent = {0, 1, 5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain->NextMoveDistribution(recent));
  }
}
BENCHMARK(BM_MarkovDistribution);

core::TileRequest PhaseRequest() {
  core::TileRequest request;
  request.tile = tiles::TileKey{3, 2, 1};
  request.move = core::Move::kZoomInNW;
  return request;
}

core::PhaseClassifier TrainPhaseClassifier() {
  core::PhaseClassifierOptions options;
  options.max_training_rows = 400;
  return std::move(core::PhaseClassifier::Train(Study().traces, options)).value();
}

// A repeated request: after the first call, a lookup in the phase memo.
void BM_PhaseClassifierPredict(benchmark::State& state) {
  auto classifier = TrainPhaseClassifier();
  auto request = PhaseRequest();
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.Predict(request));
  }
}
BENCHMARK(BM_PhaseClassifierPredict);

// The SVM itself, which the phase memo runs on a miss: one kernel per
// distinct support vector and each pairwise machine's vote.
void BM_SvmPredict(benchmark::State& state) {
  auto classifier = TrainPhaseClassifier();
  auto features =
      classifier.scaler().Transform(core::ExtractPhaseFeatures(PhaseRequest()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.svm().Predict(features));
  }
}
BENCHMARK(BM_SvmPredict);

void BM_LruCachePutGet(benchmark::State& state) {
  const auto& pyramid = *Study().dataset.pyramid;
  auto keys = pyramid.spec().KeysAtLevel(pyramid.spec().num_levels - 1);
  core::LruTileCache cache(64);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& key = keys[i % keys.size()];
    auto tile = pyramid.GetTile(key);
    cache.Put(key, *tile);
    benchmark::DoNotOptimize(cache.Get(key));
    ++i;
  }
}
BENCHMARK(BM_LruCachePutGet);

void BM_TileCodecRoundTrip(benchmark::State& state) {
  const auto& pyramid = *Study().dataset.pyramid;
  auto key = pyramid.spec().KeysAtLevel(0).front();
  auto tile = pyramid.GetTile(key);
  for (auto _ : state) {
    auto bytes = storage::EncodeTile(**tile);
    benchmark::DoNotOptimize(storage::DecodeTile(bytes));
  }
}
BENCHMARK(BM_TileCodecRoundTrip);

void BM_SbRecommend(benchmark::State& state) {
  const auto& study = Study();
  const auto& pyramid = *study.dataset.pyramid;
  core::SbRecommender sb(&pyramid.metadata(), study.dataset.toolbox.get());
  core::SessionHistory history(8);
  core::TileRequest request;
  request.tile = tiles::TileKey{3, 1, 1};
  request.move = core::Move::kPanRight;
  history.Add(request);
  core::PredictionContext ctx;
  ctx.request = request;
  ctx.history = &history;
  ctx.spec = &pyramid.spec();
  ctx.roi = {tiles::TileKey{3, 1, 0}, tiles::TileKey{3, 0, 1}};
  ctx.candidates = core::CandidateTiles(request.tile, pyramid.spec());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sb.Recommend(ctx));
  }
}
BENCHMARK(BM_SbRecommend);

}  // namespace

BENCHMARK_MAIN();
