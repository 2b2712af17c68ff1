#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>

#include "common/logging.h"
#include "common/string_utils.h"
#include "core/ab_recommender.h"
#include "core/allocation.h"
#include "core/phase_classifier.h"
#include "core/sb_recommender.h"

namespace fc::bench {

bool FastBench() {
  const char* fast = std::getenv("FORECACHE_FAST_BENCH");
  return fast != nullptr && std::string(fast) == "1";
}

const sim::Study& GetStudy() {
  static const sim::Study study = [] {
    sim::ModisDatasetOptions dataset = sim::DefaultStudyDataset();
    sim::StudyOptions options;
    if (FastBench()) {
      dataset.terrain.width = 512;
      dataset.terrain.height = 512;
      dataset.num_levels = 5;
      options.num_users = 6;
    }
    std::cerr << "[bench] building study dataset ("
              << dataset.terrain.width << "x" << dataset.terrain.height << ", "
              << dataset.num_levels << " levels) and "
              << options.num_users << "x3 traces...\n";
    auto study_result = sim::RunStudy(dataset, options);
    FC_CHECK_MSG(study_result.ok(), study_result.status().ToString());
    std::cerr << "[bench] study ready: " << study_result->traces.size()
              << " traces, " << study_result->dataset.pyramid->tile_count()
              << " tiles\n";
    return std::move(study_result).value();
  }();
  return study;
}

std::string Pct(double fraction, int precision) {
  return StrFormat("%.*f%%", precision, fraction * 100.0);
}

const std::vector<core::AnalysisPhase>& ReportPhases() {
  static const std::vector<core::AnalysisPhase> kPhases = {
      core::AnalysisPhase::kForaging,
      core::AnalysisPhase::kNavigation,
      core::AnalysisPhase::kSensemaking,
  };
  return kPhases;
}

void PrintBanner(const std::string& experiment, const std::string& paper_ref) {
  std::cout << "==============================================================\n"
            << "ForeCache reproduction | " << experiment << "\n"
            << "Paper reference: " << paper_ref << "\n"
            << "==============================================================\n";
}

int PrintAccuracySweep(const sim::Study& study,
                       std::vector<eval::PredictorConfig> configs,
                       const std::vector<std::size_t>& ks) {
  eval::TablePrinter table(
      {"Model", "k", "Foraging", "Navigation", "Sensemaking", "Overall"});
  for (auto& config : configs) {
    for (std::size_t k : ks) {
      config.k = k;
      auto result = eval::RunLoocvAccuracy(study, config, k);
      if (!result.ok()) {
        std::cerr << "ERROR (" << config.DisplayName() << ", k=" << k
                  << "): " << result.status() << "\n";
        return 1;
      }
      const auto& report = result->merged;
      table.AddRow(
          {config.DisplayName(), std::to_string(k),
           Pct(report.ForPhase(core::AnalysisPhase::kForaging).Rate()),
           Pct(report.ForPhase(core::AnalysisPhase::kNavigation).Rate()),
           Pct(report.ForPhase(core::AnalysisPhase::kSensemaking).Rate()),
           Pct(report.overall.Rate())});
    }
  }
  table.Print();
  return 0;
}

server::SharedPredictionComponents TrainedComponents(std::size_t prefetch_k) {
  struct Models {
    std::unique_ptr<core::PhaseClassifier> classifier;
    std::unique_ptr<core::AbRecommender> ab;
    std::unique_ptr<core::SbRecommender> sb;
    core::HybridAllocationStrategy strategy;
  };
  static const Models models = [] {
    const sim::Study& study = GetStudy();
    auto classifier = core::PhaseClassifier::Train(study.traces);
    FC_CHECK_MSG(classifier.ok(), classifier.status().ToString());
    auto ab = core::AbRecommender::Make();
    FC_CHECK_MSG(ab.ok(), ab.status().ToString());
    const Status trained = ab->Train(study.traces);
    FC_CHECK_MSG(trained.ok(), trained.ToString());
    Models m;
    m.classifier =
        std::make_unique<core::PhaseClassifier>(std::move(*classifier));
    m.ab = std::make_unique<core::AbRecommender>(std::move(*ab));
    m.sb = std::make_unique<core::SbRecommender>(
        &study.dataset.pyramid->metadata(), study.dataset.toolbox.get());
    return m;
  }();
  server::SharedPredictionComponents shared;
  shared.classifier = models.classifier.get();
  shared.ab = models.ab.get();
  shared.sb = models.sb.get();
  shared.strategy = &models.strategy;
  shared.engine_options.prefetch_k = prefetch_k;
  return shared;
}

server::SessionManagerOptions ServingOptions(const sim::Study& study,
                                             SharedCache cache) {
  const std::size_t tile_bytes = study.dataset.pyramid->NominalTileBytes();
  server::SessionManagerOptions options;
  options.executor_threads = kServingThreads;
  if (cache == SharedCache::kRoomy) {
    options.shared_cache.l1_bytes = 256 * tile_bytes;
    options.shared_cache.l2_bytes = 64 * tile_bytes;
    options.shared_cache.num_shards = 16;
  } else {
    options.shared_cache.l1_bytes = 32 * tile_bytes;
    options.shared_cache.num_shards = 4;
    options.shared_cache.admission.policy = core::AdmissionPolicyKind::kTinyLfu;
    options.shared_cache.admission.sketch_counters = 1024;
  }
  return options;
}

double ReplayResult::HitRate() const {
  return requests == 0 ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(requests);
}

double ReplayResult::RequestsPerSec() const {
  return elapsed_sec > 0 ? static_cast<double>(requests) / elapsed_sec : 0.0;
}

ReplayResult ReplaySessions(server::SessionManager* manager,
                            const std::vector<const core::Trace*>& traces) {
  std::vector<server::SessionManager::SessionWorkload> workloads;
  for (std::size_t s = 0; s < traces.size(); ++s) {
    const core::Trace& trace = *traces[s];
    workloads.push_back(
        {"s" + std::to_string(s), [&trace](server::BrowserSession* session) {
           FC_RETURN_IF_ERROR(session->Open().status());
           session->WaitForPrefetch();
           for (std::size_t i = 1; i < trace.records.size(); ++i) {
             if (!trace.records[i].request.move.has_value()) continue;
             auto served = session->ApplyMove(*trace.records[i].request.move);
             (void)served;  // border rejections are fine during replay
             session->WaitForPrefetch();
           }
           return Status::OK();
         }});
  }

  ReplayResult result;
  const auto start = std::chrono::steady_clock::now();
  result.status = manager->RunSessions(
      workloads, std::min(kServingThreads, workloads.size()));
  result.elapsed_sec = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  if (!result.status.ok()) std::cerr << "ERROR: " << result.status << "\n";

  std::vector<double> latencies;
  for (const auto& workload : workloads) {
    auto server = manager->ServerFor(workload.session_id);
    if (!server.ok()) continue;
    result.requests += (*server)->cache_manager().requests();
    result.hits += (*server)->cache_manager().cache_hits();
    const auto& log = (*server)->latency_log();
    latencies.insert(latencies.end(), log.begin(), log.end());
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    result.p99_latency_ms =
        latencies[static_cast<std::size_t>(0.99 * (latencies.size() - 1))];
  }
  return result;
}

bool BooksBalance(const core::PrefetchSchedulerStats& stats) {
  return stats.fills_issued + stats.dedup_saved_fetches ==
         stats.predictions_published;
}

JsonValue Report(const std::string& bench, bool pass) {
  auto report = JsonValue::Object();
  report.Set("bench", bench);
  report.Set("fast_mode", FastBench());
  report.Set("pass", pass);
  return report;
}

bool WriteReport(const std::string& path, const JsonValue& report) {
  if (auto status = WriteJsonFile(path, report); !status.ok()) {
    std::cerr << "ERROR writing " << path << ": " << status << "\n";
    return false;
  }
  std::cout << "Wrote " << path << "\n";
  return true;
}

std::shared_ptr<tiles::TilePyramid> SyntheticPyramid() {
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
  FC_CHECK_MSG(pyramid.ok(), pyramid.status().ToString());
  return *pyramid;
}

tiles::TileKey Level5Key(std::size_t index) {
  return tiles::TileKey{5, static_cast<std::int64_t>(index % 32),
                        static_cast<std::int64_t>(index / 32)};
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

}  // namespace fc::bench
