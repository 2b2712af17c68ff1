// forecache_perfbench: replays one seeded browsing workload through the real
// serving stack, checks every served tile, and reports end-to-end metrics
// (untraced run) or per-layer metrics (traced run).
//
//   forecache_perfbench --workload push64|paper_sync|disk_churn --seed N
//                       --seconds S --trace 0|1 [--scratch DIR]
//                       [--setup-reps N]
//
// Set-up (study build, training, plan generation, store preparation) is
// repeated --setup-reps times; setup_s is its median plus the median stack
// construction time. The replay then runs whole epochs — one epoch replays
// one plan, every session's requests, on a freshly built stack — until the
// timed replay time reaches --seconds. Timing metrics come from the fastest
// replay of each plan. With --trace 1 the first half of that time runs
// untraced and the second half traced, and the difference is reported as
// the tracing overhead. perfbench/README.md describes the workloads and
// every metric.
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// The exit code is nonzero when any request failed or any check failed.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/logging.h"
#include "replay.h"
#include "spans.h"
#include "storage/tile_codec.h"
#include "storage/tile_store.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  WorkloadKind kind = WorkloadKind::kPush64;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build/perfbench";
  int setup_reps = 3;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args->kind)) return false;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else if (flag == "--setup-reps") {
      args->setup_reps = std::atoi(value.c_str());
      if (args->setup_reps < 1) return false;
    } else {
      return false;
    }
  }
  return have_workload;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Carried in the JSON result line. The others are printed only: they
  /// repeat exactly for a seed but swing from seed to seed with the
  /// study's few rare misses, beyond any bound a cross-seed gate allows.
  bool in_result = true;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank quantile of `values` (sorted in place).
double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values->size())));
  return (*values)[std::min(values->size(), std::max<std::size_t>(rank, 1)) - 1];
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Raw per-epoch counts; epochs add up, and per-request metrics divide the
/// sums by the summed requests.
using Counts = std::map<std::string, double>;

Counts EpochCounts(const EpochResult& e) {
  Counts c;
  c["requests"] = static_cast<double>(e.requests);
  c["private_hits"] = static_cast<double>(e.private_hits);
  c["shared_hits"] = static_cast<double>(e.shared_hits);
  c["wall_ns"] = static_cast<double>(e.wall_ns);
  c["cpu_ns"] = static_cast<double>(e.cpu_ns);
  c["replay_thread_ns"] = static_cast<double>(e.replay_thread_ns);
  c["cache.l2_hits"] = static_cast<double>(e.cache.l2_hits);
  c["cache.demotions"] = static_cast<double>(e.cache.demotions);
  c["cache.evictions"] = static_cast<double>(e.cache.evictions);
  c["cache.admission_attempts"] = static_cast<double>(e.cache.admission_attempts);
  c["cache.admission_rejects"] = static_cast<double>(e.cache.admission_rejects);
  c["cache.encode_ns"] = static_cast<double>(e.cache.encode_ns);
  c["cache.decode_ns"] = static_cast<double>(e.cache.decode_ns);
  c["cache.bytes_resident"] = static_cast<double>(e.cache.bytes_resident);
  c["prefetch.fills_issued"] = static_cast<double>(e.prefetch.fills_issued);
  c["prefetch.merged"] = static_cast<double>(e.prefetch.merged_predictions);
  c["prefetch.dedup_saved"] = static_cast<double>(e.prefetch.dedup_saved_fetches);
  c["prefetch.stale_drops"] = static_cast<double>(e.prefetch.stale_drops);
  c["prefetch.published"] = static_cast<double>(e.prefetch.predictions_published);
  c["prefetch.ledger_fills"] = static_cast<double>(e.prefetch_fills);
  c["prefetch.useful"] = static_cast<double>(e.prefetch_useful);
  c["stream.chunks_pushed"] = static_cast<double>(e.stream.chunks_pushed);
  c["stream.bytes_pushed"] = static_cast<double>(e.stream.bytes_pushed);
  c["stream.enqueued"] = static_cast<double>(e.stream.chunks_enqueued);
  c["stream.dropped"] = static_cast<double>(e.stream.stale_chunks_dropped +
                                            e.stream.expired_chunks_dropped);
  c["stream.budget_stalls"] = static_cast<double>(e.stream.budget_stalls);
  c["store.queries"] = static_cast<double>(e.store_queries);
  c["store.chunk_scans"] = static_cast<double>(e.store_chunk_scans);
  c["store.syscalls"] = static_cast<double>(e.store_syscalls);
  c["store.bytes_read"] = static_cast<double>(e.store_bytes_read);
  c["store.calls"] = static_cast<double>(e.store_calls);
  c["store.tiles"] = static_cast<double>(e.store_tiles);
  c["store.errors"] = static_cast<double>(e.store_errors);
  c["predict.calls"] = static_cast<double>(e.predict_calls);
  return c;
}

/// Served-request quality of a set of epochs.
struct Served {
  std::uint64_t served = 0;  ///< Requests that returned a tile.
  std::uint64_t hits = 0;
  std::uint64_t exact = 0;
  std::vector<double> sim_ms;

  void Add(const EpochResult& epoch, std::uint64_t exact_tiles) {
    for (const auto& record : epoch.served) {
      if (record.tile == nullptr) continue;
      ++served;
      hits += record.cache_hit ? 1 : 0;
      sim_ms.push_back(record.sim_latency_ms);
    }
    exact += exact_tiles;
  }
};

/// Timing of one epoch.
struct EpochTiming {
  std::size_t plan = 0;
  double requests = 0.0;
  double wall_ns = 0.0;
  double cpu_ns = 0.0;
  std::vector<double> serve_us;  ///< Per request.
};

/// What one sequence of epochs (untraced or traced) adds up to. Epoch i
/// replays plan i % plans.size(); the first plans.size() epochs — one
/// replay of every plan, the "cycle" — always run, and every figure that
/// must repeat exactly for a seed is taken over the cycle alone.
struct RunTotals {
  std::size_t epochs = 0;
  Counts all;    ///< Every epoch.
  Counts cycle;  ///< The first cycle.
  Served all_served;
  Served cycle_served;
  std::uint64_t failed_requests = 0;
  std::uint64_t failed_checks = 0;
  std::uint64_t max_queue_depth = 0;  ///< Over the cycle.
  std::vector<double> stack_s;
  std::vector<EpochTiming> timings;  ///< Every epoch, in order.
  std::vector<std::uint64_t> fingerprints;  ///< Per plan, first replay.
  EpochResult first;  ///< Kept whole for the codec probe.
  std::vector<std::string> failures;
};

/// Moves the calling thread from CPU to CPU. On a shared machine another
/// tenant can slow one CPU by half for seconds at a time while the others
/// run at full speed; a thread left where the scheduler put it would carry
/// that CPU's luck through a whole run. Restores the original mask.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() { Restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the slot-th allowed CPU (round robin).
  void Pin(std::size_t slot) {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[slot % cpus_.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
  }

  /// Lets the thread run anywhere it could before (threads it starts
  /// afterwards inherit that mask, not a pinned one).
  void Restore() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
};

/// Runs epochs until the timed replay time reaches `budget_s` and at least
/// one cycle has run, checking each epoch outside the timed window. The
/// single-threaded workloads run each cycle on the next CPU, so every plan
/// is replayed on several CPUs and its fastest replay finds a quiet one.
void RunEpochs(ReplayContext ctx, const std::vector<WorkloadPlan>& plans,
               double budget_s, RunTotals* totals) {
  const auto& pyramid = *ctx.study->dataset.pyramid;
  const double bound = FidelityBound(ctx.kind);
  const bool pull_mode = ctx.kind != WorkloadKind::kDiskChurn;
  CpuRotation rotation;
  double timed_s = 0.0;
  while (timed_s < budget_s || totals->epochs < plans.size()) {
    const std::size_t plan = totals->epochs % plans.size();
    const bool in_cycle = totals->epochs < plans.size();
    ctx.plan = &plans[plan];
    if (pull_mode) rotation.Pin(totals->epochs / plans.size());
    EpochResult epoch = RunEpoch(ctx);
    // Hand the torn-down stack's free heap back to the OS, so peak RSS
    // reflects one stack at a time rather than how freed chunks happened
    // to scatter over the allocator's per-thread arenas.
    malloc_trim(0);
    // A stack that could not be built serves nothing; stop instead of
    // spinning on zero-length epochs.
    const bool broken = !epoch.errors.empty();
    std::uint64_t exact = 0;
    totals->failed_checks +=
        CheckEpoch(epoch, pyramid, bound, &exact, &totals->failures);
    const std::uint64_t fingerprint = Fingerprint(epoch);
    if (plan == totals->fingerprints.size()) {
      totals->fingerprints.push_back(fingerprint);
    } else if (pull_mode && fingerprint != totals->fingerprints[plan]) {
      // A pull-mode replay is deterministic: every replay of a plan must
      // serve exactly what its first replay did.
      ++totals->failed_checks;
      totals->failures.push_back("epoch " + std::to_string(totals->epochs + 1) +
                                 " served a different sequence than the first "
                                 "replay of its plan");
    }
    for (const auto& [name, value] : EpochCounts(epoch)) {
      totals->all[name] += value;
      if (in_cycle) totals->cycle[name] += value;
    }
    totals->all_served.Add(epoch, exact);
    if (in_cycle) {
      totals->cycle_served.Add(epoch, exact);
      totals->max_queue_depth = std::max<std::uint64_t>(
          totals->max_queue_depth, epoch.prefetch.max_queue_depth);
    }
    totals->failed_requests += epoch.failed;
    EpochTiming timing;
    timing.plan = plan;
    timing.requests = static_cast<double>(epoch.requests);
    timing.wall_ns = static_cast<double>(epoch.wall_ns);
    timing.cpu_ns = static_cast<double>(epoch.cpu_ns);
    for (const auto& record : epoch.served) {
      timing.serve_us.push_back(static_cast<double>(record.serve_ns) / 1e3);
    }
    totals->timings.push_back(std::move(timing));
    totals->stack_s.push_back(static_cast<double>(epoch.stack_ns) / 1e9);
    timed_s += static_cast<double>(epoch.wall_ns) / 1e9;
    if (totals->epochs == 0) totals->first = std::move(epoch);
    ++totals->epochs;
    if (broken) break;
  }
}

/// The fastest replay (least wall time) of every plan. Timing metrics are
/// taken over these: host interference only ever slows an epoch down, and
/// on a shared machine it comes in bursts that a whole epoch can fall into.
std::vector<const EpochTiming*> FastestReplays(const std::vector<EpochTiming>& timings) {
  std::vector<const EpochTiming*> best;
  for (const auto& timing : timings) {
    if (timing.plan >= best.size()) best.resize(timing.plan + 1, nullptr);
    const EpochTiming*& slot = best[timing.plan];
    if (slot == nullptr || timing.wall_ns < slot->wall_ns) slot = &timing;
  }
  return best;
}

/// Hit rate, exact rate, and simulated latency of `served`.
struct ServeQuality {
  double hit_rate = 0.0;
  double exact_rate = 0.0;
  double sim_mean_ms = 0.0;
  double sim_p99_ms = 0.0;
};

ServeQuality Quality(Served served) {
  ServeQuality q;
  double sum = 0.0;
  for (double v : served.sim_ms) sum += v;
  const auto n = static_cast<double>(served.served);
  q.hit_rate = Ratio(static_cast<double>(served.hits), n);
  q.exact_rate = Ratio(static_cast<double>(served.exact), n);
  q.sim_mean_ms = Ratio(sum, n);
  q.sim_p99_ms = Quantile(&served.sim_ms, 0.99);
  return q;
}

struct CodecProbe {
  double encode_us = 0.0;
  double encode_progressive_us = 0.0;
  double decode_us = 0.0;
  double reassemble_us = 0.0;
  double compression_ratio = 0.0;
};

/// Times the codec on (up to 32 of) the distinct tiles the first epoch
/// served: the shared cache's L2 encoding (encode, decode) and the stream's
/// progressive pair (encode, reassemble). Median of five passes, per tile.
/// Decoded tiles must be within the quantization bound and reassembled
/// tiles bit-identical, else a check fails.
CodecProbe RunCodecProbe(const EpochResult& epoch,
                         const fc::tiles::TilePyramid& pyramid,
                         std::uint64_t* failed_checks,
                         std::vector<std::string>* failures) {
  constexpr std::size_t kMaxTiles = 32;
  constexpr int kPasses = 5;
  std::set<fc::tiles::TileKey> keys;
  for (const auto& record : epoch.served) keys.insert(record.expected);
  std::vector<fc::tiles::TilePtr> tiles;
  for (const auto& key : keys) {
    if (tiles.size() == kMaxTiles) break;
    if (auto tile = pyramid.GetTile(key); tile.ok()) tiles.push_back(*tile);
  }
  CodecProbe probe;
  if (tiles.empty()) return probe;

  const fc::storage::TileCodecOptions l2_options =
      fc::core::SharedTileCacheOptions{}.codec;
  const fc::storage::TileCodec l2_codec(l2_options);
  const fc::storage::TileCodec stream_codec(StreamCodecOptions());

  std::vector<std::string> blobs(tiles.size());
  std::vector<fc::storage::ProgressiveEncoding> pairs(tiles.size());
  std::vector<fc::tiles::Tile> decoded(tiles.size());
  std::vector<fc::tiles::Tile> reassembled(tiles.size());
  std::vector<double> encode, progressive, decode, reassemble;
  const double n = static_cast<double>(tiles.size());
  auto timed = [&](auto&& body) {
    ScopedSpan span(Layer::kCodec);
    const std::int64_t start = NowNs();
    body();
    return static_cast<double>(NowNs() - start) / 1e3 / n;
  };
  bool decode_ok = true;
  for (int pass = 0; pass < kPasses; ++pass) {
    encode.push_back(timed([&] {
      for (std::size_t i = 0; i < tiles.size(); ++i) blobs[i] = l2_codec.Encode(*tiles[i]);
    }));
    progressive.push_back(timed([&] {
      for (std::size_t i = 0; i < tiles.size(); ++i) {
        pairs[i] = stream_codec.EncodeProgressive(*tiles[i]);
      }
    }));
    decode.push_back(timed([&] {
      for (std::size_t i = 0; i < tiles.size(); ++i) {
        auto tile = fc::storage::TileCodec::Decode(blobs[i]);
        if (tile.ok()) decoded[i] = std::move(*tile); else decode_ok = false;
      }
    }));
    reassemble.push_back(timed([&] {
      for (std::size_t i = 0; i < tiles.size(); ++i) {
        auto tile = fc::storage::TileCodec::Reassemble(pairs[i].base, pairs[i].refinement);
        if (tile.ok()) reassembled[i] = std::move(*tile); else decode_ok = false;
      }
    }));
  }

  double raw_bytes = 0.0, blob_bytes = 0.0;
  const double limit = l2_codec.MaxAbsError() * (1.0 + 1e-9);
  for (std::size_t i = 0; decode_ok && i < tiles.size(); ++i) {
    raw_bytes += static_cast<double>(tiles[i]->SizeBytes());
    blob_bytes += static_cast<double>(blobs[i].size());
    for (std::size_t a = 0; a < tiles[i]->num_attrs(); ++a) {
      const auto& want = tiles[i]->AttrData(a);
      const auto& lossy = decoded[i].AttrData(a);
      const auto& exact = reassembled[i].AttrData(a);
      if (exact != want) decode_ok = false;
      for (std::size_t c = 0; decode_ok && c < want.size(); ++c) {
        if (!(std::fabs(lossy[c] - want[c]) <= limit)) decode_ok = false;
      }
    }
  }
  if (!decode_ok) {
    ++*failed_checks;
    failures->push_back("codec probe: a decode or reassembly failed its check");
  }
  probe.encode_us = Median(encode);
  probe.encode_progressive_us = Median(progressive);
  probe.decode_us = Median(decode);
  probe.reassemble_us = Median(reassemble);
  probe.compression_ratio = Ratio(raw_bytes, blob_bytes);
  return probe;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct SetupTimes {
  std::vector<double> study_s, train_s, store_s, total_s;
};

int Main(int argc, char** argv) {
  const std::int64_t process_start = NowNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: forecache_perfbench --workload push64|paper_sync|"
                 "disk_churn --seed N --seconds S --trace 0|1 [--scratch DIR] "
                 "[--setup-reps N]\n";
    return 2;
  }
  fc::SetLogLevel(fc::LogLevel::kError);
  SetReplayThread(true);
  const char* workload = WorkloadName(args.kind);
  std::filesystem::create_directories(args.scratch);

  // ---- Set-up, repeated; the last repetition's artifacts are replayed.
  // Earlier repetitions are released before the next one is built, so at
  // most one study is ever resident and peak RSS measures one study plus
  // the serving stack, whatever --setup-reps is.
  SetupTimes setup;
  std::unique_ptr<fc::sim::Study> study;
  TrainedModels models;
  std::vector<WorkloadPlan> plans;
  std::string disk_dir;
  // Each repetition runs on the next CPU, so the median does not rest on
  // one CPU's neighbours (see CpuRotation).
  CpuRotation setup_rotation;
  for (int rep = 0; rep < args.setup_reps; ++rep) {
    setup_rotation.Pin(static_cast<std::size_t>(rep));
    const std::int64_t t0 = rep == 0 ? process_start : NowNs();
    auto built = BuildStudy(args.seed);
    if (!built.ok()) {
      std::cerr << "ERROR: study build failed: " << built.status() << "\n";
      return 1;
    }
    const std::int64_t t1 = NowNs();
    auto trained = TrainModels(*built);
    if (!trained.ok()) {
      std::cerr << "ERROR: training failed: " << trained.status() << "\n";
      return 1;
    }
    std::vector<WorkloadPlan> rep_plans;
    for (std::size_t i = 0; i < PlansPerCycle(args.kind); ++i) {
      rep_plans.push_back(MakePlan(args.kind, *built, args.seed, i));
    }
    const std::int64_t t2 = NowNs();
    std::string rep_dir;
    if (args.kind == WorkloadKind::kDiskChurn) {
      rep_dir = args.scratch + "/tiles_" + std::to_string(getpid()) + "_" +
                std::to_string(rep);
      std::filesystem::remove_all(rep_dir);
      auto packer = fc::storage::DiskTileStore::Open(rep_dir, built->dataset.pyramid->spec());
      if (!packer.ok() || !(*packer)->SavePyramid(*built->dataset.pyramid).ok()) {
        std::cerr << "ERROR: packing the pyramid into " << rep_dir << " failed\n";
        return 1;
      }
    }
    const std::int64_t t3 = NowNs();
    setup.study_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    setup.train_s.push_back(static_cast<double>(t2 - t1) / 1e9);
    setup.store_s.push_back(static_cast<double>(t3 - t2) / 1e9);
    setup.total_s.push_back(static_cast<double>(t3 - t0) / 1e9);
    if (rep + 1 == args.setup_reps) {
      study = std::make_unique<fc::sim::Study>(std::move(built).value());
      models = std::move(trained).value();
      plans = std::move(rep_plans);
      disk_dir = rep_dir;
    } else if (!rep_dir.empty()) {
      std::filesystem::remove_all(rep_dir);
    }
  }

  setup_rotation.Restore();

  ReplayContext ctx;
  ctx.kind = args.kind;
  ctx.study = study.get();
  ctx.models = &models;
  ctx.disk_dir = disk_dir;
  const bool pull_mode = args.kind != WorkloadKind::kDiskChurn;

  // ---- Untraced run (end-to-end metrics), then the traced run.
  RunTotals untraced;
  RunEpochs(ctx, plans, args.trace ? args.seconds / 2.0 : args.seconds, &untraced);
  RunTotals traced;
  LayerTotals spans;
  CodecProbe codec;
  std::uint64_t probe_failures = 0;
  std::vector<std::string> probe_failure_lines;
  if (args.trace) {
    ClearSpans();
    SetRecording(true);
    ctx.traced = true;
    RunEpochs(ctx, plans, args.seconds / 2.0, &traced);
    codec = RunCodecProbe(traced.first, *study->dataset.pyramid, &probe_failures,
                          &probe_failure_lines);
    SetRecording(false);
    spans = SummarizeSpans();
    // The decorators must not change what a pull-mode replay serves.
    if (pull_mode && traced.fingerprints != untraced.fingerprints) {
      ++probe_failures;
      probe_failure_lines.push_back("traced replay served a different sequence "
                                    "than the untraced one");
    }
    const std::string span_path = args.scratch + "/spans_" + workload + ".csv";
    if (!WriteSpansCsv(span_path)) {
      std::cerr << "warning: could not write " << span_path << "\n";
    }
  }
  if (!disk_dir.empty()) std::filesystem::remove_all(disk_dir);

  // ---- Correctness summary.
  const std::uint64_t attempted =
      static_cast<std::uint64_t>(untraced.all["requests"] + traced.all["requests"]);
  const std::uint64_t failed = untraced.failed_requests + traced.failed_requests +
                               untraced.failed_checks + traced.failed_checks +
                               probe_failures;
  const bool correct = failed == 0 && attempted > 0;
  std::vector<std::string> failures = untraced.failures;
  failures.insert(failures.end(), traced.failures.begin(), traced.failures.end());
  failures.insert(failures.end(), probe_failure_lines.begin(), probe_failure_lines.end());

  // ---- Metrics.
  const double stack_s = Median(untraced.stack_s);
  std::vector<double> setup_total;
  for (double s : setup.total_s) setup_total.push_back(s + stack_s);

  std::vector<Metric> metrics;
  std::size_t serve_samples = 0;
  if (!args.trace) {
    // Deterministic on the pull-mode workloads: taken over one cycle so
    // they repeat exactly for a seed.
    const ServeQuality q =
        Quality(pull_mode ? untraced.cycle_served : untraced.all_served);
    const std::vector<const EpochTiming*> best = FastestReplays(untraced.timings);
    double requests = 0.0, wall_ns = 0.0, cpu_ns = 0.0;
    std::vector<double> serve;
    for (const EpochTiming* timing : best) {
      requests += timing->requests;
      wall_ns += timing->wall_ns;
      cpu_ns += timing->cpu_ns;
      serve.insert(serve.end(), timing->serve_us.begin(), timing->serve_us.end());
    }
    serve_samples = serve.size();
    metrics = {
        {"req_per_s", Ratio(requests, wall_ns / 1e9), "req/s"},
        {"cpu_us_per_req", Ratio(cpu_ns / 1e3, requests), "us"},
        {"serve_us_p50", Quantile(&serve, 0.50), "us"},
        {"serve_us_p99", Quantile(&serve, 0.99), "us"},
        {"hit_rate", q.hit_rate, "fraction"},
        {"exact_rate", q.exact_rate, "fraction", false},
        {"sim_latency_ms_mean", q.sim_mean_ms, "ms", false},
        {"sim_latency_ms_p99", q.sim_p99_ms, "ms", false},
        {"setup_s", Median(setup_total), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    // Counts come from one cycle of the traced run, so they repeat exactly
    // for a seed on the pull-mode workloads; times from every traced epoch.
    const Counts& t = traced.cycle;
    const Counts& t_all = traced.all;
    const double req = t.at("requests");
    const double all_req = t_all.at("requests");
    auto per_req_us = [&](Layer layer, bool self) {
      return Ratio(static_cast<double>(self ? spans.Self(layer) : spans.Total(layer)) / 1e3,
                   all_req);
    };
    auto per_req = [&](const char* key) { return Ratio(t.at(key), req); };
    const bool has_scheduler = t.at("prefetch.published") > 0.0;
    const double fills = has_scheduler ? t.at("prefetch.fills_issued")
                                       : t.at("prefetch.ledger_fills");
    // Tracing overhead: CPU of the fastest traced replay of every plan
    // over that of the fastest untraced one (both runs replay every plan).
    double untraced_cpu = 0.0, traced_cpu = 0.0;
    for (const EpochTiming* timing : FastestReplays(untraced.timings)) {
      untraced_cpu += timing->cpu_ns;
    }
    for (const EpochTiming* timing : FastestReplays(traced.timings)) {
      traced_cpu += timing->cpu_ns;
    }
    metrics = {
        {"server.apply_us_per_req", per_req_us(Layer::kApply, false), "us"},
        {"server.self_us_per_req", per_req_us(Layer::kApply, true), "us"},
        {"session.wait_us_per_req", per_req_us(Layer::kWait, false), "us"},
        {"predict.ab_us_per_req", per_req_us(Layer::kRecommendAb, false), "us"},
        {"predict.sb_us_per_req", per_req_us(Layer::kRecommendSb, false), "us"},
        {"predict.calls_per_req", per_req("predict.calls"), "count"},
        {"cache.private_hit_rate", per_req("private_hits"), "fraction"},
        {"cache.shared_hit_rate", per_req("shared_hits"), "fraction"},
        {"cache.l2_hits_per_req", per_req("cache.l2_hits"), "count"},
        {"cache.demotions_per_req", per_req("cache.demotions"), "count"},
        {"cache.evictions_per_req", per_req("cache.evictions"), "count"},
        {"cache.admission_reject_rate",
         Ratio(t.at("cache.admission_rejects"), t.at("cache.admission_attempts")), "fraction"},
        {"cache.encode_us_per_req", Ratio(t_all.at("cache.encode_ns") / 1e3, all_req), "us"},
        {"cache.decode_us_per_req", Ratio(t_all.at("cache.decode_ns") / 1e3, all_req), "us"},
        {"cache.bytes_resident_mb",
         Ratio(t.at("cache.bytes_resident"), static_cast<double>(plans.size())) / 1048576.0, "MB"},
        {"prefetch.drain_us_per_req", per_req_us(Layer::kDrain, false), "us"},
        {"prefetch.drain_self_us_per_req", per_req_us(Layer::kDrain, true), "us"},
        {"prefetch.fills_per_req", Ratio(fills, req), "count"},
        {"prefetch.merged_per_req", per_req("prefetch.merged"), "count"},
        {"prefetch.dedup_saved_per_req", per_req("prefetch.dedup_saved"), "count"},
        {"prefetch.stale_drop_rate",
         Ratio(t.at("prefetch.stale_drops"), t.at("prefetch.published")), "fraction"},
        {"prefetch.useful_ratio",
         Ratio(t.at("prefetch.useful"), t.at("prefetch.ledger_fills")), "fraction"},
        {"prefetch.max_queue_depth", static_cast<double>(traced.max_queue_depth), "count"},
        {"stream.pump_us_per_req", per_req_us(Layer::kPump, false), "us"},
        {"stream.chunks_per_req", per_req("stream.chunks_pushed"), "count"},
        {"stream.bytes_per_req", per_req("stream.bytes_pushed"), "bytes"},
        {"stream.drop_rate", Ratio(t.at("stream.dropped"), t.at("stream.enqueued")), "fraction"},
        {"stream.budget_stalls", t.at("stream.budget_stalls"), "count"},
        {"store.us_per_req", per_req_us(Layer::kStore, false), "us"},
        {"store.calls_per_req", per_req("store.calls"), "count"},
        {"store.tiles_per_call", Ratio(t.at("store.tiles"), t.at("store.calls")), "count"},
        {"store.queries_per_req", per_req("store.queries"), "count"},
        {"store.chunk_scans_per_req", per_req("store.chunk_scans"), "count"},
        {"store.syscalls_per_req", per_req("store.syscalls"), "count"},
        {"store.bytes_read_per_req", per_req("store.bytes_read"), "bytes"},
        {"store.error_rate", Ratio(t.at("store.errors"), t.at("store.tiles")), "fraction"},
        {"codec.encode_us_per_tile", codec.encode_us, "us"},
        {"codec.encode_progressive_us_per_tile", codec.encode_progressive_us, "us"},
        {"codec.decode_us_per_tile", codec.decode_us, "us"},
        {"codec.reassemble_us_per_tile", codec.reassemble_us, "us"},
        {"codec.compression_ratio", codec.compression_ratio, "ratio"},
        {"threads.cpu_per_wall", Ratio(t_all.at("cpu_ns"), t_all.at("wall_ns")), "ratio"},
        {"setup.study_s", Median(setup.study_s), "s"},
        {"setup.train_s", Median(setup.train_s), "s"},
        {"setup.store_s", Median(setup.store_s), "s"},
        {"setup.stack_s", stack_s, "s"},
        {"ledger.coverage",
         Ratio(static_cast<double>(spans.replay_self_ns), t_all.at("replay_thread_ns")), "fraction"},
        {"trace.overhead_pct", 100.0 * (Ratio(traced_cpu, untraced_cpu) - 1.0), "%"},
        {"trace.spans_per_req", Ratio(static_cast<double>(spans.spans), all_req), "ratio"},
    };
  }

  // ---- Report: human-readable lines, then the JSON result line.
  std::cout << std::setprecision(10);
  std::cout << "workload " << workload << " seed " << args.seed << " trace "
            << (args.trace ? 1 : 0) << "\n";
  std::uint64_t requests = 0, dropped = 0, fingerprint = 0;
  std::size_t working_set = 0;
  for (const auto& plan : plans) {
    requests += plan.requests;
    dropped += plan.dropped_moves;
    working_set = std::max(working_set, plan.distinct_tiles);
  }
  for (std::uint64_t f : untraced.fingerprints) fingerprint = fingerprint * 1099511628211ull ^ f;
  std::cout << "  plans = " << plans.size() << " x " << plans[0].sessions.size()
            << " sessions, requests per cycle = " << requests
            << ", moves dropped at generation = " << dropped
            << ", largest working set = " << working_set << " tiles of "
            << study->dataset.pyramid->tile_count() << "\n";
  std::cout << "  epochs = " << untraced.epochs << " untraced, " << traced.epochs
            << " traced; serve samples = " << serve_samples << "\n";
  std::cout << "  error_rate = "
            << Ratio(static_cast<double>(failed), static_cast<double>(attempted))
            << " fraction\n";
  std::cout << "  fingerprint = " << fingerprint << "\n";
  for (const auto& metric : metrics) {
    std::cout << "  " << metric.name << " = " << metric.value << " " << metric.unit << "\n";
  }
  for (const auto& failure : failures) std::cout << "  FAILED: " << failure << "\n";

  auto metrics_json = fc::JsonValue::Object();
  for (const auto& metric : metrics) {
    if (!metric.in_result) continue;
    auto entry = fc::JsonValue::Object();
    entry.Set("value", metric.value);
    entry.Set("unit", metric.unit);
    metrics_json.Set(metric.name, std::move(entry));
  }
  auto result = fc::JsonValue::Object();
  result.Set("correct", correct);
  result.Set("attempted", attempted);
  result.Set("failed", failed);
  result.Set("metrics", std::move(metrics_json));
  std::cout << result.Dump(0) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
