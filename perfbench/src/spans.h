// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around calls into each
// layer's public functions (BrowserSession::ApplyMove, Recommender::
// Recommend, TileStore::Fetch/FetchBatch, PrefetchScheduler::DrainOne,
// StreamScheduler::Pump, the codec probe) — nothing inside the program under
// test is instrumented. Each thread appends to its own buffer, so recording
// takes no lock; buffers are merged only after the replay has ended.
//
// When recording is off (the untraced run) a ScopedSpan reads one relaxed
// atomic and does nothing else.

#ifndef FORECACHE_PERFBENCH_SPANS_H_
#define FORECACHE_PERFBENCH_SPANS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The layer a span's time is charged to. Self time of a span is its
/// duration minus the time its child spans cover.
enum class Layer : std::uint8_t {
  kApply,        ///< BrowserSession::ApplyMove / Open (server + session).
  kRecommendAb,  ///< AB recommender (Markov chain over moves).
  kRecommendSb,  ///< SB recommender (tile signatures).
  kStore,        ///< TileStore::Fetch / FetchBatch on the backend.
  kDrain,        ///< PrefetchScheduler::DrainOne (pull mode).
  kPump,         ///< StreamScheduler::Pump (pull mode).
  kWait,         ///< BrowserSession::WaitForPrefetch (closed-loop wait).
  kCodec,        ///< Codec probe, outside the replay.
  kCount,
};

const char* LayerName(Layer layer);

/// Who ran a span: the threads the replay loop itself runs on, or
/// background threads (executor workers) whose spans overlap replay waits.
enum class ThreadRole : std::uint8_t { kReplay, kBackground };

struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< Index in the same thread's buffer; -1 = root.
  std::uint32_t request = 0;  ///< Request id (0 = not inside a request).
  Layer layer = Layer::kApply;
  ThreadRole role = ThreadRole::kReplay;
};

/// Monotonic nanoseconds (steady_clock).
std::int64_t NowNs();

/// Turns recording on or off process-wide. Call only while no replay
/// thread is running.
void SetRecording(bool on);
bool Recording();

/// Marks the calling thread as a replay thread (default: background) and
/// sets the request id stamped on spans it opens from now on.
void SetReplayThread(bool replay);
void SetCurrentRequest(std::uint32_t request);

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t index_ = -1;  ///< -1 when recording was off at open.
};

/// Per-layer totals derived from recorded spans.
struct LayerTotals {
  std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> total_ns{};
  std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> self_ns{};
  /// Self time of replay-thread spans, summed over every layer except the
  /// codec probe: the ledger that must match the traced replay wall time.
  std::int64_t replay_self_ns = 0;
  std::uint64_t spans = 0;

  std::int64_t Total(Layer l) const { return total_ns[static_cast<std::size_t>(l)]; }
  std::int64_t Self(Layer l) const { return self_ns[static_cast<std::size_t>(l)]; }
};

/// Aggregates every span recorded so far (all threads).
LayerTotals SummarizeSpans();

/// Writes every recorded span as CSV (thread,index,parent,request,layer,
/// role,start_ns,end_ns). Returns false on I/O failure.
bool WriteSpansCsv(const std::string& path);

/// Drops every recorded span (buffers of exited threads included).
void ClearSpans();

}  // namespace perfbench

#endif  // FORECACHE_PERFBENCH_SPANS_H_
