#include "spans.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

struct ThreadBuffer {
  std::vector<SpanRecord> spans;
  std::vector<std::int32_t> open;  ///< Stack of open span indices.
};

std::atomic<bool> g_recording{false};

// Buffers outlive their threads (executor workers exit between epochs), so
// the registry owns them; a thread only caches a pointer to its own.
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& Registry() {
  static auto* registry = new std::vector<std::unique_ptr<ThreadBuffer>>();
  return *registry;
}

// A thread gets a buffer only when it first records a span, so untraced
// runs allocate none however many threads the epochs start.
thread_local ThreadBuffer* t_buffer = nullptr;
thread_local ThreadRole t_role = ThreadRole::kBackground;
thread_local std::uint32_t t_request = 0;

ThreadBuffer* Buffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->spans.reserve(1 << 14);
    std::lock_guard<std::mutex> lock(g_registry_mu);
    t_buffer = buffer.get();
    Registry().push_back(std::move(buffer));
  }
  return t_buffer;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kApply: return "apply";
    case Layer::kRecommendAb: return "recommend_ab";
    case Layer::kRecommendSb: return "recommend_sb";
    case Layer::kStore: return "store";
    case Layer::kDrain: return "drain";
    case Layer::kPump: return "pump";
    case Layer::kWait: return "wait";
    case Layer::kCodec: return "codec";
    case Layer::kCount: break;
  }
  return "?";
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetRecording(bool on) { g_recording.store(on, std::memory_order_relaxed); }
bool Recording() { return g_recording.load(std::memory_order_relaxed); }

void SetReplayThread(bool replay) {
  t_role = replay ? ThreadRole::kReplay : ThreadRole::kBackground;
}

void SetCurrentRequest(std::uint32_t request) { t_request = request; }

ScopedSpan::ScopedSpan(Layer layer) {
  if (!Recording()) return;
  ThreadBuffer* buffer = Buffer();
  index_ = static_cast<std::int32_t>(buffer->spans.size());
  SpanRecord record;
  record.parent = buffer->open.empty() ? -1 : buffer->open.back();
  record.request = t_request;
  record.layer = layer;
  record.role = t_role;
  buffer->spans.push_back(record);
  buffer->open.push_back(index_);
  // Stamp last so the bookkeeping above is not charged to the layer.
  buffer->spans.back().start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) return;
  const std::int64_t end = NowNs();
  ThreadBuffer* buffer = t_buffer;
  buffer->spans[static_cast<std::size_t>(index_)].end_ns = end;
  buffer->open.pop_back();
}

LayerTotals SummarizeSpans() {
  LayerTotals totals;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buffer : Registry()) {
    const auto& spans = buffer->spans;
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const auto& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& span = spans[i];
      const auto layer = static_cast<std::size_t>(span.layer);
      const std::int64_t duration = span.end_ns - span.start_ns;
      const std::int64_t self = duration - child_ns[i];
      totals.total_ns[layer] += duration;
      totals.self_ns[layer] += self;
      if (span.role == ThreadRole::kReplay && span.layer != Layer::kCodec) {
        totals.replay_self_ns += self;
      }
    }
    totals.spans += spans.size();
  }
  return totals;
}

bool WriteSpansCsv(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "thread,index,parent,request,layer,role,start_ns,end_ns\n";
  std::lock_guard<std::mutex> lock(g_registry_mu);
  const auto& registry = Registry();
  for (std::size_t t = 0; t < registry.size(); ++t) {
    const auto& spans = registry[t]->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      out << t << ',' << i << ',' << s.parent << ',' << s.request << ','
          << LayerName(s.layer) << ','
          << (s.role == ThreadRole::kReplay ? "replay" : "background") << ','
          << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
  return static_cast<bool>(out);
}

void ClearSpans() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (auto& buffer : Registry()) buffer->spans.clear();
}

}  // namespace perfbench
