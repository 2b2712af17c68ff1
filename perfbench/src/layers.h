// Layer decorators for the traced run. Each wraps a public interface of the
// program under test (storage::TileStore, core::Recommender) and records a
// span plus counts around every call, then forwards to the real component.
//
// The store decorator also classifies each fetched key as demand (the key
// the calling thread's current request asked for) or prefetch (anything
// else), which is how the benchmark measures how many prefetch fills later
// served a request.

#ifndef FORECACHE_PERFBENCH_LAYERS_H_
#define FORECACHE_PERFBENCH_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_set>
#include <vector>

#include "core/recommender.h"
#include "storage/tile_store.h"
#include "spans.h"

namespace perfbench {

/// The key the calling thread's in-progress request asked for; fetches of
/// it are demand fetches. Cleared between requests.
void SetDemandKey(std::optional<fc::tiles::TileKey> key);

/// Prefetched keys not yet used by a request. Thread-safe.
class PrefetchLedger {
 public:
  /// A prefetch fill of `key` completed.
  void NoteFill(const fc::tiles::TileKey& key);
  /// A request was served from middleware memory: if `key`'s latest fill
  /// has not served a request yet, it has now (counted once per fill).
  void NoteHit(const fc::tiles::TileKey& key);
  /// A request had to fetch `key` on demand: any earlier fill of it was
  /// gone before it could help.
  void NoteDemandFetch(const fc::tiles::TileKey& key);

  std::uint64_t fills() const { return fills_; }
  std::uint64_t useful() const { return useful_; }

 private:
  std::mutex mu_;
  std::unordered_set<fc::tiles::TileKey, fc::tiles::TileKeyHash> unused_;
  std::uint64_t fills_ = 0;   ///< Guarded by mu_.
  std::uint64_t useful_ = 0;  ///< Guarded by mu_.
};

/// TileStore decorator: one kStore span per Fetch/FetchBatch.
class TracedStore : public fc::storage::TileStore {
 public:
  /// `inner` and `ledger` must outlive the decorator.
  TracedStore(fc::storage::TileStore* inner, PrefetchLedger* ledger);

  fc::Result<fc::tiles::TilePtr> Fetch(const fc::tiles::TileKey& key) override;
  std::vector<fc::Result<fc::tiles::TilePtr>> FetchBatch(
      const std::vector<fc::tiles::TileKey>& keys) override;
  bool Contains(const fc::tiles::TileKey& key) const override {
    return inner_->Contains(key);
  }
  const fc::tiles::PyramidSpec& spec() const override { return inner_->spec(); }
  std::uint64_t fetch_count() const override { return inner_->fetch_count(); }
  std::uint64_t query_count() const override { return inner_->query_count(); }

  std::uint64_t calls() const { return calls_; }
  std::uint64_t tiles() const { return tiles_; }
  std::uint64_t errors() const { return errors_; }

 private:
  void Classify(const fc::tiles::TileKey& key, bool ok);

  fc::storage::TileStore* inner_;
  PrefetchLedger* ledger_;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> tiles_{0};
  std::atomic<std::uint64_t> errors_{0};
};

/// Recommender decorator: one span of `layer` per Recommend.
class TracedRecommender : public fc::core::Recommender {
 public:
  /// `inner` must outlive the decorator.
  TracedRecommender(const fc::core::Recommender* inner, Layer layer)
      : inner_(inner), layer_(layer) {}

  std::string_view name() const override { return inner_->name(); }
  fc::Result<fc::core::RankedTiles> Recommend(
      const fc::core::PredictionContext& ctx) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    ScopedSpan span(layer_);
    return inner_->Recommend(ctx);
  }

  std::uint64_t calls() const { return calls_; }

 private:
  const fc::core::Recommender* inner_;
  Layer layer_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

}  // namespace perfbench

#endif  // FORECACHE_PERFBENCH_LAYERS_H_
