#include "core/cache_manager.h"

namespace fc::core {

CacheManager::CacheManager(storage::TileStore* store, CacheManagerOptions options,
                           SharedTileCache* shared)
    : store_(store),
      options_(options),
      shared_(shared),
      history_(options.history_bytes),
      prefetch_(options.prefetch_bytes) {}

Result<FetchOutcome> CacheManager::Request(const tiles::TileKey& key) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  FetchOutcome outcome;

  {
    std::lock_guard<std::mutex> lock(mu_);
    auto from_history = history_.Get(key);
    if (from_history.ok()) {
      outcome.tile = *from_history;
      outcome.cache_hit = true;
      private_hits_.fetch_add(1, std::memory_order_relaxed);
      return outcome;
    }
    auto from_prefetch = prefetch_.Get(key);
    if (from_prefetch.ok()) {
      outcome.tile = *from_prefetch;
      outcome.cache_hit = true;
      private_hits_.fetch_add(1, std::memory_order_relaxed);
      // Promote into the history region: the user actually viewed it.
      history_.Put(key, outcome.tile);
      return outcome;
    }
  }

  // Both private regions missed. Probe the shared cache — a hit there is
  // still middleware memory (another session fetched it for us).
  if (shared_ != nullptr) {
    if (auto tile = shared_->Lookup(key, {options_.session_id})) {
      outcome.tile = std::move(tile);
      outcome.cache_hit = true;
      outcome.shared_hit = true;
      shared_hits_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mu_);
      history_.Put(key, outcome.tile);
      return outcome;
    }
  }

  // Full miss: fetch outside the region lock (the DBMS query is slow) and
  // publish the tile for other sessions. The shared cache was already
  // probed above, so fetch the store directly rather than through
  // GetOrFetch (which would re-probe and double-count the miss).
  FC_ASSIGN_OR_RETURN(outcome.tile, store_->Fetch(key));
  if (shared_ != nullptr) {
    shared_->Insert(key, outcome.tile, {options_.session_id});
  }
  outcome.cache_hit = false;
  std::lock_guard<std::mutex> lock(mu_);
  history_.Put(key, outcome.tile);
  return outcome;
}

std::vector<PrefetchCandidate> CacheManager::BeginPrefetch(
    const std::vector<tiles::TileKey>& predictions,
    const std::vector<double>& confidences, std::uint64_t generation) {
  std::vector<PrefetchCandidate> plan;
  plan.reserve(predictions.size());
  std::lock_guard<std::mutex> lock(mu_);
  prefetch_.Clear();
  fill_generation_ = generation;
  fill_open_ = true;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    const tiles::TileKey& key = predictions[i];
    // Already resident where the user can hit it: nothing to schedule.
    if (history_.Contains(key)) continue;
    bool duplicate = false;
    for (const auto& candidate : plan) {
      if (candidate.key == key) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    plan.push_back(
        PrefetchCandidate{key, i < confidences.size() ? confidences[i] : 0.0});
  }
  return plan;
}

bool CacheManager::AcceptPrefetched(const tiles::TileKey& key,
                                    const tiles::TilePtr& tile,
                                    std::uint64_t generation) {
  if (tile == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  // A delivery for a superseded fill must not pollute the re-planned
  // region (its successor's BeginPrefetch has already cleared it).
  if (!fill_open_ || generation != fill_generation_) return false;
  // Deliveries arrive in priority order: once the region is full, the
  // tiles it holds outrank every new key, so the new key is turned away
  // instead of evicting one of them.
  if (prefetch_.size() > 0 && !prefetch_.Contains(key) &&
      prefetch_.bytes_resident() + tile->SizeBytes() > prefetch_.max_bytes()) {
    return false;
  }
  prefetch_.Put(key, tile);
  return true;
}

void CacheManager::AbortPrefetch() {
  std::lock_guard<std::mutex> lock(mu_);
  fill_open_ = false;
}

bool CacheManager::Cached(const tiles::TileKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_.Contains(key) || prefetch_.Contains(key);
}

void CacheManager::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  history_.Clear();
  prefetch_.Clear();
  fill_open_ = false;  // stragglers from a pre-Clear fill are rejected
}

double CacheManager::HitRate() const {
  auto requests = requests_.load(std::memory_order_relaxed);
  return requests == 0 ? 0.0
                       : static_cast<double>(cache_hits()) /
                             static_cast<double>(requests);
}

double CacheManager::PrivateHitRate() const {
  auto requests = requests_.load(std::memory_order_relaxed);
  return requests == 0 ? 0.0
                       : static_cast<double>(private_hits()) /
                             static_cast<double>(requests);
}

}  // namespace fc::core
