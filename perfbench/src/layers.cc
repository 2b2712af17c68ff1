#include "layers.h"

namespace perfbench {
namespace {

thread_local std::optional<fc::tiles::TileKey> t_demand_key;

}  // namespace

void SetDemandKey(std::optional<fc::tiles::TileKey> key) { t_demand_key = key; }

void PrefetchLedger::NoteFill(const fc::tiles::TileKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  ++fills_;
  unused_.insert(key);
}

void PrefetchLedger::NoteHit(const fc::tiles::TileKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (unused_.erase(key) > 0) ++useful_;
}

void PrefetchLedger::NoteDemandFetch(const fc::tiles::TileKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  unused_.erase(key);
}

TracedStore::TracedStore(fc::storage::TileStore* inner, PrefetchLedger* ledger)
    : inner_(inner), ledger_(ledger) {}

void TracedStore::Classify(const fc::tiles::TileKey& key, bool ok) {
  if (!ok) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (t_demand_key.has_value() && *t_demand_key == key) {
    ledger_->NoteDemandFetch(key);
  } else {
    ledger_->NoteFill(key);
  }
}

fc::Result<fc::tiles::TilePtr> TracedStore::Fetch(const fc::tiles::TileKey& key) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  tiles_.fetch_add(1, std::memory_order_relaxed);
  fc::Result<fc::tiles::TilePtr> result = [&] {
    ScopedSpan span(Layer::kStore);
    return inner_->Fetch(key);
  }();
  Classify(key, result.ok());
  return result;
}

std::vector<fc::Result<fc::tiles::TilePtr>> TracedStore::FetchBatch(
    const std::vector<fc::tiles::TileKey>& keys) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  tiles_.fetch_add(keys.size(), std::memory_order_relaxed);
  std::vector<fc::Result<fc::tiles::TilePtr>> results = [&] {
    ScopedSpan span(Layer::kStore);
    return inner_->FetchBatch(keys);
  }();
  for (std::size_t i = 0; i < keys.size() && i < results.size(); ++i) {
    Classify(keys[i], results[i].ok());
  }
  return results;
}

}  // namespace perfbench
