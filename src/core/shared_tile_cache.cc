#include "core/shared_tile_cache.h"

#include <algorithm>
#include <chrono>

#include "common/rng.h"

namespace fc::core {

namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t CeilDiv(std::size_t x, std::size_t n) { return (x + n - 1) / n; }

}  // namespace

SharedTileCache::SharedTileCache(SharedTileCacheOptions options)
    : options_(options), codec_(options.codec) {
  if (options_.l1_bytes == 0) options_.l1_bytes = 1;
  if (options_.num_shards == 0) {
    // Auto stripe count: budgets are enforced strictly per shard, so more
    // stripes than the budget can feed leaves each shard an uncacheable
    // sliver. Cap stripes so every shard's L1 slice stays >= 4 MiB.
    constexpr std::size_t kAutoShardMinL1Bytes = 4ull << 20;
    std::size_t fed = options_.l1_bytes / kAutoShardMinL1Bytes;
    options_.num_shards = std::clamp<std::size_t>(fed, 1, 16);
  }
  // Ceil division: shard budgets sum to >= the global budget.
  shard_l1_bytes_ = CeilDiv(options_.l1_bytes, options_.num_shards);
  shard_l2_bytes_ =
      options_.l2_bytes == 0 ? 0 : CeilDiv(options_.l2_bytes, options_.num_shards);
  shard_quota_bytes_ =
      options_.session_quota_bytes == 0
          ? 0
          : CeilDiv(options_.session_quota_bytes, options_.num_shards);
  shards_.reserve(options_.num_shards);
  for (std::size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->admission = MakeAdmissionPolicy(options_.admission);
  }
}

std::uint64_t SharedTileCache::KeyHash(const tiles::TileKey& key) {
  return HashSeed(static_cast<std::uint64_t>(tiles::TileKeyHash()(key)));
}

SharedTileCache::Shard& SharedTileCache::ShardFor(const tiles::TileKey& key) {
  return *shards_[tiles::TileKeyHash()(key) % shards_.size()];
}

const SharedTileCache::Shard& SharedTileCache::ShardFor(
    const tiles::TileKey& key) const {
  return *shards_[tiles::TileKeyHash()(key) % shards_.size()];
}

void SharedTileCache::EvictFromL2(Shard& shard) {
  auto it = shard.l2.find(shard.l2_order.front());
  shard.l2_bytes -= it->second.blob->size();
  shard.l2.erase(it);
  shard.l2_order.pop_front();
  ++shard.counters.evictions;
}

void SharedTileCache::ChargeOwner(Shard& shard, const tiles::TileKey& key,
                                  L1Entry& entry) {
  if (entry.owner == 0) return;
  shard.session_l1_bytes[entry.owner] += entry.bytes;
  auto& order = shard.session_l1_order[entry.owner];
  entry.owner_order_it = order.insert(order.end(), key);
}

void SharedTileCache::DischargeOwner(Shard& shard, const L1Entry& entry) {
  if (entry.owner == 0) return;
  auto usage = shard.session_l1_bytes.find(entry.owner);
  if (usage != shard.session_l1_bytes.end()) {
    usage->second -= std::min(usage->second, entry.bytes);
    if (usage->second == 0) shard.session_l1_bytes.erase(usage);
  }
  auto order = shard.session_l1_order.find(entry.owner);
  if (order != shard.session_l1_order.end()) {
    order->second.erase(entry.owner_order_it);
    if (order->second.empty()) shard.session_l1_order.erase(order);
  }
}

void SharedTileCache::DetachFromL1(
    Shard& shard,
    std::unordered_map<tiles::TileKey, L1Entry, tiles::TileKeyHash>::iterator it,
    std::vector<PendingDemotion>* pending) {
  L1Entry& entry = it->second;
  shard.l1_bytes -= entry.bytes;
  DischargeOwner(shard, entry);
  shard.l1_order.erase(entry.order_it);
  pending->push_back(
      {it->first, std::move(entry.tile), entry.owner, std::move(entry.blob)});
  shard.l1.erase(it);
}

void SharedTileCache::CollectL1Overflow(Shard& shard,
                                        std::vector<PendingDemotion>* pending) {
  while (shard.l1_bytes > shard_l1_bytes_ && !shard.l1.empty()) {
    DetachFromL1(shard, shard.l1.find(shard.l1_order.front()), pending);
  }
}

void SharedTileCache::CollectQuotaOverflow(Shard& shard, std::uint64_t session,
                                           std::vector<PendingDemotion>* pending) {
  if (shard_quota_bytes_ == 0 || session == 0) return;
  auto over_quota = [&] {
    auto usage = shard.session_l1_bytes.find(session);
    return usage != shard.session_l1_bytes.end() &&
           usage->second > shard_quota_bytes_;
  };
  // Pop the session's own eviction queue — quota pressure never touches a
  // neighbor's residency, and victim selection costs O(victims).
  while (over_quota()) {
    auto order = shard.session_l1_order.find(session);
    if (order == shard.session_l1_order.end() || order->second.empty()) break;
    ++shard.counters.quota_evictions;
    DetachFromL1(shard, shard.l1.find(order->second.front()), pending);
  }
}

SharedTileCache::AdmitOutcome SharedTileCache::AdmitToL1(
    Shard& shard, const tiles::TileKey& key, tiles::TilePtr tile,
    const CacheAccess& access, bool bypass_filter, bool count_priority,
    std::vector<PendingDemotion>* pending) {
  const std::size_t bytes = tile->SizeBytes();
  if (bytes > shard_l1_bytes_) {
    // Larger than the whole shard budget: serve it, never cache it —
    // byte budgets are strict.
    return AdmitOutcome::kRejectedOversized;
  }
  const bool quota_active = shard_quota_bytes_ > 0 && access.session_id != 0;
  if (quota_active && bytes > shard_quota_bytes_) {
    // The session's whole share cannot hold it.
    return AdmitOutcome::kRejectedOversized;
  }
  if ((!bypass_filter || count_priority) &&
      shard.l1_bytes + bytes > shard_l1_bytes_) {
    // Admission would displace residents: ask the policy whether the
    // candidate is warmer than every prospective victim (front of the
    // eviction order, enough of them to free the candidate's bytes).
    // Quota enforcement runs first on an admit and displaces the
    // session's own oldest tiles, so simulate it here: those
    // self-victims free bytes but are not the filter's concern — it
    // protects residents from *other* sessions' cold traffic, and a
    // session over quota pays with its own tiles either way.
    std::size_t quota_excess = 0;
    if (quota_active) {
      auto usage = shard.session_l1_bytes.find(access.session_id);
      const std::size_t usage_bytes =
          usage == shard.session_l1_bytes.end() ? 0 : usage->second;
      if (usage_bytes + bytes > shard_quota_bytes_) {
        quota_excess = usage_bytes + bytes - shard_quota_bytes_;
      }
    }
    // Pass 1: the session's own oldest entries that quota eviction will
    // take (front of its per-owner queue), and the bytes they free.
    std::size_t quota_freed = 0;
    std::size_t own_consumed = 0;
    if (quota_excess > 0) {
      auto order = shard.session_l1_order.find(access.session_id);
      if (order != shard.session_l1_order.end()) {
        for (auto it = order->second.begin();
             it != order->second.end() && quota_excess > 0; ++it) {
          const L1Entry& entry = shard.l1.find(*it)->second;
          quota_freed += entry.bytes;
          quota_excess -= std::min(quota_excess, entry.bytes);
          ++own_consumed;
        }
      }
    }
    // Pass 2: with quota's freeing already banked, whatever overflow
    // remains comes off the LRU front — those are the filter's victims.
    // The per-owner queues mirror l1_order's relative order, so the first
    // own_consumed own entries met here are exactly pass 1's.
    std::vector<std::uint64_t> victims;
    std::size_t freed = quota_freed;
    for (auto it = shard.l1_order.begin();
         it != shard.l1_order.end() &&
         shard.l1_bytes - freed + bytes > shard_l1_bytes_;
         ++it) {
      const L1Entry& entry = shard.l1.find(*it)->second;
      if (own_consumed > 0 && entry.owner == access.session_id) {
        --own_consumed;  // already gone to quota eviction
        continue;
      }
      freed += entry.bytes;
      victims.push_back(KeyHash(*it));
    }
    if (!victims.empty()) {
      if (bypass_filter) {
        // The filter would have run against real foreign victims but was
        // overridden by prediction confidence: that is a priority admit.
        ++shard.counters.priority_admits;
      } else if (!shard.admission->ShouldAdmit(KeyHash(key), victims)) {
        return AdmitOutcome::kRejectedByFilter;
      }
    }
  }
  shard.l1_bytes += bytes;
  auto order_it = shard.l1_order.insert(shard.l1_order.end(), key);
  auto [entry_it, _] = shard.l1.emplace(
      key,
      L1Entry{std::move(tile), bytes, access.session_id, order_it, {}, {}});
  ChargeOwner(shard, key, entry_it->second);
  // Pop victims after inserting: the new entry is at the back of the order
  // and within budget (and quota) by itself, so it is never its own victim.
  CollectQuotaOverflow(shard, access.session_id, pending);
  CollectL1Overflow(shard, pending);
  return AdmitOutcome::kAdmitted;
}

void SharedTileCache::FinishDemotions(Shard& shard,
                                      std::vector<PendingDemotion> pending) {
  if (pending.empty()) return;
  if (shard_l2_bytes_ == 0) {
    // No warm tier: demotion is a true eviction, and nothing gets encoded.
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.counters.evictions += pending.size();
    return;
  }
  // Compress outside the lock — encoding is the expensive part of a
  // demotion and must not block concurrent lookups on the shard. A tile
  // promoted from L2 and not replaced since still holds the blob it was
  // decoded from: Encode would write those bytes again (see header notes).
  std::vector<std::shared_ptr<const std::string>> blobs;
  blobs.reserve(pending.size());
  std::uint64_t t0 = NowNs();
  for (const auto& demotion : pending) {
    blobs.push_back(demotion.blob != nullptr
                        ? demotion.blob
                        : std::make_shared<const std::string>(
                              codec_.Encode(*demotion.tile)));
  }
  std::uint64_t encode_ns = NowNs() - t0;

  std::lock_guard<std::mutex> lock(shard.mu);
  shard.counters.encode_ns += encode_ns;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const tiles::TileKey& key = pending[i].key;
    const std::size_t blob_bytes = blobs[i]->size();
    if (shard.l1.count(key) > 0 || shard.l2.count(key) > 0) {
      // Re-fetched while in limbo: the newer copy owns the residency (and
      // was counted as a fresh insertion), so this stale copy's departure
      // is an eviction.
      ++shard.counters.evictions;
      continue;
    }
    if (blob_bytes > shard_l2_bytes_) {
      // Oversized even alone: the tier cannot hold it.
      ++shard.counters.evictions;
      continue;
    }
    while (shard.l2_bytes + blob_bytes > shard_l2_bytes_ &&
           !shard.l2.empty()) {
      EvictFromL2(shard);
    }
    shard.l2_bytes += blob_bytes;
    auto order_it = shard.l2_order.insert(shard.l2_order.end(), key);
    L2Entry& entry =
        shard.l2.emplace(key, L2Entry{std::move(blobs[i]), pending[i].owner,
                                      order_it, {}})
            .first->second;
    ++shard.counters.demotions;
    if (pending[i].blob != nullptr) {
      // A retained blob: the tile is exactly Decode(blob), so a later
      // promotion may serve it while it lives. A fresh demotion's tile may
      // not be (lossy codec), and gets no pointer.
      entry.decoded = pending[i].tile;
      ++shard.counters.blob_reuses;
    }
  }
}

tiles::TilePtr SharedTileCache::Lookup(const tiles::TileKey& key,
                                       const CacheAccess& access) {
  Shard& shard = ShardFor(key);
  std::shared_ptr<const std::string> blob;
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    // Every lookup — hit or miss — feeds the frequency model the admission
    // filter judges candidates and victims by.
    shard.admission->RecordAccess(KeyHash(key));
    auto it = shard.l1.find(key);
    if (it != shard.l1.end()) {
      ++shard.counters.l1_hits;
      shard.l1_order.splice(shard.l1_order.end(), shard.l1_order,
                            it->second.order_it);
      if (it->second.owner != 0) {
        // Keep the owner queue's relative order in lockstep with l1_order
        // (the pass-1/pass-2 victim simulation relies on it).
        auto& order = shard.session_l1_order.find(it->second.owner)->second;
        order.splice(order.end(), order, it->second.owner_order_it);
      }
      return it->second.tile;
    }
    auto l2_it = shard.l2.find(key);
    if (l2_it == shard.l2.end()) {
      ++shard.counters.misses;
      return nullptr;
    }
    blob = l2_it->second.blob;
    if (auto live = l2_it->second.decoded.lock()) {
      // The tile this blob was decoded from is still alive: promote that
      // object, with no decode and no second lock round.
      ++shard.counters.tile_reuses;
      std::vector<PendingDemotion> pending;
      auto result = PromoteLocked(shard, key, std::move(live), std::move(blob),
                                  access, &pending);
      lock.unlock();
      FinishDemotions(shard, std::move(pending));
      return result;
    }
    // Warm hit: decode outside the lock. The entry stays in L2 until the
    // promotion lands, so concurrent lookups of this (hot) key keep
    // hitting the tier instead of falling through to the DBMS.
  }

  std::uint64_t t0 = NowNs();
  auto decoded = storage::TileCodec::Decode(*blob);
  std::uint64_t decode_ns = NowNs() - t0;
  // A checksum-guarded decode failure promotes nothing: the lookup misses.
  tiles::TilePtr tile =
      decoded.ok()
          ? std::make_shared<const tiles::Tile>(std::move(decoded).value())
          : nullptr;

  std::vector<PendingDemotion> pending;
  tiles::TilePtr result;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.counters.decode_ns += decode_ns;
    result = PromoteLocked(shard, key, std::move(tile), std::move(blob),
                           access, &pending);
  }
  FinishDemotions(shard, std::move(pending));
  return result;
}

tiles::TilePtr SharedTileCache::PromoteLocked(
    Shard& shard, const tiles::TileKey& key, tiles::TilePtr tile,
    std::shared_ptr<const std::string> blob, const CacheAccess& access,
    std::vector<PendingDemotion>* pending) {
  // Drop the L2 entry (all concurrent decoders of the same blob fail or
  // succeed alike, and a landed promotion supersedes it either way).
  auto l2_it = shard.l2.find(key);
  const bool was_in_l2 = l2_it != shard.l2.end();
  std::uint64_t l2_owner = 0;
  if (was_in_l2) {
    l2_owner = l2_it->second.owner;
    shard.l2_bytes -= l2_it->second.blob->size();
    shard.l2_order.erase(l2_it->second.order_it);
    shard.l2.erase(l2_it);
  }

  if (tile == nullptr) {
    // The decode failed its checksum: the tile is simply gone and the
    // caller falls back to the store.
    if (was_in_l2) ++shard.counters.evictions;
    ++shard.counters.misses;
    return nullptr;
  }
  ++shard.counters.l2_hits;

  auto it = shard.l1.find(key);
  if (it != shard.l1.end()) {
    // A concurrent promotion or insert landed first: the L1 copy owns the
    // residency, so the L2 copy's departure is an eviction.
    if (was_in_l2) ++shard.counters.evictions;
    return it->second.tile;
  }
  // Promote. The tile is warm by construction (it just hit L2), so the
  // frequency filter is bypassed; ownership survives the demote cycle, and
  // a vanished entry (evicted under pressure mid-decode, eviction already
  // counted) makes this a fresh admission by the accessor.
  CacheAccess promo{was_in_l2 ? l2_owner : access.session_id,
                    access.confidence};
  auto outcome = AdmitToL1(shard, key, tile, promo, /*bypass_filter=*/true,
                           /*count_priority=*/false, pending);
  if (outcome == AdmitOutcome::kAdmitted) {
    // The tile is Decode(blob): a re-demotion lands the blob again.
    shard.l1.find(key)->second.blob = std::move(blob);
    if (!was_in_l2) {
      ++shard.counters.admission_attempts;
      ++shard.counters.insertions;
    }
  } else if (was_in_l2) {
    // Too large to re-enter L1: served, but no longer resident.
    ++shard.counters.evictions;
  } else {
    ++shard.counters.admission_attempts;
    ++shard.counters.admission_rejects;
  }
  return tile;
}

void SharedTileCache::Insert(const tiles::TileKey& key, tiles::TilePtr tile,
                             const CacheAccess& access) {
  if (tile == nullptr) return;
  Shard& shard = ShardFor(key);
  std::vector<PendingDemotion> pending;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.l1.find(key);
    if (it != shard.l1.end()) {
      // Refresh in place, then re-enforce the budget and quota: the
      // replacement payload may be larger than the one it displaced, and
      // the refreshing session takes over the entry's quota charge.
      std::size_t bytes = tile->SizeBytes();
      L1Entry& entry = it->second;
      shard.l1_bytes = shard.l1_bytes - entry.bytes + bytes;
      if (entry.owner == access.session_id) {
        // Same owner: adjust the byte charge in place (both queues re-age
        // below).
        if (entry.owner != 0) {
          auto usage = shard.session_l1_bytes.find(entry.owner);
          usage->second = usage->second - entry.bytes + bytes;
        }
        entry.tile = std::move(tile);
        entry.bytes = bytes;
      } else {
        DischargeOwner(shard, entry);
        entry.owner = access.session_id;
        entry.tile = std::move(tile);
        entry.bytes = bytes;
        ChargeOwner(shard, key, entry);
      }
      // The new payload was not decoded from the retained blob.
      entry.blob = nullptr;
      shard.l1_order.splice(shard.l1_order.end(), shard.l1_order,
                            entry.order_it);
      if (entry.owner != 0) {
        auto& order = shard.session_l1_order.find(entry.owner)->second;
        order.splice(order.end(), order, entry.owner_order_it);
      }
      CollectQuotaOverflow(shard, access.session_id, &pending);
      CollectL1Overflow(shard, &pending);
    } else if (auto l2_it = shard.l2.find(key); l2_it != shard.l2.end()) {
      // Fresh payload supersedes the compressed copy; the key stays
      // resident (when it fits), so this is a refresh, not a new admission,
      // and — being warm — it skips the frequency filter.
      shard.l2_bytes -= l2_it->second.blob->size();
      shard.l2_order.erase(l2_it->second.order_it);
      shard.l2.erase(l2_it);
      if (AdmitToL1(shard, key, std::move(tile), access,
                    /*bypass_filter=*/true, /*count_priority=*/false,
                    &pending) != AdmitOutcome::kAdmitted) {
        ++shard.counters.evictions;
      }
    } else {
      // New tile: this is the admission decision the filter exists for.
      // High-confidence prefetch fills bypass it (priority admission —
      // counted inside AdmitToL1, and only when the filter would really
      // have judged foreign victims).
      const bool priority =
          access.confidence >= options_.admission.priority_confidence;
      const bool count_priority =
          priority &&
          options_.admission.policy != AdmissionPolicyKind::kAdmitAll;
      ++shard.counters.admission_attempts;
      auto outcome =
          AdmitToL1(shard, key, std::move(tile), access,
                    /*bypass_filter=*/priority, count_priority, &pending);
      if (outcome == AdmitOutcome::kAdmitted) {
        ++shard.counters.insertions;
      } else {
        ++shard.counters.admission_rejects;
      }
    }
  }
  FinishDemotions(shard, std::move(pending));
}

Result<tiles::TilePtr> SharedTileCache::GetOrFetch(const tiles::TileKey& key,
                                                   storage::TileStore* store,
                                                   const CacheAccess& access) {
  if (auto tile = Lookup(key, access)) return tile;
  FC_ASSIGN_OR_RETURN(auto tile, store->Fetch(key));
  Insert(key, tile, access);
  return tile;
}

std::vector<Result<SharedTileCache::SharedFetch>>
SharedTileCache::GetOrFetchSharedBatch(const std::vector<SharedBatchItem>& items,
                                       storage::TileStore* store) {
  std::vector<Result<SharedFetch>> out(
      items.size(), Result<SharedFetch>(Status::Internal("batch slot unset")));
  std::vector<CacheAccess> merged(items.size());
  std::vector<std::size_t> misses;  // indices into items
  for (std::size_t i = 0; i < items.size(); ++i) {
    const tiles::TileKey& key = items[i].key;
    const std::vector<CacheAccess>& subscribers = items[i].subscribers;
    double aggregate = 0.0;
    for (const auto& subscriber : subscribers) {
      aggregate += subscriber.confidence;
    }
    // The fill is anonymous (owner 0: a tile serving many sessions is
    // charged to no one's quota) and carries the aggregate confidence,
    // capped to the [0, 1] domain of a single access, for priority
    // admission.
    merged[i] = CacheAccess{0, std::min(1.0, aggregate)};
    if (subscribers.size() > 1) {
      Shard& shard = ShardFor(key);
      std::lock_guard<std::mutex> lock(shard.mu);
      // Lookup below records one access; each further subscriber's intent
      // is just as real, so the frequency model sees the full group — a
      // tile many sessions predict is warm by consensus before it ever
      // lands.
      for (std::size_t s = 1; s < subscribers.size(); ++s) {
        shard.admission->RecordAccess(KeyHash(key));
      }
    }
    if (auto tile = Lookup(key, merged[i])) {
      out[i] = SharedFetch{std::move(tile), /*fetched=*/false};
    } else {
      misses.push_back(i);
    }
  }
  if (misses.empty()) return out;

  // Every miss rides ONE backend round trip; the per-tile path would have
  // paid one query each.
  std::vector<tiles::TileKey> keys;
  keys.reserve(misses.size());
  for (std::size_t i : misses) keys.push_back(items[i].key);
  auto fetched = store->FetchBatch(keys);

  for (std::size_t j = 0; j < misses.size(); ++j) {
    const std::size_t i = misses[j];
    if (!fetched[j].ok()) {
      out[i] = fetched[j].status();
      continue;
    }
    SharedFetch landed{std::move(*fetched[j]), /*fetched=*/true};
    Insert(items[i].key, landed.tile, merged[i]);
    out[i] = std::move(landed);
  }
  return out;
}

bool SharedTileCache::Contains(const tiles::TileKey& key) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.l1.count(key) > 0 || shard.l2.count(key) > 0;
}

void SharedTileCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->l1.clear();
    shard->l2.clear();
    shard->l1_order.clear();
    shard->l2_order.clear();
    shard->session_l1_bytes.clear();
    shard->session_l1_order.clear();
    shard->l1_bytes = 0;
    shard->l2_bytes = 0;
  }
}

std::size_t SharedTileCache::size() const { return l1_size() + l2_size(); }

std::size_t SharedTileCache::l1_size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->l1.size();
  }
  return total;
}

std::size_t SharedTileCache::l2_size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->l2.size();
  }
  return total;
}

std::size_t SharedTileCache::SessionL1Bytes(std::uint64_t session_id) const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    auto usage = shard->session_l1_bytes.find(session_id);
    if (usage != shard->session_l1_bytes.end()) total += usage->second;
  }
  return total;
}

SharedTileCacheStats SharedTileCache::Stats() const {
  // Snapshot every shard under its lock, acquired in index order (the only
  // multi-shard lock site, so the order cannot deadlock against anything).
  // Summing under one all-shards critical section means the totals never
  // mix one shard's pre-update counter with another's post-update one.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mu);

  SharedTileCacheStats stats;
  for (const auto& shard : shards_) {
    const ShardCounters& c = shard->counters;
    stats.l1_hits += c.l1_hits;
    stats.l2_hits += c.l2_hits;
    stats.misses += c.misses;
    stats.insertions += c.insertions;
    stats.evictions += c.evictions;
    stats.demotions += c.demotions;
    stats.blob_reuses += c.blob_reuses;
    stats.tile_reuses += c.tile_reuses;
    stats.encode_ns += c.encode_ns;
    stats.decode_ns += c.decode_ns;
    stats.admission_attempts += c.admission_attempts;
    stats.admission_rejects += c.admission_rejects;
    stats.priority_admits += c.priority_admits;
    stats.quota_evictions += c.quota_evictions;
    stats.l1_bytes_resident += shard->l1_bytes;
    stats.l2_bytes_resident += shard->l2_bytes;
  }
  stats.hits = stats.l1_hits + stats.l2_hits;
  stats.promotions = stats.l2_hits;
  stats.bytes_resident = stats.l1_bytes_resident + stats.l2_bytes_resident;
  return stats;
}

std::uint64_t RegisterSharedTileCacheMetrics(
    telemetry::MetricsRegistry* registry, const SharedTileCache* cache) {
  return registry->AddSource([cache](telemetry::SnapshotSink& sink) {
    const SharedTileCacheStats s = cache->Stats();
    sink.AddCounter("fc.cache.hits", s.hits);
    sink.AddCounter("fc.cache.misses", s.misses);
    sink.AddCounter("fc.cache.insertions", s.insertions);
    sink.AddCounter("fc.cache.evictions", s.evictions);
    sink.AddCounter("fc.cache.l1_hits", s.l1_hits);
    sink.AddCounter("fc.cache.l2_hits", s.l2_hits);
    sink.AddCounter("fc.cache.demotions", s.demotions);
    sink.AddCounter("fc.cache.blob_reuses", s.blob_reuses);
    sink.AddCounter("fc.cache.tile_reuses", s.tile_reuses);
    sink.AddCounter("fc.cache.promotions", s.promotions);
    sink.AddCounter("fc.cache.encode_ns", s.encode_ns);
    sink.AddCounter("fc.cache.decode_ns", s.decode_ns);
    sink.AddCounter("fc.cache.admission_attempts", s.admission_attempts);
    sink.AddCounter("fc.cache.admission_rejects", s.admission_rejects);
    sink.AddCounter("fc.cache.priority_admits", s.priority_admits);
    sink.AddCounter("fc.cache.quota_evictions", s.quota_evictions);
    sink.AddGauge("fc.cache.l1_bytes_resident",
                  static_cast<double>(s.l1_bytes_resident));
    sink.AddGauge("fc.cache.l2_bytes_resident",
                  static_cast<double>(s.l2_bytes_resident));
    sink.AddGauge("fc.cache.bytes_resident",
                  static_cast<double>(s.bytes_resident));
    sink.AddGauge("fc.cache.hit_rate", s.HitRate());
  });
}

}  // namespace fc::core
