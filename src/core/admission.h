// Admission control for the shared tile cache.
//
// PR 2 made every cache byte-budgeted, but budgets alone cannot stop one
// scan-heavy session from flushing every other session's hot set: each
// fetched tile was admitted unconditionally, so a sequential scan turns the
// whole L1 tier over once per pass. The fix is the classic TinyLFU shape
// (Einziger et al.): a compact 4-bit count-min sketch estimates how often
// each tile has been looked up recently, and a cold candidate is only
// allowed to displace resident tiles that are even colder. Scan traffic
// (frequency 1) bounces off a warm working set (frequency >= 2) instead of
// evicting it.
//
// Periodic halving keeps the sketch's history recent: every `halve_every`
// recorded accesses all counters are divided by two, so a tile that was hot
// an hour ago decays instead of squatting on its admission priority forever.
//
// Thread-safety: none. The shared cache instantiates one policy per shard
// and calls it under that shard's mutex.

#ifndef FORECACHE_CORE_ADMISSION_H_
#define FORECACHE_CORE_ADMISSION_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace fc::core {

/// 4-bit count-min frequency sketch with periodic halving (the TinyLFU
/// "reset" operation). Estimates saturate at 15; halving divides every
/// counter by two so estimates track recent popularity, not all of history.
/// Not thread-safe: own one per shard and call it under that shard's lock.
class FrequencySketch {
 public:
  /// `counters`: 4-bit counters per row, rounded up to a power of two
  /// (minimum 16). Size the sketch at or above the number of tiles whose
  /// frequency matters (roughly the cacheable working set). `halve_every`:
  /// recorded accesses between halvings; 0 picks 8x `counters`.
  explicit FrequencySketch(std::size_t counters, std::uint64_t halve_every = 0);

  /// Records one access of `hash`, halving all counters first if the sample
  /// period is up.
  void Record(std::uint64_t hash);

  /// Estimated access count of `hash` in [0, 15] (min over rows; count-min
  /// only ever overestimates).
  std::uint32_t Estimate(std::uint64_t hash) const;

  /// Total accesses ever recorded (not reset by halving).
  std::uint64_t accesses() const { return total_accesses_; }
  /// Halvings performed so far.
  std::uint64_t halvings() const { return halvings_; }
  /// Counters per row after power-of-two rounding.
  std::size_t counters_per_row() const { return counters_; }
  /// Effective halving period (resolved from the 0 = auto default).
  std::uint64_t halve_every() const { return halve_every_; }

 private:
  static constexpr int kRows = 4;
  static constexpr std::uint32_t kMaxCount = 15;

  std::size_t IndexFor(int row, std::uint64_t hash) const;
  std::uint32_t CounterAt(int row, std::size_t index) const;
  void Halve();

  std::size_t counters_;       ///< Per row; power of two.
  std::uint64_t halve_every_;
  std::uint64_t window_accesses_ = 0;  ///< Since the last halving.
  std::uint64_t total_accesses_ = 0;
  std::uint64_t halvings_ = 0;
  /// kRows rows of counters_/16 words, 16 4-bit counters per word.
  std::vector<std::uint64_t> words_;
};

/// Decides whether a tile not yet resident may enter L1 when doing so would
/// displace resident tiles. Called by the shared cache under the owning
/// shard's lock; implementations need not be thread-safe. Contract: the
/// cache feeds every lookup to RecordAccess (hit or miss), then consults
/// ShouldAdmit only for offers that would actually displace residents.
class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;

  virtual std::string_view name() const = 0;

  /// Feeds one cache lookup of `key_hash` to the policy's popularity model.
  virtual void RecordAccess(std::uint64_t key_hash) = 0;

  /// True if inserting `candidate_hash` justifies evicting every tile in
  /// `victim_hashes` (the entries it would displace; empty when the shard
  /// has room, in which case implementations should admit).
  virtual bool ShouldAdmit(std::uint64_t candidate_hash,
                           const std::vector<std::uint64_t>& victim_hashes) = 0;
};

/// The pre-admission-control behavior: everything is admitted, leaving
/// residency to the cache's LRU eviction alone.
class AdmitAllPolicy final : public AdmissionPolicy {
 public:
  std::string_view name() const override { return "admit-all"; }
  void RecordAccess(std::uint64_t) override {}
  bool ShouldAdmit(std::uint64_t, const std::vector<std::uint64_t>&) override {
    return true;
  }
};

/// TinyLFU: admit a candidate only if its sketch frequency strictly exceeds
/// that of every tile it would displace. Ties reject — the incumbent keeps
/// its slot, which is exactly what makes a frequency-1 scan bounce off.
/// Not thread-safe (see AdmissionPolicy).
class TinyLfuAdmissionPolicy final : public AdmissionPolicy {
 public:
  /// Parameters are forwarded to FrequencySketch (see its constructor).
  explicit TinyLfuAdmissionPolicy(std::size_t sketch_counters,
                                  std::uint64_t halve_every = 0)
      : sketch_(sketch_counters, halve_every) {}

  std::string_view name() const override { return "tinylfu"; }
  void RecordAccess(std::uint64_t key_hash) override { sketch_.Record(key_hash); }
  bool ShouldAdmit(std::uint64_t candidate_hash,
                   const std::vector<std::uint64_t>& victim_hashes) override;

  /// The underlying frequency model (for tests and introspection).
  const FrequencySketch& sketch() const { return sketch_; }

 private:
  FrequencySketch sketch_;
};

enum class AdmissionPolicyKind { kAdmitAll, kTinyLfu };

struct AdmissionOptions {
  /// kAdmitAll preserves the historical always-admit behavior (the default,
  /// so recency-golden tests and single-session setups are unaffected).
  AdmissionPolicyKind policy = AdmissionPolicyKind::kAdmitAll;
  /// Sketch counters per cache shard (each shard sees only its own keys).
  std::size_t sketch_counters = 4096;
  /// Accesses between sketch halvings; 0 = 8x sketch_counters.
  std::uint64_t sketch_halve_every = 0;
  /// Prefetch fills whose prediction confidence reaches this bound bypass
  /// the frequency filter (quotas and byte budgets still apply): when the
  /// engine is near-certain of the user's next move, the tile must not be
  /// bounced for being new.
  double priority_confidence = 0.9;
};

/// Builds the policy one shard uses (never null).
std::unique_ptr<AdmissionPolicy> MakeAdmissionPolicy(
    const AdmissionOptions& options);

}  // namespace fc::core

#endif  // FORECACHE_CORE_ADMISSION_H_
