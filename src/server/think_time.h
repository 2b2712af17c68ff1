// ThinkTimeEstimator: per-session think-time tracking for deadline-aware
// prefetch scheduling.
//
// The PrefetchScheduler's deadline mode (core/prefetch_scheduler.h) needs
// to know how long this session's user typically pauses between moves —
// that pause is the window a prefetch must land inside to be worth
// anything. The server passes each request's arrival time on its own time
// base (virtual or wall; the estimator reads no clock) and the estimator
// keeps an EWMA of the gaps; until enough gaps have been seen, a
// per-phase prior answers instead, seeded from the sim layer's phase model
// (sim/think_time.h — wired across the layering boundary as plain numbers
// because the server does not link against the sim layer).
//
// Thread-safety: none. One estimator belongs to one ForeCacheServer, which
// is single-threaded by contract.

#ifndef FORECACHE_SERVER_THINK_TIME_H_
#define FORECACHE_SERVER_THINK_TIME_H_

#include <array>
#include <cstddef>

#include "core/request.h"

namespace fc::server {

struct ThinkTimeOptions {
  /// Weight of the newest observed gap in the EWMA.
  double ewma_alpha = 0.3;

  /// Clamp bounds (virtual ms) on both observed gaps and estimates. The
  /// floor keeps a burst of scripted back-to-back replay moves from
  /// collapsing deadlines to zero; the ceiling keeps one long coffee break
  /// from marking the session as never-urgent.
  double min_ms = 20.0;
  double max_ms = 30000.0;

  /// Per-phase prior mean think times (ms), indexed by AnalysisPhase
  /// (kForaging, kSensemaking, kNavigation). Answer estimates until
  /// warmup_samples gaps have been observed. Defaults mirror
  /// sim::PhaseThinkTimeModel; embeddings with a sim layer in reach should
  /// wire sim::PhasePriorMs() here instead.
  std::array<double, core::kNumPhases> phase_prior_ms{800.0, 3000.0, 1500.0};

  /// Observed gaps required before the EWMA outranks the phase prior.
  std::size_t warmup_samples = 2;
};

/// Observes one session's request times and estimates its think time —
/// the expected gap before the NEXT move.
class ThinkTimeEstimator {
 public:
  explicit ThinkTimeEstimator(ThinkTimeOptions options = {});

  /// Records a request arriving at time `now_ms` on whatever time base the
  /// caller measures (virtual or wall — only gaps matter); the gap since
  /// the previous request (clamped into [min_ms, max_ms]) feeds the EWMA.
  /// The first observation only anchors the gap measurement.
  void Observe(double now_ms);

  /// Expected think time before the next move, given the phase the
  /// prediction engine inferred for the session's current position: the
  /// EWMA after warmup, the phase prior before. Always within
  /// [min_ms, max_ms].
  double EstimateMs(core::AnalysisPhase phase) const;

  /// Forgets all observations (session reset / new user on the session).
  void Reset();

  /// Gaps observed so far (not counting the anchoring first request).
  std::size_t samples() const { return samples_; }

 private:
  ThinkTimeOptions options_;
  double last_request_ms_ = -1.0;
  double ewma_ms_ = 0.0;
  std::size_t samples_ = 0;
};

}  // namespace fc::server

#endif  // FORECACHE_SERVER_THINK_TIME_H_
