// Virtual time for latency simulation.
//
// Latency experiments replay thousands of tile requests whose simulated
// service times sum to minutes of "user time"; SimClock advances a virtual
// microsecond counter instead of sleeping, so the full experiment grid runs
// in real seconds while preserving all latency arithmetic.

#ifndef FORECACHE_COMMON_SIM_CLOCK_H_
#define FORECACHE_COMMON_SIM_CLOCK_H_

#include <atomic>
#include <cmath>
#include <cstdint>

#include "common/clock.h"

namespace fc {

/// Monotonic virtual clock, microsecond resolution. Implements the Clock
/// read interface (common/clock.h), so deadline scheduling and stream
/// budgets run against it interchangeably with the wall-clock adapter.
///
/// Thread-safe: concurrent sessions share one clock, and background prefetch
/// tasks charge DBMS time to it while request threads read it. Advances are
/// atomic, so no charged microsecond is ever lost; under concurrency the
/// interleaving of advances (and hence any single thread's observed elapsed
/// time) is of course schedule-dependent.
class SimClock : public Clock {
 public:
  SimClock() = default;

  /// Current virtual time in microseconds since construction.
  std::int64_t NowMicros() const {
    return now_micros_.load(std::memory_order_relaxed);
  }

  /// Current virtual time in (fractional) milliseconds.
  double NowMillis() const override {
    return static_cast<double>(NowMicros()) / 1000.0;
  }

  /// Advances the clock. Negative durations are ignored.
  void AdvanceMicros(std::int64_t micros) {
    if (micros > 0) now_micros_.fetch_add(micros, std::memory_order_relaxed);
  }

  /// Rounds to the nearest microsecond. Truncation here would make repeated
  /// sub-microsecond advances (e.g. many tiny per-item charge fractions)
  /// silently lose virtual time: 1000 advances of 0.0009 ms must move the
  /// clock ~0.9 ms, not 0.
  void AdvanceMillis(double millis) {
    AdvanceMicros(static_cast<std::int64_t>(std::llround(millis * 1000.0)));
  }

  /// Resets to time zero. Not safe to race with concurrent advances.
  void Reset() { now_micros_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> now_micros_{0};
};

/// A scoped stopwatch over a SimClock: measures virtual elapsed time.
class SimStopwatch {
 public:
  explicit SimStopwatch(const SimClock& clock)
      : clock_(clock), start_micros_(clock.NowMicros()) {}

  std::int64_t ElapsedMicros() const { return clock_.NowMicros() - start_micros_; }
  double ElapsedMillis() const { return static_cast<double>(ElapsedMicros()) / 1000.0; }

 private:
  const SimClock& clock_;
  std::int64_t start_micros_;
};

}  // namespace fc

#endif  // FORECACHE_COMMON_SIM_CLOCK_H_
