// Clock: the read-only time interface behind deadline scheduling and
// stream byte budgets.
//
// The schedulers and the think-time estimator only ever READ time — they
// ask "what is now?" to stamp enqueue ages and deadlines and to refill
// token buckets. Simulation code additionally ADVANCES time, but that is a
// property of the simulation harness (SimClock), not of the consumers.
// Splitting the read interface out lets the exact same deadline and budget
// machinery run against either time base:
//
//  * SimClock (common/sim_clock.h): the virtual clock replay experiments
//    charge simulated service time to. Implements Clock.
//  * SteadyClock (below): a monotonic wall-clock adapter over
//    std::chrono::steady_clock, for real deployments — think-time deadlines
//    mean nothing outside the sim if they can only be measured in virtual
//    time.
//
// Milliseconds were chosen as the unit because every existing consumer
// (deadlines, think-time EWMAs, chunk ages) already works in fractional
// virtual milliseconds.

#ifndef FORECACHE_COMMON_CLOCK_H_
#define FORECACHE_COMMON_CLOCK_H_

#include <chrono>

namespace fc {

/// Read-only monotonic time source, fractional milliseconds since an
/// arbitrary (per-instance) epoch. Implementations must be thread-safe for
/// concurrent reads; only differences between readings are meaningful.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time in (fractional) milliseconds since this clock's epoch.
  /// Never decreases.
  virtual double NowMillis() const = 0;
};

/// Monotonic wall-clock adapter: NowMillis() is real elapsed time since
/// construction, measured on std::chrono::steady_clock (immune to wall
/// time adjustments — a deadline must never jump because NTP stepped the
/// system clock). Thread-safe; the epoch is immutable after construction.
class SteadyClock final : public Clock {
 public:
  SteadyClock() : epoch_(std::chrono::steady_clock::now()) {}

  double NowMillis() const override {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

 private:
  const std::chrono::steady_clock::time_point epoch_;
};

}  // namespace fc

#endif  // FORECACHE_COMMON_CLOCK_H_
