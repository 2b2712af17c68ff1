#include "server/think_time.h"

#include <algorithm>

namespace fc::server {

ThinkTimeEstimator::ThinkTimeEstimator(ThinkTimeOptions options)
    : options_(options) {
  if (options_.ewma_alpha <= 0.0 || options_.ewma_alpha > 1.0) {
    options_.ewma_alpha = 0.3;
  }
  if (options_.max_ms < options_.min_ms) options_.max_ms = options_.min_ms;
}

void ThinkTimeEstimator::Observe(double now_ms) {
  if (last_request_ms_ < 0.0) {
    last_request_ms_ = now_ms;
    return;
  }
  const double gap = std::clamp(now_ms - last_request_ms_, options_.min_ms,
                                options_.max_ms);
  last_request_ms_ = now_ms;
  ewma_ms_ = samples_ == 0
                 ? gap
                 : options_.ewma_alpha * gap +
                       (1.0 - options_.ewma_alpha) * ewma_ms_;
  ++samples_;
}

double ThinkTimeEstimator::EstimateMs(core::AnalysisPhase phase) const {
  double estimate;
  if (samples_ < options_.warmup_samples) {
    const auto index = static_cast<std::size_t>(phase);
    estimate = index < options_.phase_prior_ms.size()
                   ? options_.phase_prior_ms[index]
                   : options_.phase_prior_ms.front();
  } else {
    estimate = ewma_ms_;
  }
  return std::clamp(estimate, options_.min_ms, options_.max_ms);
}

void ThinkTimeEstimator::Reset() {
  last_request_ms_ = -1.0;
  ewma_ms_ = 0.0;
  samples_ = 0;
}

}  // namespace fc::server
