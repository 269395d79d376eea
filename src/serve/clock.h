#ifndef LLMDM_SERVE_CLOCK_H_
#define LLMDM_SERVE_CLOCK_H_

#include <algorithm>
#include <atomic>
#include <cstdint>

namespace llmdm::serve {

/// The serving layer's notion of "now", in *simulated* milliseconds — the
/// same virtual time base as ModelSpec::latency_ms_per_1k_tokens. Real
/// worker threads finish requests in scheduling-dependent wall-clock order,
/// but each request's virtual completion time is derived only from its
/// deterministic admission state and completion latency; the clock is just
/// the monotone maximum of those times, so it converges to the same value
/// on every run regardless of interleaving.
class SimulatedClock {
 public:
  /// Simulated milliseconds: the latest virtual completion observed so far.
  double NowMs() const {
    return static_cast<double>(now_micros_.load(std::memory_order_relaxed)) /
           1000.0;
  }

  /// Monotone CAS-max: concurrent advances never move the clock backwards.
  /// Saturates at about 9.2e15 vms instead of overflowing the conversion to
  /// integer micros (arrivals come from clients and can be any finite value).
  void AdvanceTo(double vms) {
    int64_t target =
        static_cast<int64_t>(std::min(vms * 1000.0 + 0.5, 9.2e18));
    int64_t cur = now_micros_.load(std::memory_order_relaxed);
    while (cur < target && !now_micros_.compare_exchange_weak(
                               cur, target, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<int64_t> now_micros_{0};
};

}  // namespace llmdm::serve

#endif  // LLMDM_SERVE_CLOCK_H_
