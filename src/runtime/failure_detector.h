#ifndef TPART_RUNTIME_FAILURE_DETECTOR_H_
#define TPART_RUNTIME_FAILURE_DETECTOR_H_

// Phi-accrual failure detection (Hayashibara et al.): instead of a
// binary fixed-deadline verdict, each machine carries a continuous
// suspicion level
//
//   phi(elapsed) = -log10( P(next heartbeat later than elapsed) )
//
// computed from a sliding window of observed heartbeat inter-arrival
// times, P modeled as a normal tail. A machine whose heartbeats are
// merely slow (a straggler sleeping in its service loop, a gray-failure
// slow link inflating latency) grows its observed mean/std, so the same
// silence that would trip a fixed deadline yields a low phi — no
// false-positive recovery. A crash-stopped machine's silence keeps
// growing against a finite distribution, so phi rises without bound and
// crosses any threshold.
//
// The cluster watchdog owns one instance; it is not thread-safe.

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace tpart {

class PhiAccrualDetector {
 public:
  /// Inter-arrival samples kept per machine (sliding window).
  static constexpr std::size_t kHistory = 64;
  /// Suspicion level that corroborates a deadline expiry. 8 means "the
  /// chance a live machine is this late is < 1e-8".
  static constexpr double kPhiThreshold = 8.0;
  /// Std-deviation floor (us), raised to a quarter of the expected
  /// interval when that is larger: keeps phi finite when the observed
  /// inter-arrivals are nearly constant (in-process heartbeats jitter by
  /// microseconds, which would make any hiccup look fatal).
  static constexpr double kMinStdUs = 200.0;

  struct Options {
    /// Seed mean before real samples arrive: the probe interval.
    std::uint64_t expected_interval_us = 1000;
  };

  explicit PhiAccrualDetector(std::size_t num_machines, Options options);

  /// Heartbeat progress for `machine` observed `now_us` on the
  /// watchdog's monotonic clock: records the inter-arrival since the
  /// previous progress and resets the silence clock.
  void Observe(std::size_t machine, std::uint64_t now_us);

  /// Current suspicion level for `machine` at `now_us`. 0 while the
  /// silence is shorter than the observed mean.
  double Phi(std::size_t machine, std::uint64_t now_us) const;

  /// Microseconds of silence for `machine` as of `now_us`.
  std::uint64_t SilenceUs(std::size_t machine, std::uint64_t now_us) const;

  /// Excuses the current silence (recovery restart, or an injected link
  /// fault the watchdog knows severed the heartbeat path): resets the
  /// silence clock without recording a sample, so explained outages
  /// neither raise suspicion nor pollute the inter-arrival history.
  void Excuse(std::size_t machine, std::uint64_t now_us);

  /// Drops `machine`'s history entirely (post-recovery: the rebuilt
  /// machine's timing regime may differ from its pre-crash one).
  void Reset(std::size_t machine, std::uint64_t now_us);

  /// One-line per-machine state ("m0 phi=0.2 mean_us=1003 ...") for
  /// stall diagnostics and post-mortems.
  std::string Describe(std::uint64_t now_us) const;

  std::size_t num_machines() const { return states_.size(); }

 private:
  struct State {
    std::vector<std::uint64_t> window;  // ring of inter-arrivals, us
    std::size_t next = 0;               // ring write position
    std::size_t count = 0;              // samples held (<= window size)
    std::uint64_t last_progress_us = 0;
    bool excused = true;  // next Observe resets baseline, no sample
  };

  void MeanStd(const State& s, double* mean, double* std) const;

  Options options_;
  std::vector<State> states_;
};

}  // namespace tpart

#endif  // TPART_RUNTIME_FAILURE_DETECTOR_H_
