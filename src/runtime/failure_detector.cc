#include "runtime/failure_detector.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace tpart {

PhiAccrualDetector::PhiAccrualDetector(std::size_t num_machines,
                                       Options options)
    : options_(options), states_(num_machines) {
  for (State& s : states_) s.window.resize(kHistory, 0);
}

void PhiAccrualDetector::Observe(std::size_t machine, std::uint64_t now_us) {
  State& s = states_[machine];
  if (!s.excused && now_us > s.last_progress_us) {
    s.window[s.next] = now_us - s.last_progress_us;
    s.next = (s.next + 1) % s.window.size();
    s.count = std::min(s.count + 1, s.window.size());
  }
  s.excused = false;
  s.last_progress_us = now_us;
}

std::uint64_t PhiAccrualDetector::SilenceUs(std::size_t machine,
                                            std::uint64_t now_us) const {
  const State& s = states_[machine];
  return now_us > s.last_progress_us ? now_us - s.last_progress_us : 0;
}

void PhiAccrualDetector::MeanStd(const State& s, double* mean,
                                 double* std_out) const {
  // Before real samples arrive, assume the configured probe cadence.
  double m = static_cast<double>(options_.expected_interval_us);
  double var = 0.0;
  if (s.count > 0) {
    double sum = 0.0;
    for (std::size_t i = 0; i < s.count; ++i) {
      sum += static_cast<double>(s.window[i]);
    }
    m = sum / static_cast<double>(s.count);
    for (std::size_t i = 0; i < s.count; ++i) {
      const double d = static_cast<double>(s.window[i]) - m;
      var += d * d;
    }
    var /= static_cast<double>(s.count);
  }
  const double floor = std::max(
      static_cast<double>(options_.expected_interval_us) / 4.0, kMinStdUs);
  *mean = m;
  *std_out = std::max(std::sqrt(var), floor);
}

double PhiAccrualDetector::Phi(std::size_t machine,
                               std::uint64_t now_us) const {
  const std::uint64_t elapsed = SilenceUs(machine, now_us);
  double mean, std;
  MeanStd(states_[machine], &mean, &std);
  const double z =
      (static_cast<double>(elapsed) - mean) / (std * std::sqrt(2.0));
  if (z <= 0.0) return 0.0;
  // P(inter-arrival > elapsed) for a normal tail; clamp the underflow
  // region so a long-dead machine reports a large finite phi.
  const double p_later = 0.5 * std::erfc(z);
  if (p_later < 1e-30) return 30.0;
  return -std::log10(p_later);
}

void PhiAccrualDetector::Excuse(std::size_t machine, std::uint64_t now_us) {
  State& s = states_[machine];
  s.excused = true;
  s.last_progress_us = now_us;
}

void PhiAccrualDetector::Reset(std::size_t machine, std::uint64_t now_us) {
  State& s = states_[machine];
  std::fill(s.window.begin(), s.window.end(), 0);
  s.next = 0;
  s.count = 0;
  s.excused = true;
  s.last_progress_us = now_us;
}

std::string PhiAccrualDetector::Describe(std::uint64_t now_us) const {
  std::ostringstream out;
  for (std::size_t m = 0; m < states_.size(); ++m) {
    double mean, std;
    MeanStd(states_[m], &mean, &std);
    if (m > 0) out << " ";
    out << "m" << m << "{phi=" << Phi(m, now_us)
        << " silence_us=" << SilenceUs(m, now_us)
        << " mean_us=" << mean << " std_us=" << std
        << " samples=" << states_[m].count << "}";
  }
  return out.str();
}

}  // namespace tpart
