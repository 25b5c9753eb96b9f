#ifndef TPART_OBS_METRICS_H_
#define TPART_OBS_METRICS_H_

// Named-metric registry with snapshot export in Prometheus text
// exposition format and JSON. The engine's stats structs
// (RunStats / TransportStats / PipelineStats / RecoveryStats) publish
// into a registry via their PublishTo() methods; cluster_cli writes the
// snapshot with --metrics=out.prom.
//
// Deliberately a snapshot registry, not a live one: runs are finite, the
// engine already aggregates its own counters on the hot paths, and a
// post-run publish keeps the registry entirely off those paths.

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "common/stats.h"
#include "common/status.h"

namespace tpart::obs {

/// Exporter-facing metric kind, used by ForEach() introspection (the
/// metric-name audit) and by callers that mirror registry entries.
enum class MetricKind { kCounter, kGauge, kHistogram };

/// Canonical sample-value rendering shared by every exporter (Prometheus
/// text, JSON, the live sampler's JSONL): plain decimal, integers exact,
/// no exponent — deterministic across runs.
std::string FormatMetricValue(double v);

/// JSON string-body escaping shared by every JSON exporter (metrics,
/// traces, post-mortems): quote, backslash, and every control character.
void AppendJsonEscaped(std::string* out, std::string_view s);

/// Replaces the file at `path` with `text`. `what` names the artifact in
/// the error ("cannot open <what> <path>", "short write to <what> <path>").
Status WriteTextFile(const std::string& path, const std::string& text,
                     const char* what);

class MetricsRegistry {
 public:
  /// Monotonic total (Prometheus `counter`). Set replaces; Add sums —
  /// use Add when several machines/runs publish the same name.
  void SetCounter(const std::string& name, double value,
                  const std::string& help = std::string());
  void AddCounter(const std::string& name, double delta,
                  const std::string& help = std::string());
  /// Point-in-time value (Prometheus `gauge`), e.g. high-water marks.
  void SetGauge(const std::string& name, double value,
                const std::string& help = std::string());
  /// Distribution; merged into any histogram already under `name`.
  void ObserveHistogram(const std::string& name, const Histogram& h,
                        const std::string& help = std::string());

  std::size_t size() const;
  double Value(const std::string& name) const;  // 0 when absent

  /// Visits every registered metric in sorted name order. The audit test
  /// validates each (name, kind) against the naming convention
  /// (obs/metric_names.h).
  void ForEach(
      const std::function<void(const std::string& name, MetricKind kind)>& fn)
      const;

  /// Prometheus text exposition format (HELP/TYPE + samples; histograms
  /// as cumulative le-buckets with _sum and _count).
  std::string PrometheusText() const;
  /// One flat JSON object; histograms as {count, mean, p50, p99, max}.
  std::string Json() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind = Kind::kGauge;
    double value = 0.0;
    Histogram hist;
    std::string help;
  };

  Entry& Upsert(const std::string& name, Kind kind, const std::string& help);

  mutable std::mutex mu_;
  std::map<std::string, Entry> metrics_;  // sorted: deterministic export
};

}  // namespace tpart::obs

#endif  // TPART_OBS_METRICS_H_
