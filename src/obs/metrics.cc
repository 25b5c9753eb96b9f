#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>

namespace tpart::obs {

namespace {

/// Prometheus HELP text escaping: backslash and line feed only, per the
/// text exposition format.
void AppendHelpEscaped(std::string* out, const std::string& s) {
  for (const char c : s) {
    if (c == '\\') {
      out->append("\\\\");
    } else if (c == '\n') {
      out->append("\\n");
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\r':
        out->append("\\r");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

Status WriteTextFile(const std::string& path, const std::string& text,
                     const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status(StatusCode::kInternal,
                  std::string("cannot open ") + what + " " + path);
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int close_rc = std::fclose(f);
  if (written != text.size() || close_rc != 0) {
    return Status(StatusCode::kInternal,
                  std::string("short write to ") + what + " " + path);
  }
  return Status::Ok();
}

/// Sample values: plain decimal, no exponent, trailing zeros trimmed —
/// deterministic and human-readable.
std::string FormatMetricValue(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      v < 1e15 && v > -1e15) {
    std::snprintf(buf, sizeof(buf), "%" PRId64,
                  static_cast<std::int64_t>(v));
    return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  std::string s(buf);
  while (s.size() > 1 && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

MetricsRegistry::Entry& MetricsRegistry::Upsert(const std::string& name,
                                                Kind kind,
                                                const std::string& help) {
  Entry& e = metrics_[name];
  e.kind = kind;
  if (!help.empty()) e.help = help;
  return e;
}

void MetricsRegistry::SetCounter(const std::string& name, double value,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Upsert(name, Kind::kCounter, help).value = value;
}

void MetricsRegistry::AddCounter(const std::string& name, double delta,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Upsert(name, Kind::kCounter, help).value += delta;
}

void MetricsRegistry::SetGauge(const std::string& name, double value,
                               const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Upsert(name, Kind::kGauge, help).value = value;
}

void MetricsRegistry::ObserveHistogram(const std::string& name,
                                       const Histogram& h,
                                       const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Upsert(name, Kind::kHistogram, help).hist.Merge(h);
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

void MetricsRegistry::ForEach(
    const std::function<void(const std::string& name, MetricKind kind)>& fn)
    const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, e] : metrics_) {
    switch (e.kind) {
      case Kind::kCounter:
        fn(name, MetricKind::kCounter);
        break;
      case Kind::kGauge:
        fn(name, MetricKind::kGauge);
        break;
      case Kind::kHistogram:
        fn(name, MetricKind::kHistogram);
        break;
    }
  }
}

double MetricsRegistry::Value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) return 0.0;
  if (it->second.kind == Kind::kHistogram) {
    return static_cast<double>(it->second.hist.count());
  }
  return it->second.value;
}

std::string MetricsRegistry::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char buf[96];
  for (const auto& [name, e] : metrics_) {
    if (!e.help.empty()) {
      out.append("# HELP ").append(name).append(" ");
      AppendHelpEscaped(&out, e.help);
      out.push_back('\n');
    }
    out.append("# TYPE ").append(name).append(" ");
    switch (e.kind) {
      case Kind::kCounter:
        out.append("counter\n");
        out.append(name).append(" ").append(FormatMetricValue(e.value));
        out.push_back('\n');
        break;
      case Kind::kGauge:
        out.append("gauge\n");
        out.append(name).append(" ").append(FormatMetricValue(e.value));
        out.push_back('\n');
        break;
      case Kind::kHistogram: {
        out.append("histogram\n");
        // Cumulative le-buckets; empty log-linear buckets are skipped
        // (the cumulative count is unchanged by them) to keep the
        // exposition readable across ~1000 buckets.
        std::uint64_t cumulative = 0;
        for (int i = 0; i < Histogram::num_buckets(); ++i) {
          const std::uint64_t c = e.hist.bucket_count(i);
          if (c == 0) continue;
          cumulative += c;
          std::snprintf(buf, sizeof(buf), "{le=\"%" PRIu64 "\"} %" PRIu64
                        "\n",
                        Histogram::BucketUpperBound(i), cumulative);
          out.append(name).append("_bucket").append(buf);
        }
        std::snprintf(buf, sizeof(buf), "{le=\"+Inf\"} %zu\n",
                      e.hist.count());
        out.append(name).append("_bucket").append(buf);
        out.append(name).append("_sum ").append(
            FormatMetricValue(e.hist.sum()));
        out.push_back('\n');
        std::snprintf(buf, sizeof(buf), "_count %zu\n", e.hist.count());
        out.append(name).append(buf);
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::Json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  bool first = true;
  char buf[96];
  for (const auto& [name, e] : metrics_) {
    if (!first) out.push_back(',');
    first = false;
    out.append("\n  \"");
    AppendJsonEscaped(&out, name);
    out.append("\": ");
    if (e.kind == Kind::kHistogram) {
      std::snprintf(buf, sizeof(buf),
                    "{\"count\": %zu, \"mean\": %.3f, \"p50\": %" PRIu64
                    ", \"p99\": %" PRIu64 ", \"max\": %" PRIu64 "}",
                    e.hist.count(), e.hist.mean(), e.hist.Quantile(0.5),
                    e.hist.Quantile(0.99), e.hist.max_value());
      out.append(buf);
    } else {
      out.append(FormatMetricValue(e.value));
    }
  }
  out.append("\n}\n");
  return out;
}

}  // namespace tpart::obs
