#include "obs/live_sampler.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/logging.h"
#include "obs/metrics.h"

namespace tpart::obs {

LiveSampler::LiveSampler(Domain domain)
    : domain_(domain), t0_(std::chrono::steady_clock::now()) {}

LiveSampler::~LiveSampler() { StopWall(); }

void LiveSampler::set_source(Source source) {
  std::lock_guard<std::mutex> lock(mu_);
  source_ = std::move(source);
}

void LiveSampler::ClearSource() {
  std::lock_guard<std::mutex> lock(mu_);
  source_ = nullptr;
}

void LiveSampler::StartWall(std::uint64_t interval_us) {
  TPART_CHECK(domain_ == Domain::kWall)
      << "StartWall on an epoch-domain sampler";
  std::lock_guard<std::mutex> lock(mu_);
  TPART_CHECK(!thread_.joinable()) << "sampler already running";
  stop_ = false;
  thread_ = std::thread([this, interval_us] {
    std::unique_lock<std::mutex> lock(mu_);
    const auto interval = std::chrono::microseconds(
        interval_us > 0 ? interval_us : 100'000);
    while (!stop_) {
      if (cv_.wait_for(lock, interval, [this] { return stop_; })) break;
      SampleLocked(0, /*has_epoch=*/false);
    }
  });
}

void LiveSampler::StopWall() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!thread_.joinable()) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  SampleLocked(0, /*has_epoch=*/false);
}

void LiveSampler::set_epoch_every(std::uint64_t every) {
  std::lock_guard<std::mutex> lock(mu_);
  epoch_every_ = every > 0 ? every : 1;
}

void LiveSampler::TickEpoch(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch % epoch_every_ != 0) return;
  if (sampled_any_epoch_ && epoch <= last_epoch_) return;
  SampleLocked(epoch, /*has_epoch=*/true);
}

void LiveSampler::SampleEpoch(std::uint64_t epoch, const Sample& items) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch % epoch_every_ != 0) return;
  if (sampled_any_epoch_ && epoch <= last_epoch_) return;
  sampled_any_epoch_ = true;
  last_epoch_ = epoch;
  RenderLine(epoch, /*has_epoch=*/true, items);
}

void LiveSampler::SampleLocked(std::uint64_t epoch, bool has_epoch) {
  if (!source_) return;
  Sample items;
  source_(items);
  if (has_epoch) {
    sampled_any_epoch_ = true;
    last_epoch_ = epoch;
  }
  RenderLine(epoch, has_epoch, std::move(items));
}

void LiveSampler::RenderLine(std::uint64_t epoch, bool has_epoch,
                             Sample items) {
  std::sort(items.begin(), items.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  std::string line;
  line.reserve(48 + 32 * items.size());
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{\"seq\":%" PRIu64, seq_++);
  line.append(buf);
  if (has_epoch) {
    std::snprintf(buf, sizeof(buf), ",\"epoch\":%" PRIu64, epoch);
    line.append(buf);
  } else {
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0_)
                        .count();
    std::snprintf(buf, sizeof(buf), ",\"ts_us\":%lld",
                  static_cast<long long>(us));
    line.append(buf);
  }
  for (const auto& [name, value] : items) {
    line.append(",\"").append(name).append("\":");
    line.append(FormatMetricValue(value));
    latest_[name] = value;
  }
  line.append("}\n");
  lines_.push_back(std::move(line));
}

std::size_t LiveSampler::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_.size();
}

std::string LiveSampler::Jsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const std::string& line : lines_) out.append(line);
  return out;
}

Status LiveSampler::WriteJsonl(const std::string& path) const {
  return WriteTextFile(path, Jsonl(), "metrics stream");
}

std::string LiveSampler::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, value] : latest_) {
    out.append("# TYPE ").append(name).append(" gauge\n");
    out.append(name).append(" ").append(FormatMetricValue(value));
    out.push_back('\n');
  }
  return out;
}

double LiveSampler::Latest(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = latest_.find(name);
  return it == latest_.end() ? 0.0 : it->second;
}

}  // namespace tpart::obs
