#include "obs/trace.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <utility>

#include "obs/metrics.h"

namespace tpart::obs {

namespace {

std::atomic<TraceRecorder*> g_trace{nullptr};
std::atomic<std::uint64_t> g_next_recorder_id{1};

/// Thread-local binding of this thread to the recorder it last emitted
/// into. Keyed by recorder id, not pointer: a new recorder allocated at a
/// dead one's address must not inherit its logs.
struct CachedLog {
  std::uint64_t recorder_id = 0;
  void* log = nullptr;
};
thread_local CachedLog t_cached_log;

/// Integers are formatted with to_chars: the renderer formats every
/// retained event, and a post-mortem dump runs on a fault path that
/// other threads are waiting on.
template <typename T>
void AppendInt(std::string* out, T v, int base = 10) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v, base).ptr);
}

/// Chrome trace "ts" is in microseconds; keep ns resolution as a fixed
/// three-decimal fraction (deterministic formatting, no float rounding).
void AppendTimestamp(std::string* out, std::uint64_t ns) {
  AppendInt(out, ns / 1000);
  const auto frac = static_cast<unsigned>(ns % 1000);
  const char digits[4] = {'.', static_cast<char>('0' + frac / 100),
                          static_cast<char>('0' + frac / 10 % 10),
                          static_cast<char>('0' + frac % 10)};
  out->append(digits, sizeof(digits));
}

}  // namespace

TraceRecorder* GlobalTrace() {
  return g_trace.load(std::memory_order_acquire);
}

TraceRecorder* InstallGlobalTrace(TraceRecorder* recorder) {
  return g_trace.exchange(recorder, std::memory_order_acq_rel);
}

TraceRecorder::TraceRecorder() : TraceRecorder(Options()) {}

TraceRecorder::TraceRecorder(Options options)
    : options_(std::move(options)),
      recorder_id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      t0_(std::chrono::steady_clock::now()) {}

TraceRecorder::~TraceRecorder() {
  // Never die while installed: a racing emitter would use freed memory.
  if (GlobalTrace() == this) InstallGlobalTrace(nullptr);
}

void TraceRecorder::AdvanceTo(std::uint64_t ns) {
  std::uint64_t cur = manual_ns_.load(std::memory_order_relaxed);
  while (ns > cur && !manual_ns_.compare_exchange_weak(
                         cur, ns, std::memory_order_relaxed)) {
  }
}

std::uint64_t TraceRecorder::NowNs() const {
  if (options_.domain == ClockDomain::kManual) {
    return manual_ns_.load(std::memory_order_relaxed);
  }
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0_)
          .count());
}

TraceRecorder::ThreadLog* TraceRecorder::Log() {
  if (t_cached_log.recorder_id == recorder_id_) {
    return static_cast<ThreadLog*>(t_cached_log.log);
  }
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto log = std::make_unique<ThreadLog>();
  log->tid = next_tid_++;
  log->events.resize(options_.ring_size);
  ThreadLog* raw = log.get();
  logs_.push_back(std::move(log));
  t_cached_log = CachedLog{recorder_id_, raw};
  return raw;
}

void TraceRecorder::Store(ThreadLog* log, Event&& e) {
  if (options_.ring_size == 0) {
    log->events.push_back(std::move(e));
  } else {
    log->events[log->appended % options_.ring_size] = std::move(e);
  }
  ++log->appended;
}

void TraceRecorder::Append(ThreadLog* log, Event e) {
  std::lock_guard<std::mutex> lock(log->mu);
  Store(log, std::move(e));
}

void TraceRecorder::AppendHere(Event e) {
  ThreadLog* log = Log();
  e.pid = log->pid;
  e.tid = log->tid;
  Append(log, std::move(e));
}

void TraceRecorder::SetProcessName(int pid, const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  process_names_[pid] = name;
}

void TraceRecorder::SetThreadInfo(int pid, const char* name) {
  ThreadLog* log = Log();
  std::lock_guard<std::mutex> lock(log->mu);
  log->pid = pid;
  log->name = name;
}

void TraceRecorder::Begin(const char* name, const char* cat,
                          std::initializer_list<TraceArg> args) {
  ThreadLog* log = Log();
  Event e;
  e.name = name;
  e.cat = cat;
  e.ph = 'B';
  e.ts_ns = NowNs();
  e.pid = log->pid;
  e.tid = log->tid;
  for (const TraceArg& a : args) {
    if (e.nargs < 3) e.args[e.nargs++] = a;
  }
  std::lock_guard<std::mutex> lock(log->mu);
  log->open_spans.emplace_back(name, cat);
  Store(log, std::move(e));
}

void TraceRecorder::End() {
  ThreadLog* log = Log();
  Event e;
  e.ph = 'E';
  e.ts_ns = NowNs();
  e.pid = log->pid;
  e.tid = log->tid;
  std::lock_guard<std::mutex> lock(log->mu);
  if (log->open_spans.empty()) return;  // unbalanced End: drop
  e.name = log->open_spans.back().first;
  e.cat = log->open_spans.back().second;
  log->open_spans.pop_back();
  Store(log, std::move(e));
}

void TraceRecorder::Instant(const char* name, const char* cat,
                            std::initializer_list<TraceArg> args,
                            std::string detail) {
  Event e;
  e.name = name;
  e.cat = cat;
  e.ph = 'i';
  e.ts_ns = NowNs();
  for (const TraceArg& a : args) {
    if (e.nargs < 3) e.args[e.nargs++] = a;
  }
  e.detail = std::move(detail);
  AppendHere(std::move(e));
}

void TraceRecorder::Counter(const char* name, std::uint64_t value) {
  Event e;
  e.name = name;
  e.cat = "counter";
  e.ph = 'C';
  e.ts_ns = NowNs();
  e.id = value;
  AppendHere(std::move(e));
}

void TraceRecorder::FlowStart(const char* name, std::uint64_t id) {
  Event e;
  e.name = name;
  e.cat = "flow";
  e.ph = 's';
  e.ts_ns = NowNs();
  e.id = id;
  AppendHere(std::move(e));
}

void TraceRecorder::FlowEnd(const char* name, std::uint64_t id) {
  Event e;
  e.name = name;
  e.cat = "flow";
  e.ph = 'f';
  e.ts_ns = NowNs();
  e.id = id;
  AppendHere(std::move(e));
}

void TraceRecorder::AsyncBegin(const char* name, const char* cat,
                               std::uint64_t id) {
  Event e;
  e.name = name;
  e.cat = cat;
  e.ph = 'b';
  e.ts_ns = NowNs();
  e.id = id;
  AppendHere(std::move(e));
}

void TraceRecorder::AsyncEnd(const char* name, const char* cat,
                             std::uint64_t id) {
  Event e;
  e.name = name;
  e.cat = cat;
  e.ph = 'e';
  e.ts_ns = NowNs();
  e.id = id;
  AppendHere(std::move(e));
}

void TraceRecorder::AsyncInstant(const char* name, const char* cat,
                                 std::uint64_t id,
                                 std::initializer_list<TraceArg> args) {
  Event e;
  e.name = name;
  e.cat = cat;
  e.ph = 'n';
  e.ts_ns = NowNs();
  e.id = id;
  for (const TraceArg& a : args) {
    if (e.nargs < 3) e.args[e.nargs++] = a;
  }
  AppendHere(std::move(e));
}

void TraceRecorder::CompleteAt(int pid, int tid, const char* name,
                               const char* cat, std::uint64_t ts_ns,
                               std::uint64_t dur_ns,
                               std::initializer_list<TraceArg> args) {
  Event e;
  e.name = name;
  e.cat = cat;
  e.ph = 'X';
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.pid = pid;
  e.tid = tid;
  for (const TraceArg& a : args) {
    if (e.nargs < 3) e.args[e.nargs++] = a;
  }
  Append(Log(), std::move(e));
}

void TraceRecorder::InstantAt(int pid, int tid, const char* name,
                              const char* cat, std::uint64_t ts_ns,
                              std::initializer_list<TraceArg> args) {
  Event e;
  e.name = name;
  e.cat = cat;
  e.ph = 'i';
  e.ts_ns = ts_ns;
  e.pid = pid;
  e.tid = tid;
  for (const TraceArg& a : args) {
    if (e.nargs < 3) e.args[e.nargs++] = a;
  }
  Append(Log(), std::move(e));
}

void TraceRecorder::CounterAt(int pid, const char* name, std::uint64_t ts_ns,
                              std::uint64_t value) {
  Event e;
  e.name = name;
  e.cat = "counter";
  e.ph = 'C';
  e.ts_ns = ts_ns;
  e.pid = pid;
  e.tid = 0;
  e.id = value;
  Append(Log(), std::move(e));
}

void TraceRecorder::FlowStartAt(int pid, int tid, const char* name,
                                std::uint64_t ts_ns, std::uint64_t id) {
  Event e;
  e.name = name;
  e.cat = "flow";
  e.ph = 's';
  e.ts_ns = ts_ns;
  e.pid = pid;
  e.tid = tid;
  e.id = id;
  Append(Log(), std::move(e));
}

void TraceRecorder::FlowEndAt(int pid, int tid, const char* name,
                              std::uint64_t ts_ns, std::uint64_t id) {
  Event e;
  e.name = name;
  e.cat = "flow";
  e.ph = 'f';
  e.ts_ns = ts_ns;
  e.pid = pid;
  e.tid = tid;
  e.id = id;
  Append(Log(), std::move(e));
}

std::size_t TraceRecorder::event_count() const {
  // Summed from the per-thread counters: a shared counter would put one
  // contended cache line on every emitter's path.
  std::lock_guard<std::mutex> registry_lock(registry_mu_);
  std::size_t n = 0;
  for (const auto& log : logs_) {
    std::lock_guard<std::mutex> lock(log->mu);
    n += log->appended;
  }
  return n;
}

std::string TraceRecorder::ToJson() const { return Render(nullptr); }

std::string TraceRecorder::Render(const std::string* reason) const {
  std::string out;
  out.append("{\"traceEvents\":[\n");
  bool first = true;
  const auto sep = [&] {
    if (!first) out.append(",\n");
    first = false;
  };
  char buf[96];

  // Metadata first — process names (sorted by pid), then thread names in
  // registration order, a deterministic prefix — while each thread's
  // retained events are copied out under its own lock. Copying keeps the
  // locks brief: emitters never wait on the formatting below.
  const std::uint64_t ring = options_.ring_size;
  std::vector<Event> events;
  {
    std::lock_guard<std::mutex> registry_lock(registry_mu_);
    for (const auto& [pid, name] : process_names_) {
      sep();
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                    "\"tid\":0,\"args\":{\"name\":\"",
                    pid);
      out.append(buf);
      AppendJsonEscaped(&out, name);
      out.append("\"}}");
    }
    for (const auto& log : logs_) {
      std::lock_guard<std::mutex> lock(log->mu);
      if (!log->name.empty()) {
        sep();
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                      "\"tid\":%d,\"args\":{\"name\":\"",
                      log->pid, log->tid);
        out.append(buf);
        AppendJsonEscaped(&out, log->name);
        out.append("\"}}");
      }
      // Oldest first; an E whose B the ring overwrote is dropped.
      const std::uint64_t kept =
          ring == 0 ? log->appended : std::min(log->appended, ring);
      int depth = 0;
      for (std::uint64_t k = log->appended - kept; k < log->appended; ++k) {
        const Event& e = log->events[ring == 0 ? k : k % ring];
        if (e.ph == 'B') ++depth;
        if (e.ph == 'E') {
          if (depth == 0) continue;
          --depth;
        }
        events.push_back(e);
      }
    }
  }
  // One stable merge by timestamp keeps per-thread emission order.
  std::vector<const Event*> order;
  order.reserve(events.size());
  for (const Event& e : events) order.push_back(&e);
  std::stable_sort(order.begin(), order.end(),
                   [](const Event* x, const Event* y) {
                     return x->ts_ns < y->ts_ns;
                   });
  out.reserve(out.size() + 128 * events.size());

  for (const Event* ep : order) {
    const Event& e = *ep;
    sep();
    out.append("{\"name\":\"");
    AppendJsonEscaped(&out, e.name != nullptr ? e.name : "");
    out.append("\",\"cat\":\"");
    AppendJsonEscaped(&out, e.cat != nullptr ? e.cat : "");
    out.append("\",\"ph\":\"");
    out.push_back(e.ph);
    out.append("\",\"ts\":");
    AppendTimestamp(&out, e.ts_ns);
    if (e.ph == 'X') {
      out.append(",\"dur\":");
      AppendTimestamp(&out, e.dur_ns);
    }
    out.append(",\"pid\":");
    AppendInt(&out, e.pid);
    out.append(",\"tid\":");
    AppendInt(&out, e.tid);
    if (e.ph == 's' || e.ph == 'f' || e.ph == 'b' || e.ph == 'e' ||
        e.ph == 'n') {
      out.append(",\"id\":\"0x");
      AppendInt(&out, e.id, 16);
      out.push_back('"');
      // Flow ends bind to the enclosing slice.
      if (e.ph == 'f') out.append(",\"bp\":\"e\"");
    }
    if (e.ph == 'C') {
      out.append(",\"args\":{\"value\":");
      AppendInt(&out, e.id);
      out.push_back('}');
    } else if (e.nargs > 0 || !e.detail.empty()) {
      out.append(",\"args\":{");
      for (int i = 0; i < e.nargs; ++i) {
        if (i > 0) out.push_back(',');
        out.append("\"");
        AppendJsonEscaped(&out, e.args[i].key);
        out.append("\":");
        AppendInt(&out, e.args[i].value);
      }
      if (!e.detail.empty()) {
        if (e.nargs > 0) out.push_back(',');
        out.append("\"detail\":\"");
        AppendJsonEscaped(&out, e.detail);
        out.append("\"");
      }
      out.push_back('}');
    }
    out.push_back('}');
  }
  if (reason != nullptr) {
    // The post-mortem's closing event: the reason, stamped at dump time.
    sep();
    out.append(
        "{\"name\":\"postmortem\",\"cat\":\"obs\",\"ph\":\"i\",\"ts\":");
    AppendTimestamp(&out, NowNs());
    out.append(",\"pid\":0,\"tid\":0,\"args\":{\"reason\":\"");
    AppendJsonEscaped(&out, *reason);
    out.append("\"}}");
  }
  out.append("\n],\"displayTimeUnit\":\"ms\"");
  if (reason != nullptr && !run_context_.empty()) {
    out.append(",\"runContext\":\"");
    AppendJsonEscaped(&out, run_context_);
    out.append("\"");
  }
  out.append("}\n");
  return out;
}

Status TraceRecorder::WriteJson(const std::string& path) const {
  return WriteTextFile(path, ToJson(), "trace file");
}

void TraceRecorder::SetRunContext(const std::string& context) {
  std::lock_guard<std::mutex> lock(dump_mu_);
  run_context_ = context;
}

Status TraceRecorder::DumpPostmortem(const std::string& reason) {
  std::lock_guard<std::mutex> lock(dump_mu_);
  const std::size_t ordinal =
      dumps_.fetch_add(1, std::memory_order_relaxed) + 1;
  Instant("postmortem_dump", "obs", {{"ordinal", ordinal}});
  last_dump_json_ = Render(&reason);
  if (options_.dump_path.empty()) return Status::Ok();
  return WriteTextFile(options_.dump_path, last_dump_json_,
                       "post-mortem file");
}

std::string TraceRecorder::last_dump_json() const {
  std::lock_guard<std::mutex> lock(dump_mu_);
  return last_dump_json_;
}

}  // namespace tpart::obs
