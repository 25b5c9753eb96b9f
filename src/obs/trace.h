#ifndef TPART_OBS_TRACE_H_
#define TPART_OBS_TRACE_H_

// The engine's one event recorder, emitted as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing). Every instrumentation site
// writes one event; the installed recorder's retention policy decides
// what is kept:
//   full capture (ring_size == 0)  every event, for --trace;
//   last-N ring  (ring_size == N)  each thread's newest N events — the
//                                  always-on black box whose tail
//                                  DumpPostmortem() renders when a fault
//                                  path fires (stall diagnostic, failover,
//                                  migration abort).
//
// Design goals, in order:
//  1. Near-zero cost when off. Instrumentation sites go through the
//     TPART_TRACE* macros, which reduce to one relaxed atomic load and a
//     predictable branch when no recorder is installed (the runtime null
//     sink), and to nothing at all when the build defines
//     TPART_TRACING_DISABLED (the compile-time guard, CMake option
//     TPART_DISABLE_TRACING).
//  2. Deterministic traces from the simulator. A recorder in kManual
//     clock domain never reads a real clock: timestamps come from
//     AdvanceTo() (driven by SimTime) and the explicit *At() emitters,
//     so two same-seed simulator runs produce byte-identical JSON —
//     traces are diffable artifacts.
//  3. Low, bounded overhead when on. Events are buffered per thread (one
//     registration per thread per recorder, then an uncontended
//     per-buffer mutex), names/categories are static strings, and
//     nothing is formatted until export. A ring preallocates its N slots
//     and overwrites the oldest, so recording allocates nothing in steady
//     state and memory stays at ring_size * sizeof(Event) per thread.
//
// Event taxonomy (see DESIGN.md "Observability"):
//   duration spans (B/E)  nested begin/end pairs on one thread;
//   instants (i)          point events, optionally with a free-text
//                         detail (stall diagnostics, fault markers);
//   counters (C)          named time series (queue depths, T-graph size);
//   flow events (s/f)     arrows between spans on different threads or
//                         machines — forward-pushes render as an arrow
//                         from the producing transaction's span to the
//                         consuming one's;
//   async spans (b/e)     cross-thread intervals tied by id — the
//                         per-transaction admit->commit lifecycle.
//
// Track model: pid = 0 is the control plane (admission, scheduler,
// dissemination, watchdog, transport); pid = 1 + m is machine m. Within
// a pid, tids are per-thread tracks (executor, service, ...).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace tpart::obs {

/// One key/value pair attached to an event. Keys must be static strings;
/// values are integral (rendered as JSON numbers).
struct TraceArg {
  const char* key;
  std::uint64_t value;
};

class TraceRecorder {
 public:
  enum class ClockDomain {
    /// steady_clock, zeroed at recorder construction (threaded runtime).
    kSteady,
    /// Virtual time set via AdvanceTo()/the *At() emitters (simulator);
    /// no real clock is ever read, so traces are deterministic.
    kManual,
  };

  struct Options {
    ClockDomain domain = ClockDomain::kSteady;
    /// 0 keeps every event (full capture); N keeps each thread's newest
    /// N (the black box).
    std::size_t ring_size = 0;
    /// Post-mortem destination; empty keeps dumps in memory only
    /// (last_dump_json()).
    std::string dump_path;
  };

  TraceRecorder();
  explicit TraceRecorder(Options options);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  ClockDomain domain() const { return options_.domain; }

  /// Manual-domain clock, in ns. Monotonic-max: never moves backwards.
  void AdvanceTo(std::uint64_t ns);
  /// Current timestamp in ns (steady: since construction; manual: the
  /// AdvanceTo() frontier).
  std::uint64_t NowNs() const;

  // ---- Track naming ---------------------------------------------------
  void SetProcessName(int pid, const std::string& name);
  /// Binds the calling thread to track (pid, name). Idempotent per
  /// thread; call once at thread entry.
  void SetThreadInfo(int pid, const char* name);

  // ---- Clocked emitters (calling thread's track) ----------------------
  void Begin(const char* name, const char* cat,
             std::initializer_list<TraceArg> args = {});
  void End();
  void Instant(const char* name, const char* cat,
               std::initializer_list<TraceArg> args = {},
               std::string detail = std::string());
  void Counter(const char* name, std::uint64_t value);
  /// Flow arrow between two spans: FlowStart inside the source span,
  /// FlowEnd inside the destination span, tied by (name, id).
  void FlowStart(const char* name, std::uint64_t id);
  void FlowEnd(const char* name, std::uint64_t id);
  /// Cross-thread interval tied by (cat, id) — e.g. one transaction's
  /// admit->commit lifecycle.
  void AsyncBegin(const char* name, const char* cat, std::uint64_t id);
  void AsyncEnd(const char* name, const char* cat, std::uint64_t id);
  /// Point event inside an async interval (ph 'n'): a phase marker on a
  /// transaction's admit->commit timeline, tied by (cat, id) like
  /// AsyncBegin/AsyncEnd so Perfetto nests it under the open interval.
  void AsyncInstant(const char* name, const char* cat, std::uint64_t id,
                    std::initializer_list<TraceArg> args = {});

  // ---- Explicit-timestamp emitters (virtual tracks; simulator) --------
  void CompleteAt(int pid, int tid, const char* name, const char* cat,
                  std::uint64_t ts_ns, std::uint64_t dur_ns,
                  std::initializer_list<TraceArg> args = {});
  void InstantAt(int pid, int tid, const char* name, const char* cat,
                 std::uint64_t ts_ns,
                 std::initializer_list<TraceArg> args = {});
  void CounterAt(int pid, const char* name, std::uint64_t ts_ns,
                 std::uint64_t value);
  void FlowStartAt(int pid, int tid, const char* name, std::uint64_t ts_ns,
                   std::uint64_t id);
  void FlowEndAt(int pid, int tid, const char* name, std::uint64_t ts_ns,
                 std::uint64_t id);

  // ---- Export ---------------------------------------------------------
  /// Total events recorded so far (all threads); a ring retains only
  /// each thread's newest ring_size of them.
  std::size_t event_count() const;
  /// The retained events as Chrome trace-event JSON. Deterministic:
  /// metadata first (pids, then tids, in sorted/registration order), then
  /// every thread's events merged in stable timestamp order (per-thread
  /// emission order is kept). An E whose B the ring overwrote is dropped.
  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;

  // ---- Post-mortems ---------------------------------------------------
  /// Run context stamped into every later post-mortem as a top-level
  /// "runContext" key (chaos seed, fault-schedule summary) so a dump
  /// pulled off CI identifies the run that produced it.
  void SetRunContext(const std::string& context);
  /// Records a postmortem_dump marker, renders ToJson() plus a closing
  /// "postmortem" event carrying `reason` (and the run context), keeps it
  /// in last_dump_json() and writes it to options.dump_path when set.
  /// Later dumps overwrite earlier files; the retained events keep every
  /// earlier marker still in window.
  Status DumpPostmortem(const std::string& reason);
  std::size_t dumps() const { return dumps_.load(std::memory_order_relaxed); }
  std::string last_dump_json() const;

 private:
  struct Event {
    const char* name = nullptr;
    const char* cat = nullptr;
    char ph = 'i';
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;
    std::int32_t pid = 0;
    std::int32_t tid = 0;
    /// Flow / async id (ph s,f,b,e) or counter value (ph C).
    std::uint64_t id = 0;
    int nargs = 0;
    TraceArg args[3] = {};
    /// Optional free-text payload (args.detail); empty for most events.
    std::string detail;
  };

  struct ThreadLog {
    std::mutex mu;
    /// Full capture: every event in emission order. Ring: ring_size
    /// preallocated slots; the k-th event appended lives at k % ring_size.
    std::vector<Event> events;
    std::uint64_t appended = 0;
    /// Open Begin()s, for End() naming and balance.
    std::vector<std::pair<const char*, const char*>> open_spans;
    int pid = 0;
    int tid = 0;
    std::string name;
  };

  ThreadLog* Log();
  /// Stores `e` under the retention policy; the caller holds log->mu.
  void Store(ThreadLog* log, Event&& e);
  void Append(ThreadLog* log, Event e);
  void AppendHere(Event e);
  /// ToJson(), plus the closing postmortem event and the run context
  /// when `reason` is set (the caller then holds dump_mu_).
  std::string Render(const std::string* reason) const;

  const Options options_;
  const std::uint64_t recorder_id_;
  const std::chrono::steady_clock::time_point t0_;
  std::atomic<std::uint64_t> manual_ns_{0};

  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  int next_tid_ = 0;
  std::map<int, std::string> process_names_;

  std::atomic<std::size_t> dumps_{0};
  /// Guards last_dump_json_ and run_context_; serialises dumps.
  mutable std::mutex dump_mu_;
  std::string last_dump_json_;
  std::string run_context_;
};

/// Stable id for a forward-push flow arrow: the producing transaction
/// (version_txn) publishing `key` for consumer dst_txn. FNV-1a so the
/// runtime and simulator emitters label the same push identically.
inline std::uint64_t PushFlowId(std::uint64_t key, std::uint64_t version_txn,
                                std::uint64_t dst_txn) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t v : {key, version_txn, dst_txn}) {
    h ^= v;
    h *= 1099511628211ull;
  }
  return h;
}

/// The installed recorder, or nullptr (the null sink — every macro is a
/// load + branch). Instrumentation must tolerate concurrent install/
/// uninstall only at run boundaries: install before starting threads,
/// uninstall after joining them.
TraceRecorder* GlobalTrace();
/// Installs `recorder` as the global sink (nullptr restores the null
/// sink). Returns the previous recorder.
TraceRecorder* InstallGlobalTrace(TraceRecorder* recorder);

/// RAII duration span on the calling thread's track.
class TraceSpan {
 public:
  TraceSpan(TraceRecorder* recorder, const char* name, const char* cat,
            std::initializer_list<TraceArg> args = {})
      : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->Begin(name, cat, args);
  }
  ~TraceSpan() {
    if (recorder_ != nullptr) recorder_->End();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceRecorder* recorder_;
};

}  // namespace tpart::obs

// ---- Instrumentation macros -------------------------------------------
// TPART_TRACE(Call(...)) invokes TraceRecorder::Call on the global
// recorder when one is installed; TPART_TRACE_SPAN opens an RAII span for
// the enclosing scope; TPART_TRACE_DUMP(reason) writes a post-mortem. All
// compile away under TPART_TRACING_DISABLED.

#if !defined(TPART_TRACING_DISABLED)

#define TPART_TRACE_CONCAT_INNER(a, b) a##b
#define TPART_TRACE_CONCAT(a, b) TPART_TRACE_CONCAT_INNER(a, b)

#define TPART_TRACE(...)                                              \
  do {                                                                \
    if (::tpart::obs::TraceRecorder* tpart_trace_rec_ =               \
            ::tpart::obs::GlobalTrace()) {                            \
      tpart_trace_rec_->__VA_ARGS__;                                  \
    }                                                                 \
  } while (0)

#define TPART_TRACE_SPAN(...)                                         \
  ::tpart::obs::TraceSpan TPART_TRACE_CONCAT(tpart_trace_span_,       \
                                             __LINE__) {              \
    ::tpart::obs::GlobalTrace(), __VA_ARGS__                          \
  }

#else  // TPART_TRACING_DISABLED

#define TPART_TRACE(...) \
  do {                   \
  } while (0)
#define TPART_TRACE_SPAN(...) \
  do {                        \
  } while (0)

#endif  // TPART_TRACING_DISABLED

#define TPART_TRACE_DUMP(reason) TPART_TRACE(DumpPostmortem(reason))

#endif  // TPART_OBS_TRACE_H_
