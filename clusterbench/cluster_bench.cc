// Oracle-checked cluster benchmark: one workload on the threaded streaming
// runtime (LocalCluster::RunTPart, streaming, sink size 50, 3 machines),
// every repetition checked against the RunSerial reference on the same
// trace. All numbers are taken from outside the program, by timing calls
// into its public functions and reading its public counters.
//
//   cluster_bench --workload W --seed N --seconds S [--txns N]
//       End-to-end metrics (tps, cpu_us_per_txn, plan_tps, rss_peak_mb,
//       setup_s) over repetitions run for S seconds after one warm-up
//       repetition: medians, except plan_tps (see kPlanQuantile).
//   cluster_bench_traced ... --trace 1 [--spans FILE]
//       Per-layer metrics: a traced planning pass plus untraced and traced
//       repetitions, interleaved. Traced repetitions run the workload's
//       procedures through a timing shim and count allocations; spans are
//       kept in memory and written to FILE at the end.
//   cluster_bench --self-test
//       Checks that the oracle comparison catches a changed output and a
//       changed final store.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// A repetition whose results or final store differ from the oracle prints
// the first mismatching transaction id and makes the driver exit 1.

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "exec/serial_executor.h"
#include "net/wire.h"
#include "runtime/cluster.h"
#include "scheduler/tpart_scheduler.h"
#include "sequencer/sequencer.h"
#include "storage/data_partition.h"
#include "storage/partitioned_store.h"
#include "workload/micro.h"
#include "workload/tpcc.h"
#include "workload/tpce.h"

namespace tpart::clusterbench {
namespace {

using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

constexpr std::size_t kMachines = 3;
constexpr std::size_t kSinkSize = 50;
constexpr SinkEpoch kCheckpointEvery = 32;
/// Workload generations per end-to-end run; setup_s takes their median.
constexpr int kGenerations = 7;
/// Cluster repetitions per run, at least, whatever --seconds says.
constexpr int kMinReps = 3;
/// Single-threaded planning passes per end-to-end repetition.
constexpr int kPlanPassesPerRep = 3;
/// plan_tps is this quantile of the per-pass rates. A pass is fixed,
/// deterministic single-threaded work, so interference from the shared
/// host only ever slows it, and it does so for a third or more of the
/// passes; the median then moves with the host's load while the fastest
/// tenth measures the planner itself.
constexpr double kPlanQuantile = 0.9;
/// End-to-end samples taken while the hypervisor stole more than this
/// share of the vCPU time are left out of the medians. On a shared host,
/// other guests' load can take a large share of the vCPU time for a
/// minute or more; the pipeline's thread handoffs then stall and tps can
/// drop by half or more.
constexpr double kMaxStealFrac = 0.03;
/// How much longer than --seconds a run may go on looking for kMinReps
/// undisturbed repetitions.
constexpr double kStealGraceSeconds = 15.0;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The value at fraction q of sorted `v` (nearest rank).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "cluster_bench: %s\n", msg.c_str());
  std::exit(2);
}

/// CPU time the hypervisor gave to other guests while this one's vCPUs
/// wanted to run (the `steal` column of /proc/stat), summed over vCPUs.
double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t ticks[8] = {};
  stat >> cpu;
  for (std::uint64_t& t : ticks) stat >> t;
  if (!stat || cpu != "cpu") Die("cannot read /proc/stat");
  return static_cast<double>(ticks[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Measures the share of the machine's vCPU time stolen by the
/// hypervisor from construction to Stop().
class StealMeter {
 public:
  StealMeter() : t0_(Clock::now()), steal0_(StealSeconds()) {}
  double Stop() const {
    const double wall = SecondsSince(t0_) *
                        static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
    return Ratio(StealSeconds() - steal0_, wall);
  }

 private:
  Clock::time_point t0_;
  double steal0_;
};

// ---------------------------------------------------------------------
// Workloads. Each stresses a different layer; README.md gives the reasons.
// ---------------------------------------------------------------------

struct WorkloadDef {
  const char* name;
  std::size_t txns;
  TransportKind transport;
  /// §5.4 request/network logs on and a checkpoint every 32 sink epochs.
  bool durable;
  Workload (*make)(std::uint64_t seed, std::size_t txns);
};

Workload MakeTpcePush(std::uint64_t seed, std::size_t txns) {
  TpceOptions o;
  o.num_machines = kMachines;
  o.num_txns = txns;
  o.seed = seed;
  return MakeTpceWorkload(o);
}

// The Table-1 Microbenchmark at the repo's bench scale: 20k records per
// machine, 200 hot, every txn distributed with 9 remote records.
Workload MakeMicroWire(std::uint64_t seed, std::size_t txns) {
  MicroOptions o;
  o.num_machines = kMachines;
  o.records_per_machine = 20'000;
  o.hot_set_size = 200;
  o.num_txns = txns;
  o.seed = seed;
  return MakeMicroWorkload(o);
}

Workload MakeTpccDurable(std::uint64_t seed, std::size_t txns) {
  TpccOptions o;
  o.num_machines = kMachines;
  o.num_txns = txns;
  o.seed = seed;
  return MakeTpccWorkload(o);
}

// Checkpoint capture cost grows with run length, so a workload's txn count
// is part of its definition and must match on both sides of a comparison.
constexpr WorkloadDef kWorkloads[] = {
    {"tpce_push", 30'000, TransportKind::kDirect, false, MakeTpcePush},
    {"micro_wire", 20'000, TransportKind::kInProcess, false, MakeMicroWire},
    {"tpcc_durable", 20'000, TransportKind::kDirect, true, MakeTpccDurable},
};

LocalClusterOptions ClusterOptions(const WorkloadDef& def) {
  LocalClusterOptions o;
  o.streaming = true;
  o.scheduler.sink_size = kSinkSize;
  o.transport.kind = def.transport;
  o.record_recovery_logs = def.durable;
  o.checkpoint_every = def.durable ? kCheckpointEvery : 0;
  return o;
}

// ---------------------------------------------------------------------
// Oracle: RunSerial over the same trace, kept as digests so that neither
// its store nor its results hold memory during the timed runs.
// ---------------------------------------------------------------------

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h ^ v;
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t ResultDigest(const TxnResult& r) {
  std::uint64_t h = Mix(r.id, r.committed ? 1 : 2);
  h = Mix(h, r.output.size());
  for (const std::int64_t v : r.output) {
    h = Mix(h, static_cast<std::uint64_t>(v));
  }
  return h;
}

std::uint64_t StateDigest(const PartitionedStore& store) {
  std::uint64_t h = 0;
  for (const auto& [key, rec] : store.Snapshot()) {
    h = Mix(h, key);
    h = Mix(h, rec.num_fields());
    h = Mix(h, rec.padding_bytes());
    h = Mix(h, rec.is_absent() ? 1 : 0);
    const std::int64_t* f = rec.fields_data();
    for (std::size_t i = 0; i < rec.num_fields(); ++i) {
      h = Mix(h, static_cast<std::uint64_t>(f[i]));
    }
  }
  return h;
}

struct Oracle {
  std::vector<TxnId> ids;
  std::vector<std::uint64_t> digests;
  std::uint64_t state = 0;
};

Oracle RunOracle(const Workload& w) {
  auto one = std::make_shared<HashPartitionMap>(1);
  PartitionedStore serial(1, one);
  {
    PartitionedStore loaded(w.num_machines, w.partition_map);
    w.loader(loaded);
    for (auto& [key, rec] : loaded.Snapshot()) serial.Upsert(key, rec);
  }
  Result<SerialRunResult> run =
      RunSerial(*w.procedures, w.SequencedRequests(), serial.store(0));
  if (!run.ok()) Die("RunSerial failed: " + run.status().ToString());
  Oracle o;
  for (const TxnResult& r : run->results) {
    o.ids.push_back(r.id);
    o.digests.push_back(ResultDigest(r));
  }
  o.state = StateDigest(serial);
  return o;
}

struct Check {
  std::uint64_t failed = 0;
  TxnId first_bad = kInvalidTxnId;
  std::string why;
};

/// Counts the txns whose result is missing or differs from the oracle.
/// A differing final store or a faulted run fails every txn.
Check CompareWithOracle(const Oracle& oracle,
                        const std::vector<TxnResult>& results,
                        std::uint64_t state, const Status& fault) {
  const std::uint64_t all = oracle.ids.size();
  const TxnId first = oracle.ids.empty() ? kInvalidTxnId : oracle.ids[0];
  if (!fault.ok()) return {all, first, "run faulted: " + fault.ToString()};
  if (results.size() != all) {
    return {all, first,
            "got " + std::to_string(results.size()) + " results, want " +
                std::to_string(all)};
  }
  Check c;
  for (std::size_t i = 0; i < all; ++i) {
    if (results[i].id == oracle.ids[i] &&
        ResultDigest(results[i]) == oracle.digests[i]) {
      continue;
    }
    if (c.failed++ == 0) {
      c.first_bad = oracle.ids[i];
      c.why = "result differs from RunSerial";
    }
  }
  if (state != oracle.state) {
    if (c.failed == 0) c.first_bad = first;
    c.failed = all;
    c.why = "final store differs from RunSerial";
  }
  return c;
}

// ---------------------------------------------------------------------
// Tracing: spans kept in memory per thread, plus the procedure shim's
// executor accounting. One Tracer per traced pass or repetition.
// ---------------------------------------------------------------------

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct Span {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;  // 0 = root
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t thread;
};

/// One thread's spans and, on executor threads, its procedure-call
/// accounting. Only the owning thread writes it while the traced work runs.
struct ThreadLog {
  std::uint32_t index = 0;
  std::vector<Span> spans;
  std::vector<std::uint64_t> open;  // ids of the spans open on this thread
  std::uint64_t calls = 0;
  std::int64_t first_start_ns = 0;
  std::int64_t last_end_ns = 0;
  std::int64_t first_cpu_ns = 0;
  std::int64_t last_cpu_ns = 0;
  std::int64_t proc_ns = 0;
  std::vector<std::int64_t> gaps_ns;
};

std::atomic<std::uint64_t> g_next_span_id{1};
std::atomic<std::uint64_t> g_next_tracer{1};

class Tracer {
 public:
  Tracer() : generation_(g_next_tracer.fetch_add(1)) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The calling thread's log, registered on first use.
  ThreadLog& Local() {
    thread_local std::uint64_t cached_generation = 0;
    thread_local ThreadLog* cached = nullptr;
    if (cached_generation != generation_) {
      std::lock_guard<std::mutex> lock(mu_);
      logs_.push_back(std::make_unique<ThreadLog>());
      logs_.back()->index = static_cast<std::uint32_t>(logs_.size() - 1);
      cached = logs_.back().get();
      cached_generation = generation_;
    }
    return *cached;
  }

  /// Procedure spans on executor threads hang under this span.
  void set_run_span(std::uint64_t id) { run_span_.store(id); }

  /// A copy of `reg` (restricted to `ids`) whose procedures run through
  /// the timing shim. The copy borrows `reg`'s functions by value.
  std::shared_ptr<ProcedureRegistry> WrapProcedures(
      const ProcedureRegistry& reg, const std::set<ProcId>& ids) {
    auto out = std::make_shared<ProcedureRegistry>();
    for (const ProcId id : ids) {
      const ProcedureFn* fn = reg.Find(id);
      if (fn == nullptr) continue;  // RunTPart reports the missing proc
      names_.push_back(reg.Name(id));
      const char* name = names_.back().c_str();
      out->Register(id, reg.Name(id),
                    [this, name, fn = *fn](TxnContext& ctx) {
                      return Procedure(name, fn, ctx);
                    });
    }
    return out;
  }

  std::vector<const ThreadLog*> logs() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<const ThreadLog*> out;
    for (const auto& l : logs_) out.push_back(l.get());
    return out;
  }

  /// Total duration of the spans called `name`, in seconds.
  double SpanSeconds(const char* name) const {
    std::int64_t ns = 0;
    for (const ThreadLog* l : logs()) {
      for (const Span& s : l->spans) {
        if (std::strcmp(s.name, name) == 0) ns += s.end_ns - s.start_ns;
      }
    }
    return static_cast<double>(ns) * 1e-9;
  }

 private:
  Status Procedure(const char* name, const ProcedureFn& fn, TxnContext& ctx) {
    ThreadLog& t = Local();
    const std::int64_t cpu0 = t.calls == 0 ? ThreadCpuNs() : 0;
    const std::int64_t start = NowNs();
    Status s = fn(ctx);
    const std::int64_t end = NowNs();
    if (t.calls == 0) {
      t.first_start_ns = start;
      t.first_cpu_ns = cpu0;
    } else {
      t.gaps_ns.push_back(start - t.last_end_ns);
    }
    t.last_cpu_ns = ThreadCpuNs();
    t.last_end_ns = end;
    t.proc_ns += end - start;
    ++t.calls;
    t.spans.push_back(Span{name, g_next_span_id.fetch_add(1),
                           run_span_.load(), start, end, t.index});
    return s;
  }

  const std::uint64_t generation_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  // guarded by mu_
  std::deque<std::string> names_;
  std::atomic<std::uint64_t> run_span_{0};
};

/// Records a span around `f()` on `tracer` (parent: the innermost span open
/// on this thread) and returns f's result; with no tracer it just calls f.
template <typename F>
auto Traced(Tracer* tracer, const char* name, F&& f,
            std::uint64_t* span_id = nullptr) {
  if (tracer == nullptr) return f();
  ThreadLog& t = tracer->Local();
  const std::uint64_t id = g_next_span_id.fetch_add(1);
  if (span_id != nullptr) *span_id = id;
  const std::uint64_t parent = t.open.empty() ? 0 : t.open.back();
  t.open.push_back(id);
  const std::int64_t start = NowNs();
  struct Close {
    ThreadLog& t;
    const char* name;
    std::uint64_t id, parent;
    std::int64_t start;
    ~Close() {
      t.open.pop_back();
      t.spans.push_back(Span{name, id, parent, start, NowNs(), t.index});
    }
  } close{t, name, id, parent, start};
  return f();
}

/// Writes every span of `tracers` as a Chrome trace (Perfetto loads it).
void WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) Die("cannot write spans to " + path);
  std::int64_t t0 = INT64_MAX;
  for (const Tracer* tr : tracers) {
    for (const ThreadLog* l : tr->logs()) {
      for (const Span& s : l->spans) t0 = std::min(t0, s.start_ns);
    }
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  std::uint32_t tid_base = 0;
  for (const Tracer* tr : tracers) {
    const auto logs = tr->logs();
    for (const ThreadLog* l : logs) {
      for (const Span& s : l->spans) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                      "\"parent\":%llu}}",
                      first ? "" : ",\n", s.name, tid_base + s.thread,
                      static_cast<double>(s.start_ns - t0) / 1e3,
                      static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent));
        out << buf;
        first = false;
      }
    }
    tid_base += static_cast<std::uint32_t>(logs.size());
  }
  out << "]}\n";
  if (!out.flush()) Die("cannot write spans to " + path);
}

// ---------------------------------------------------------------------
// Planning pass: the trace through Sequencer -> TPartScheduler on one
// thread, as the runtime's admission and scheduler stages run it. Traced,
// it also counts plan quality and round-trips every SinkPlan through the
// wire codec (encoded once, decoded once per machine), dropping each plan
// as soon as that is done.
// ---------------------------------------------------------------------

struct PlanPass {
  double seconds = 0.0;
  double steal_frac = 0.0;
  Metrics m;
  /// Txns in rounds whose decoded plan differed from the encoded one.
  std::uint64_t wire_failed = 0;
};

PlanPass RunPlanPass(const Workload& w, const LocalClusterOptions& opts,
                     Tracer* tracer) {
  TPartScheduler::Options so = opts.scheduler;
  so.graph.num_machines = w.num_machines;
  Sequencer seq(opts.pipeline.sequencer);
  TPartScheduler sched(so, w.partition_map);

  PlanPass r;
  std::uint64_t txns = 0, distributed = 0, push = 0, cache_remote = 0,
                storage_remote = 0, write_backs = 0, remote_write_backs = 0,
                bytes = 0;
  std::vector<std::uint64_t> load(w.num_machines, 0);
  auto take = [&](std::vector<SinkPlan> plans) {
    if (tracer == nullptr) return;
    for (SinkPlan& plan : plans) {
      txns += plan.txns.size();
      distributed += plan.NumDistributed();
      for (const TxnPlan& p : plan.txns) {
        ++load.at(p.machine);
        for (const ReadStep& rs : p.reads) {
          push += rs.kind == ReadSourceKind::kPush;
          cache_remote += rs.kind == ReadSourceKind::kCacheRemote;
          storage_remote += rs.kind == ReadSourceKind::kStorage &&
                            rs.src_machine != p.machine;
        }
        write_backs += p.write_backs.size();
        for (const WriteBackStep& wb : p.write_backs) {
          remote_write_backs += wb.home != p.machine;
        }
      }
      const std::string wire = Traced(tracer, "EncodeSinkPlan",
                                      [&] { return EncodeSinkPlan(plan); });
      bytes += wire.size();
      for (std::size_t m = 0; m < w.num_machines; ++m) {
        Result<SinkPlan> back = Traced(tracer, "DecodeSinkPlan",
                                       [&] { return DecodeSinkPlan(wire); });
        if (!back.ok() || !(*back == plan)) {
          r.wire_failed += plan.txns.size();
          break;
        }
      }
    }
  };
  auto schedule = [&](const TxnBatch& batch) {
    take(Traced(tracer, "TPartScheduler::OnBatch",
                [&] { return sched.OnBatch(batch); }));
  };

  const StealMeter steal;
  const Clock::time_point t0 = Clock::now();
  for (const TxnSpec& spec : w.requests) {
    Traced(tracer, "Sequencer::Submit", [&] { seq.Submit(spec); });
    while (true) {
      std::optional<TxnBatch> batch = Traced(
          tracer, "Sequencer::NextBatch", [&] { return seq.NextBatch(); });
      if (!batch.has_value()) break;
      schedule(*batch);
    }
  }
  if (seq.pending() > 0) {
    std::optional<TxnBatch> batch =
        Traced(tracer, "Sequencer::Flush", [&] { return seq.Flush(); });
    if (batch.has_value()) schedule(*batch);
  }
  take(Traced(tracer, "TPartScheduler::Drain", [&] { return sched.Drain(); }));
  r.seconds = SecondsSince(t0);
  r.steal_frac = steal.Stop();
  if (tracer == nullptr) return r;

  const double n = static_cast<double>(w.requests.size());
  const double us = 1e6 / n;
  const double seq_s = tracer->SpanSeconds("Sequencer::Submit") +
                       tracer->SpanSeconds("Sequencer::NextBatch") +
                       tracer->SpanSeconds("Sequencer::Flush");
  const double sched_s = tracer->SpanSeconds("TPartScheduler::OnBatch") +
                         tracer->SpanSeconds("TPartScheduler::Drain");
  // Plan counting and the wire round trip run inside `take`, outside the
  // OnBatch/Drain spans, so sched_s covers the scheduler alone.
  Metrics& m = r.m;
  m["sequencer.us_per_txn"] = seq_s * us;
  m["scheduler.us_per_txn"] = sched_s * us;
  m["scheduler.partition_sink_us_per_txn"] = sched.scheduling_seconds() * us;
  m["tgraph.insert_us_per_txn"] =
      std::max(0.0, sched_s - sched.scheduling_seconds()) * us;
  m["tgraph.max_unsunk"] = static_cast<double>(sched.max_tgraph_size());
  m["scheduler.pushes_eliminated_per_txn"] =
      static_cast<double>(sched.num_pushes_eliminated()) / n;
  m["plan.distributed_frac"] = Ratio(distributed, txns);
  m["plan.push_reads_per_txn"] = Ratio(push, txns);
  m["plan.cache_remote_reads_per_txn"] = Ratio(cache_remote, txns);
  m["plan.storage_remote_reads_per_txn"] = Ratio(storage_remote, txns);
  m["plan.remote_reads_per_txn"] =
      Ratio(push + cache_remote + storage_remote, txns);
  m["plan.write_backs_per_txn"] = Ratio(write_backs, txns);
  m["plan.remote_write_backs_per_txn"] = Ratio(remote_write_backs, txns);
  m["plan.load_max_over_mean"] =
      Ratio(static_cast<double>(*std::max_element(load.begin(), load.end())),
            static_cast<double>(txns) / static_cast<double>(w.num_machines));
  m["wire.plan_encode_us_per_txn"] = tracer->SpanSeconds("EncodeSinkPlan") * us;
  m["wire.plan_decode_us_per_txn"] = tracer->SpanSeconds("DecodeSinkPlan") * us;
  m["wire.plan_bytes_per_txn"] = Ratio(bytes, txns);
  if (txns != w.requests.size()) r.wire_failed = w.requests.size();
  return r;
}

// ---------------------------------------------------------------------
// One cluster repetition: construct (timed as setup), run (timed), check
// against the oracle, read the program's counters.
// ---------------------------------------------------------------------

struct Rep {
  double construct_s = 0.0;
  /// Share of vCPU time the hypervisor stole during the repetition.
  double steal_frac = 0.0;
  Metrics m;  // every metric this repetition measured
  Check check;
};

double RssPeakMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  Die("no VmHWM in /proc/self/status");
}

/// Hands freed heap back to the kernel and resets the peak-RSS mark to
/// the current RSS, so the next VmHWM read covers what is live now plus
/// what follows, whatever earlier repetitions left in the allocator.
void ResetRssPeak() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  if (!clear.flush()) Die("cannot reset peak RSS via /proc/self/clear_refs");
}

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

std::set<ProcId> ProcIdsOf(const Workload& w) {
  std::set<ProcId> ids;
  for (const TxnSpec& spec : w.requests) ids.insert(spec.proc);
  return ids;
}

Rep RunRep(Workload& w, const WorkloadDef& def, const Oracle& oracle,
           Tracer* tracer) {
  const LocalClusterOptions opts = ClusterOptions(def);
  // The traced repetition swaps in a shimmed copy of the procedures and a
  // timed loader; the guard puts the originals back.
  struct Restore {
    Workload& w;
    std::shared_ptr<ProcedureRegistry> procedures;
    std::function<void(PartitionedStore&)> loader;
    ~Restore() {
      w.procedures = std::move(procedures);
      w.loader = std::move(loader);
    }
  } restore{w, w.procedures, w.loader};
  double load_s = 0.0;
  if (tracer != nullptr) {
    w.procedures = tracer->WrapProcedures(*restore.procedures, ProcIdsOf(w));
    w.loader = [&, inner = restore.loader](PartitionedStore& store) {
      const Clock::time_point t0 = Clock::now();
      Traced(tracer, "Workload::loader", [&] { inner(store); });
      load_s = SecondsSince(t0);
    };
  }

  Rep rep;
  const StealMeter steal;
  Clock::time_point t0 = Clock::now();
  std::unique_ptr<LocalCluster> cluster =
      Traced(tracer, "LocalCluster::LocalCluster",
             [&] { return std::make_unique<LocalCluster>(&w, opts); });
  rep.construct_s = SecondsSince(t0);

  ResetRssPeak();
  rusage ru0{}, ru1{};
  getrusage(RUSAGE_SELF, &ru0);
  const std::uint64_t allocs0 = AllocCalls();
  const std::uint64_t alloc_bytes0 = AllocBytes();
  if (tracer != nullptr) SetAllocCounting(true);
  t0 = Clock::now();
  std::uint64_t run_span = 0;
  const ClusterRunOutcome out = Traced(
      tracer, "LocalCluster::RunTPart",
      [&] {
        if (tracer != nullptr) tracer->set_run_span(run_span);
        return cluster->RunTPart();
      },
      &run_span);
  const double run_s = SecondsSince(t0);
  rep.steal_frac = steal.Stop();
  SetAllocCounting(false);
  getrusage(RUSAGE_SELF, &ru1);
  const double rss_mb = RssPeakMb();

  rep.check = CompareWithOracle(oracle, out.results,
                                StateDigest(cluster->store()), out.fault);
  const double n = static_cast<double>(out.committed + out.aborted);

  Metrics& m = rep.m;
  m["tps"] = Ratio(n, run_s);
  m["cpu_us_per_txn"] = Ratio((TimevalSeconds(ru1.ru_utime) -
                               TimevalSeconds(ru0.ru_utime) +
                               TimevalSeconds(ru1.ru_stime) -
                               TimevalSeconds(ru0.ru_stime)) * 1e6,
                              n);
  m["rss_peak_mb"] = rss_mb;

  const TransportStats& ts = out.transport;
  m["net.messages_per_txn"] = Ratio(ts.messages_sent, n);
  m["net.bytes_out_per_txn"] = Ratio(ts.bytes_out, n);
  m["net.packets_per_txn"] = Ratio(ts.packets_out, n);
  m["net.msgs_per_batch"] = Ratio(ts.batched_messages, ts.batches_sent);
  m["net.retries"] = static_cast<double>(ts.retries);
  m["net.backpressure_waits_per_txn"] = Ratio(ts.backpressure_waits, n);

  const PipelineStats& ps = out.pipeline;
  m["runtime.vcsw_per_txn"] = Ratio(ru1.ru_nvcsw - ru0.ru_nvcsw, n);
  m["runtime.ivcsw_per_txn"] = Ratio(ru1.ru_nivcsw - ru0.ru_nivcsw, n);
  m["runtime.stage_backpressure_per_txn"] = Ratio(ps.backpressure_waits, n);
  m["runtime.epoch_queue_high_water"] =
      static_cast<double>(ps.epoch_queue_high_water);
  m["runtime.inbound_high_water"] =
      static_cast<double>(ps.machine_inbound_high_water);
  m["runtime.inbound_spills"] = static_cast<double>(ps.machine_inbound_spills);
  // Power-of-two resolution: Histogram::Quantile returns a bucket bound.
  m["runtime.admit_commit_p50_us"] =
      static_cast<double>(ps.admit_to_commit_us.Quantile(0.50));
  m["runtime.admit_commit_p99_us"] =
      static_cast<double>(ps.admit_to_commit_us.Quantile(0.99));

  const CheckpointStats& cs = out.checkpoint;
  const double captures = static_cast<double>(cs.checkpoints_taken);
  m["runtime.checkpoint_captures"] = captures;
  m["runtime.checkpoint_capture_ms_mean"] =
      Ratio(static_cast<double>(cs.capture_us) / 1e3, captures);
  m["runtime.checkpoint_capture_us_per_txn"] = Ratio(cs.capture_us, n);
  m["runtime.checkpoint_records_per_capture"] =
      Ratio(cs.records_captured, captures);
  m["runtime.request_log_peak_kb"] =
      static_cast<double>(cs.request_log_bytes_peak) / 1024.0;
  m["runtime.network_log_peak_kb"] =
      static_cast<double>(cs.network_log_bytes_peak) / 1024.0;

  std::uint64_t reads = 0, wbs = 0, sticky = 0, entries = 0;
  for (std::size_t i = 0; i < cluster->num_machines(); ++i) {
    Machine& mach = cluster->machine(static_cast<MachineId>(i));
    reads += mach.storage().reads_served();
    wbs += mach.storage().write_backs_applied();
    sticky += mach.storage().sticky_hits();
    entries +=
        mach.cache().num_version_entries() + mach.cache().num_epoch_entries();
  }
  m["storage.reads_served_per_txn"] = Ratio(reads, n);
  m["storage.write_backs_per_txn"] = Ratio(wbs, n);
  m["storage.sticky_hits_per_txn"] = Ratio(sticky, n);
  m["cache.entries_left"] = static_cast<double>(entries);

  if (tracer == nullptr) return rep;
  m["runtime.allocs_per_txn"] = Ratio(AllocCalls() - allocs0, n);
  m["runtime.alloc_kb_per_txn"] =
      Ratio(static_cast<double>(AllocBytes() - alloc_bytes0) / 1024.0, n);
  m["storage.load_s"] = load_s;
  std::int64_t proc_ns = 0, cpu_ns = 0, wall_ns = 0;
  std::vector<double> gaps_us;
  for (const ThreadLog* l : tracer->logs()) {
    if (l->calls == 0) continue;
    proc_ns += l->proc_ns;
    cpu_ns += l->last_cpu_ns - l->first_cpu_ns;
    wall_ns += l->last_end_ns - l->first_start_ns;
    for (const std::int64_t g : l->gaps_ns) gaps_us.push_back(g / 1e3);
  }
  m["executor.proc_us_per_txn"] = Ratio(proc_ns / 1e3, n);
  m["executor.cpu_us_per_txn"] = Ratio(cpu_ns / 1e3, n);
  m["executor.wait_frac"] = 1.0 - Ratio(static_cast<double>(cpu_ns),
                                        static_cast<double>(wall_ns));
  m["executor.between_us_p50"] = Quantile(gaps_us, 0.50);
  m["executor.between_us_p99"] = Quantile(std::move(gaps_us), 0.99);
  return rep;
}

// ---------------------------------------------------------------------
// Metric catalogue: every name the driver prints, with its unit.
// ---------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"tps", "1/s"},          {"cpu_us_per_txn", "us"}, {"plan_tps", "1/s"},
    {"rss_peak_mb", "MB"},   {"setup_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"sequencer.us_per_txn", "us"},
    {"scheduler.us_per_txn", "us"},
    {"scheduler.partition_sink_us_per_txn", "us"},
    {"tgraph.insert_us_per_txn", "us"},
    {"tgraph.max_unsunk", "count"},
    {"scheduler.pushes_eliminated_per_txn", "count"},
    {"plan.distributed_frac", "frac"},
    {"plan.remote_reads_per_txn", "count"},
    {"plan.push_reads_per_txn", "count"},
    {"plan.cache_remote_reads_per_txn", "count"},
    {"plan.storage_remote_reads_per_txn", "count"},
    {"plan.write_backs_per_txn", "count"},
    {"plan.remote_write_backs_per_txn", "count"},
    {"plan.load_max_over_mean", "ratio"},
    {"wire.plan_encode_us_per_txn", "us"},
    {"wire.plan_decode_us_per_txn", "us"},
    {"wire.plan_bytes_per_txn", "B"},
    {"net.messages_per_txn", "count"},
    {"net.bytes_out_per_txn", "B"},
    {"net.packets_per_txn", "count"},
    {"net.msgs_per_batch", "count"},
    {"net.retries", "count"},
    {"net.backpressure_waits_per_txn", "count"},
    {"runtime.vcsw_per_txn", "count"},
    {"runtime.ivcsw_per_txn", "count"},
    {"runtime.allocs_per_txn", "count"},
    {"runtime.alloc_kb_per_txn", "KB"},
    {"runtime.stage_backpressure_per_txn", "count"},
    {"runtime.epoch_queue_high_water", "count"},
    {"runtime.inbound_high_water", "count"},
    {"runtime.inbound_spills", "count"},
    {"runtime.checkpoint_captures", "count"},
    {"runtime.checkpoint_capture_ms_mean", "ms"},
    {"runtime.checkpoint_capture_us_per_txn", "us"},
    {"runtime.checkpoint_records_per_capture", "count"},
    {"runtime.request_log_peak_kb", "KB"},
    {"runtime.network_log_peak_kb", "KB"},
    {"runtime.admit_commit_p50_us", "us"},
    {"runtime.admit_commit_p99_us", "us"},
    {"executor.proc_us_per_txn", "us"},
    {"executor.cpu_us_per_txn", "us"},
    {"executor.wait_frac", "frac"},
    {"executor.between_us_p50", "us"},
    {"executor.between_us_p99", "us"},
    {"storage.load_s", "s"},
    {"storage.reads_served_per_txn", "count"},
    {"storage.write_backs_per_txn", "count"},
    {"storage.sticky_hits_per_txn", "count"},
    {"cache.entries_left", "count"},
    {"trace.overhead_frac", "frac"},
};

/// Prints each metric of `defs` as a readable line, then the JSON result
/// line. Returns false when a metric is missing or not finite.
bool Report(const Metrics& m, const MetricDef* defs, std::size_t ndefs,
            std::uint64_t attempted, std::uint64_t failed) {
  bool ok = true;
  std::string json;
  for (std::size_t i = 0; i < ndefs; ++i) {
    const auto it = m.find(defs[i].name);
    if (it == m.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "cluster_bench: metric %s missing or not finite\n",
                   defs[i].name);
      ok = false;
      continue;
    }
    std::printf("%-40s %.6g %s\n", defs[i].name, it->second, defs[i].unit);
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", defs[i].name, it->second,
                  defs[i].unit);
    json += buf;
  }
  const bool correct = ok && failed == 0;
  std::printf("failed_frac %.6g\n",
              Ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), json.c_str());
  std::fflush(stdout);
  return correct;
}

/// The samples that ran while the hypervisor stole at most kMaxStealFrac
/// of the vCPU time, or all of them when fewer than kMinReps did.
template <typename T>
std::vector<T> Undisturbed(const std::vector<T>& samples) {
  std::vector<T> clean;
  for (const T& s : samples) {
    if (s.steal_frac <= kMaxStealFrac) clean.push_back(s);
  }
  return static_cast<int>(clean.size()) >= kMinReps ? clean : samples;
}

/// Per-key median over `reps`.
Metrics MedianOf(const std::vector<Metrics>& reps) {
  std::map<std::string, std::vector<double>> values;
  for (const Metrics& r : reps) {
    for (const auto& [k, v] : r) values[k].push_back(v);
  }
  Metrics out;
  for (auto& [k, v] : values) out[k] = Median(std::move(v));
  return out;
}

// ---------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t txns = 0;  // 0 = the workload's own count
  std::string spans;
  bool self_test = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = std::strtoul(v.c_str(), &end, 10) != 0;
    } else if (flag == "--txns") {
      a.txns = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      Die("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') Die("bad value for " + flag + ": " + v);
  }
  return a;
}

const WorkloadDef& FindWorkload(const std::string& name) {
  for (const WorkloadDef& def : kWorkloads) {
    if (name == def.name) return def;
  }
  Die("unknown --workload '" + name +
      "' (tpce_push, micro_wire or tpcc_durable)");
}

int RunBenchmark(const Args& a) {
  const WorkloadDef& def = FindWorkload(a.workload);
  if (a.trace && !AllocCountingLinked()) {
    Die("--trace 1 needs the cluster_bench_traced driver");
  }
  const std::size_t txns = a.txns > 0 ? a.txns : def.txns;
  std::printf("# workload=%s seed=%llu txns=%zu machines=%zu sink_size=%zu "
              "trace=%d\n",
              def.name, static_cast<unsigned long long>(a.seed), txns,
              kMachines, kSinkSize, a.trace ? 1 : 0);

  // Setup part one: generating the seeded trace and initial data. The
  // first generation is the one every repetition uses; the repeats below
  // only time generation again for setup_s.
  std::vector<double> generate_s;
  Clock::time_point t0 = Clock::now();
  Workload w = def.make(a.seed, txns);
  generate_s.push_back(SecondsSince(t0));
  // Untimed, and outside setup_s.
  const Oracle oracle = RunOracle(w);
  const LocalClusterOptions opts = ClusterOptions(def);

  std::uint64_t attempted = 0, failed = 0;
  auto tally = [&](const Check& c, const char* what) {
    attempted += w.requests.size();
    failed += c.failed;
    if (c.failed > 0) {
      std::fprintf(stderr,
                   "cluster_bench: %s: %llu of %zu txns wrong, first T%llu: "
                   "%s\n",
                   what, static_cast<unsigned long long>(c.failed),
                   w.requests.size(),
                   static_cast<unsigned long long>(c.first_bad),
                   c.why.c_str());
    }
  };
  // The host's clock ramps up under load and the allocator's arenas fill
  // on first use; one checked but unmeasured repetition absorbs both.
  tally(RunRep(w, def, oracle, nullptr).check, "warm-up repetition");

  Metrics result;
  if (!a.trace) {
    while (static_cast<int>(generate_s.size()) < kGenerations) {
      t0 = Clock::now();
      const Workload again = def.make(a.seed, txns);
      generate_s.push_back(SecondsSince(t0));
    }
    std::vector<Rep> reps;
    std::vector<PlanPass> passes;
    std::size_t clean = 0;  // repetitions within kMaxStealFrac
    const Clock::time_point start = Clock::now();
    // Measures for --seconds; while fewer than kMinReps repetitions ran
    // undisturbed, keeps going for up to kStealGraceSeconds more.
    while (static_cast<int>(reps.size()) < kMinReps ||
           SecondsSince(start) < a.seconds ||
           (static_cast<int>(clean) < kMinReps &&
            SecondsSince(start) < a.seconds + kStealGraceSeconds)) {
      for (int i = 0; i < kPlanPassesPerRep; ++i) {
        passes.push_back(RunPlanPass(w, opts, nullptr));
      }
      reps.push_back(RunRep(w, def, oracle, nullptr));
      tally(reps.back().check, "repetition");
      clean += reps.back().steal_frac <= kMaxStealFrac;
    }
    std::vector<Metrics> measured;
    std::vector<double> construct_s, plan_tps;
    for (const Rep& rep : Undisturbed(reps)) {
      measured.push_back(rep.m);
      construct_s.push_back(rep.construct_s);
    }
    for (const PlanPass& pass : Undisturbed(passes)) {
      plan_tps.push_back(
          Ratio(static_cast<double>(w.requests.size()), pass.seconds));
    }
    result = MedianOf(measured);
    result["plan_tps"] = Quantile(plan_tps, kPlanQuantile);
    result["setup_s"] = Median(generate_s) + Median(construct_s);
    std::printf("# reps=%zu of %zu, plan passes=%zu of %zu (the rest ran "
                "while the hypervisor stole over %.0f%% of the vCPU time)\n",
                measured.size(), reps.size(), plan_tps.size(), passes.size(),
                kMaxStealFrac * 100);
    const bool ok = Report(result, kEndToEnd, std::size(kEndToEnd), attempted,
                           failed);
    return ok ? 0 : 1;
  }

  Tracer plan_tracer;
  PlanPass pass = RunPlanPass(w, opts, &plan_tracer);
  attempted += w.requests.size();
  failed += pass.wire_failed;
  if (pass.wire_failed > 0) {
    std::fprintf(stderr, "cluster_bench: SinkPlan wire round trip differs\n");
  }
  // Untraced and traced repetitions alternate, so trace.overhead_frac is a
  // paired comparison; spans are kept from the first traced one only.
  std::vector<Metrics> plain, traced;
  std::unique_ptr<Tracer> span_tracer;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(traced.size()) < kMinReps ||
         SecondsSince(start) < a.seconds) {
    Rep p = RunRep(w, def, oracle, nullptr);
    tally(p.check, "untraced repetition");
    plain.push_back(std::move(p.m));
    auto tracer = std::make_unique<Tracer>();
    Rep t = RunRep(w, def, oracle, tracer.get());
    tally(t.check, "traced repetition");
    traced.push_back(std::move(t.m));
    if (span_tracer == nullptr) span_tracer = std::move(tracer);
  }
  if (!a.spans.empty()) WriteSpans(a.spans, {&plan_tracer, span_tracer.get()});
  // Counters the program keeps come from the untraced repetitions; the
  // shim's and the allocation hook's numbers from the traced ones.
  result = MedianOf(traced);
  const double traced_tps = result["tps"];
  for (const auto& [k, v] : MedianOf(plain)) result[k] = v;
  for (const auto& [k, v] : pass.m) result[k] = v;
  result["trace.overhead_frac"] = 1.0 - Ratio(traced_tps, result["tps"]);
  std::printf("# reps=%zu untraced + %zu traced, spans=%s\n", plain.size(),
              traced.size(), a.spans.empty() ? "-" : a.spans.c_str());
  const bool ok =
      Report(result, kPerLayer, std::size(kPerLayer), attempted, failed);
  return ok ? 0 : 1;
}

/// The oracle comparison must notice a single changed output, a missing
/// result and a changed final store, and pass an unchanged run.
int SelfTest() {
  int failures = 0;
  auto expect = [&](bool cond, const std::string& what) {
    std::printf("%s %s\n", cond ? "ok  " : "FAIL", what.c_str());
    failures += cond ? 0 : 1;
  };
  for (const WorkloadDef& def : kWorkloads) {
    const std::string name = def.name;
    Workload w = def.make(7, 300);
    const Oracle oracle = RunOracle(w);
    LocalCluster cluster(&w, ClusterOptions(def));
    ClusterRunOutcome out = cluster.RunTPart();
    const std::uint64_t state = StateDigest(cluster.store());
    Check c = CompareWithOracle(oracle, out.results, state, out.fault);
    expect(c.failed == 0, name + ": unchanged run matches the oracle");

    std::size_t victim = out.results.size() / 2;
    while (victim < out.results.size() && out.results[victim].output.empty()) {
      ++victim;
    }
    expect(victim < out.results.size(), name + ": a result has output");
    if (victim >= out.results.size()) continue;
    std::vector<TxnResult> changed = out.results;
    changed[victim].output.back() += 1;
    c = CompareWithOracle(oracle, changed, state, out.fault);
    expect(c.failed == 1 && c.first_bad == out.results[victim].id,
           name + ": one changed output is one failure at its txn id");

    changed = out.results;
    changed.pop_back();
    c = CompareWithOracle(oracle, changed, state, out.fault);
    expect(c.failed == oracle.ids.size(),
           name + ": a missing result fails every txn");

    c = CompareWithOracle(oracle, out.results, state + 1, out.fault);
    expect(c.failed == oracle.ids.size(),
           name + ": a changed final store fails every txn");
  }
  std::printf("self-test: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tpart::clusterbench

int main(int argc, char** argv) {
  const tpart::clusterbench::Args args =
      tpart::clusterbench::ParseArgs(argc, argv);
  if (args.self_test) return tpart::clusterbench::SelfTest();
  return tpart::clusterbench::RunBenchmark(args);
}
