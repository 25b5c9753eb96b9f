#ifndef TPART_BENCH_BENCH_UTIL_H_
#define TPART_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment harness. Each bench binary
// regenerates one table or figure of the paper (see DESIGN.md's
// experiment index) and prints the corresponding rows; EXPERIMENTS.md
// records paper-vs-measured.

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "sim/calvin_sim.h"
#include "sim/cost_model.h"
#include "sim/tpart_sim.h"
#include "workload/micro.h"
#include "workload/tpcc.h"
#include "workload/tpce.h"

namespace tpart::bench {

/// Prints a header line: "== Figure 5(b): ... ==".
inline void Header(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
}

/// One machine-readable result row, printed as a single JSON object per
/// line (JSONL) so downstream tooling can concatenate rows across bench
/// binaries. Enabled by the shared --json flag; the human-readable table
/// still prints either way.
///
///   JsonRow("scalability_tpcc").Add("machines", m)
///       .Add("tpart_tps", tps).Print();
class JsonRow {
 public:
  explicit JsonRow(const std::string& bench) {
    out_ << "{\"bench\":\"" << bench << "\"";
  }

  JsonRow& Add(const std::string& key, double value) {
    out_ << ",\"" << key << "\":";
    if (std::isfinite(value)) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", value);
      out_ << buf;
    } else {
      out_ << "null";  // JSON has no Inf/NaN
    }
    return *this;
  }

  JsonRow& Add(const std::string& key, std::uint64_t value) {
    out_ << ",\"" << key << "\":" << value;
    return *this;
  }

  JsonRow& Add(const std::string& key, std::int64_t value) {
    out_ << ",\"" << key << "\":" << value;
    return *this;
  }

  JsonRow& Add(const std::string& key, int value) {
    return Add(key, static_cast<std::int64_t>(value));
  }

  JsonRow& Add(const std::string& key, const std::string& value) {
    out_ << ",\"" << key << "\":\"" << value << "\"";
    return *this;
  }

  void Print() {
    std::printf("%s}\n", out_.str().c_str());
    std::fflush(stdout);
  }

 private:
  std::ostringstream out_;
};

/// Default simulated-cluster cost model for all experiments, including
/// the paper's instance heterogeneity ("not all EC2 instances yield
/// equivalent performance", §6.2): a deterministic ±20% per-machine speed
/// pattern. Laggards are what make Calvin's every-participant barriers
/// expensive.
inline CostModel DefaultCost(std::size_t machines = 0) {
  CostModel cost;
  cost.machine_speed.resize(machines);
  for (std::size_t i = 0; i < machines; ++i) {
    cost.machine_speed[i] = 0.8 + 0.4 * static_cast<double>((i * 7) % 10) /
                                      10.0;
  }
  return cost;
}

/// Microbenchmark defaults (Table 1), scaled down for bench runtime:
/// shapes are preserved; see EXPERIMENTS.md.
inline MicroOptions DefaultMicro(std::size_t machines, std::size_t txns) {
  MicroOptions o;
  o.num_machines = machines;
  o.records_per_machine = 20'000;  // paper: 1,000,000
  o.hot_set_size = 200;            // keeps the paper's 1% hot ratio
  o.num_txns = txns;
  // Table 1 defaults: dist 1.0, rw 0.5, skew 0.3, 10 reads, 9 remote,
  // 5 writes (already the MicroOptions defaults).
  return o;
}

inline CalvinSimOptions CalvinOpts(std::size_t machines) {
  CalvinSimOptions o;
  o.cost = DefaultCost(machines);
  o.num_machines = machines;
  return o;
}

inline TPartSimOptions TPartOpts(std::size_t machines,
                                 std::size_t sink_size = 100) {
  TPartSimOptions o;
  o.cost = DefaultCost(machines);
  o.num_machines = machines;
  o.scheduler.sink_size = sink_size;
  return o;
}

/// Runs both engines on `workload` and prints one table row.
struct EnginePair {
  RunStats calvin;
  RunStats tpart;
};

inline EnginePair RunBoth(const Workload& w, std::size_t machines,
                          std::size_t sink_size = 100) {
  const auto txns = w.SequencedRequests();
  EnginePair out;
  out.calvin = RunCalvinSim(CalvinOpts(machines), *w.partition_map, txns);
  out.tpart = RunTPartSim(TPartOpts(machines, sink_size), w.partition_map,
                          txns);
  return out;
}

}  // namespace tpart::bench

#endif  // TPART_BENCH_BENCH_UTIL_H_
