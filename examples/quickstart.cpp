// Quickstart: stand up a 3-machine deterministic database in one process,
// run a workload through the T-Part engine, and check that it produces
// exactly the same commit decisions and final state as a serial
// execution. (The Calvin baseline runs in the simulator:
// `cluster_cli --engine=both` without `--runtime`.)
//
//   ./build/examples/quickstart

#include <cstdio>

#include "exec/serial_executor.h"
#include "runtime/cluster.h"
#include "workload/micro.h"

using namespace tpart;

int main() {
  // 1. A workload: schema + loader + stored procedures + a totally
  //    ordered transaction trace. The Microbenchmark reads 10 records and
  //    updates 5 of them; most transactions span several machines.
  MicroOptions wopts;
  wopts.num_machines = 3;
  wopts.records_per_machine = 1'000;
  wopts.hot_set_size = 100;
  wopts.num_txns = 2'000;
  const Workload workload = MakeMicroWorkload(wopts);
  std::printf("workload: %zu txns, %.0f%% distributed\n",
              workload.requests.size(),
              100.0 * MeasureDistributedRate(workload.requests,
                                             *workload.partition_map));

  // 2. A serial reference run defines correctness.
  auto one = std::make_shared<HashPartitionMap>(1);
  PartitionedStore reference(1, one);
  {
    PartitionedStore scratch(workload.num_machines, workload.partition_map);
    workload.loader(scratch);
    for (auto& [k, rec] : scratch.Snapshot()) reference.Upsert(k, rec);
  }
  auto serial = RunSerial(*workload.procedures,
                          workload.SequencedRequests(), reference.store(0));
  if (!serial.ok()) {
    std::printf("serial run failed: %s\n", serial.status().ToString().c_str());
    return 1;
  }
  std::printf("serial:    %llu committed, %llu aborted\n",
              static_cast<unsigned long long>(serial->committed),
              static_cast<unsigned long long>(serial->aborted));

  // 3. The threaded cluster: N machines (executor + service threads)
  //    wired by in-memory channels.
  LocalClusterOptions copts;
  copts.scheduler.sink_size = 50;  // the paper recommends ~100 (§6.3.6)
  LocalCluster cluster(&workload, copts);

  const ClusterRunOutcome tpart = cluster.RunTPart();
  const bool tpart_ok = tpart.committed == serial->committed &&
                        tpart.aborted == serial->aborted &&
                        cluster.store().Snapshot() == reference.Snapshot();
  std::printf("T-Part:    %llu committed, %llu aborted, state %s serial\n",
              static_cast<unsigned long long>(tpart.committed),
              static_cast<unsigned long long>(tpart.aborted),
              tpart_ok ? "==" : "!=");
  return tpart_ok ? 0 : 1;
}
