// TPC-C on the threaded runtime: New-Order and Payment stored procedures
// over a warehouse-partitioned cluster, executed by the T-Part engine and
// checked against a serial run, with TPC-C's ~1% New-Order rollbacks
// exercising the §5.3 abort path (aborting transactions forward the
// values they read).
//
//   ./build/examples/tpcc_cluster

#include <cstdio>

#include "exec/serial_executor.h"
#include "runtime/cluster.h"
#include "workload/tpcc.h"

using namespace tpart;

int main() {
  TpccOptions wopts;
  wopts.num_machines = 4;
  wopts.warehouses_per_machine = 2;
  wopts.customers_per_district = 100;
  wopts.num_items = 1'000;
  wopts.num_txns = 3'000;
  wopts.abort_prob = 0.01;
  const Workload workload = MakeTpccWorkload(wopts);

  std::printf("TPC-C: %u warehouses on %zu machines, %zu txns, "
              "%.1f%% multi-warehouse\n",
              wopts.warehouses_per_machine *
                  static_cast<std::uint32_t>(wopts.num_machines),
              wopts.num_machines, workload.requests.size(),
              100.0 * MeasureDistributedRate(workload.requests,
                                             *workload.partition_map));

  // Serial reference.
  auto one = std::make_shared<HashPartitionMap>(1);
  PartitionedStore reference(1, one);
  {
    PartitionedStore scratch(workload.num_machines, workload.partition_map);
    workload.loader(scratch);
    for (auto& [k, rec] : scratch.Snapshot()) reference.Upsert(k, rec);
  }
  auto serial = RunSerial(*workload.procedures,
                          workload.SequencedRequests(), reference.store(0));
  if (!serial.ok()) return 1;

  LocalClusterOptions copts;
  copts.scheduler.sink_size = 100;
  LocalCluster cluster(&workload, copts);

  const ClusterRunOutcome outcome = cluster.RunTPart();
  const bool ok = outcome.committed == serial->committed &&
                  outcome.aborted == serial->aborted &&
                  cluster.store().Snapshot() == reference.Snapshot();
  std::printf("T-Part: %llu committed, %llu aborted (rolled-back "
              "New-Orders), state %s serial\n",
              static_cast<unsigned long long>(outcome.committed),
              static_cast<unsigned long long>(outcome.aborted),
              ok ? "==" : "!=");
  if (!ok) return 1;

  // Peek at one district to show real data moved.
  const Result<Record> district =
      reference.Read(MakeObjectKey(kTpccDistrict, 0));
  if (district.ok()) {
    std::printf("district(w0,d0): next_o_id=%lld ytd=%lld\n",
                static_cast<long long>(district->field(0)),
                static_cast<long long>(district->field(1)));
  }
  return 0;
}
