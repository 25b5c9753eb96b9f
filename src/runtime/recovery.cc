#include "runtime/recovery.h"

namespace tpart {

namespace {

/// The one body behind both overloads: a fresh store with the loaded
/// database, partition `id` reloaded from `checkpoint` when there is one,
/// and a machine whose sends go nowhere running Machine::ReplayLogs — the
/// same routine Machine::Recover() runs in-run.
ReplayResult Replay(const Workload& workload, MachineId id,
                    MachineCheckpoint* checkpoint,
                    const std::vector<Machine::RequestLogEntry>& request_log,
                    const std::vector<Message>& network_log,
                    SinkEpoch sticky_ttl) {
  ReplayResult out;
  out.store = std::make_unique<PartitionedStore>(workload.num_machines,
                                                 workload.partition_map);
  workload.loader(*out.store);
  KvStore& store = out.store->store(id);
  if (checkpoint != nullptr) checkpoint->ReloadPartition(store);

  Machine machine(
      id, workload.num_machines, &store, workload.procedures.get(),
      [](MachineId, Message) { /* §5.4 replay is local */ },
      [](std::vector<std::pair<MachineId, Message>>&) {}, sticky_ttl);
  (void)machine.ReplayLogs(checkpoint, request_log, network_log);
  machine.StartTPart();
  machine.FinishEnqueue();
  machine.JoinExecutor();
  out.results = machine.TakeResults();
  machine.Stop();
  return out;
}

}  // namespace

ReplayResult ReplayMachine(
    const Workload& workload, MachineId id,
    const std::vector<Machine::RequestLogEntry>& request_log,
    const std::vector<Message>& network_log, SinkEpoch sticky_ttl) {
  return Replay(workload, id, /*checkpoint=*/nullptr, request_log,
                network_log, sticky_ttl);
}

ReplayResult ReplayMachine(
    const Workload& workload, MachineId id, MachineCheckpoint& checkpoint,
    const std::vector<Machine::RequestLogEntry>& request_log_suffix,
    const std::vector<Message>& network_log_suffix, SinkEpoch sticky_ttl) {
  return Replay(workload, id, &checkpoint, request_log_suffix,
                network_log_suffix, sticky_ttl);
}

}  // namespace tpart
