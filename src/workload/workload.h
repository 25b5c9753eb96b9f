#ifndef TPART_WORKLOAD_WORKLOAD_H_
#define TPART_WORKLOAD_WORKLOAD_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/data_partition.h"
#include "storage/partitioned_store.h"
#include "txn/procedure.h"
#include "txn/txn.h"

namespace tpart {

/// Incremental source of client requests — what a streaming admission
/// stage pulls from instead of materializing the whole trace up front.
/// Next() yields requests in arrival order (ids unassigned; the
/// Sequencer assigns them) and nullopt once the source is exhausted.
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  virtual std::optional<TxnSpec> Next() = 0;
};

/// A generated workload: initial data loader, stored procedures,
/// data-partition map, and a totally ordered transaction trace. All four
/// engines (serial reference, Calvin sim, T-Part sim, threaded runtime)
/// consume the same Workload, which is what makes cross-engine
/// determinism checks meaningful.
struct Workload {
  std::string name;
  std::size_t num_machines = 0;
  std::shared_ptr<const DataPartitionMap> partition_map;
  std::shared_ptr<ProcedureRegistry> procedures;
  /// Populates the initial database (per-machine stores routed by
  /// partition_map).
  std::function<void(PartitionedStore&)> loader;
  /// Generated requests, ids unassigned (the Sequencer assigns them).
  std::vector<TxnSpec> requests;

  /// Requests with consecutive ids assigned starting at 1 — convenience
  /// for feeding engines directly without a Sequencer.
  std::vector<TxnSpec> SequencedRequests() const;

  /// One-at-a-time view over `requests` for the streaming pipeline. The
  /// source copies each spec on demand; it borrows this Workload, which
  /// must outlive it.
  std::unique_ptr<RequestSource> MakeRequestSource() const;
};

/// Fraction of `requests` whose footprint spans more than one machine
/// under `map` (the offered distributed-transaction rate).
double MeasureDistributedRate(const std::vector<TxnSpec>& requests,
                              const DataPartitionMap& map);

}  // namespace tpart

#endif  // TPART_WORKLOAD_WORKLOAD_H_
