#ifndef TPART_WORKLOAD_MICRO_H_
#define TPART_WORKLOAD_MICRO_H_

#include <cstdint>

#include "workload/workload.h"

namespace tpart {

/// The §6.3 Microbenchmark: "one table that [is] horizontally and evenly
/// partitioned across different machines. The size of each record is 164
/// bytes. We split each data partition into the hot set and cold set."
/// A transaction reads 10 records (1 hot + 9 cold); a read-write
/// transaction then "randomly writes back 5 of them"; a distributed
/// transaction places `remote_records` of its records on remote machines;
/// a skewed transaction "has 50% probability of accessing remote records
/// on machines that are numbered in the first one-fifth."
///
/// Defaults follow Table 1 (record count scaled down; the paper's
/// 1,000,000 records/machine is overridable).
struct MicroOptions {
  std::size_t num_machines = 4;
  std::uint64_t records_per_machine = 100'000;  // Table 1: 1,000,000
  std::size_t num_txns = 10'000;
  int records_per_txn = 10;        // "#Records Accessed per Txn."
  int remote_records = 9;          // "#Remote Records per Distributed Txn."
  int write_records = 5;           // "#Write Records per Read-write Txn."
  double distributed_rate = 1.0;   // "Distributed Txn. Rate"
  double read_write_rate = 0.5;    // "Read-write Txn. Rate"
  double skewed_rate = 0.3;        // "Skewed Txn. Rate"
  std::uint64_t hot_set_size = 10'000;  // "Txn. Conflict Rate 1% (10k)"
  std::size_t record_bytes = 164;
  std::uint64_t seed = 1;
};

/// Builds the workload (loader, procedure, trace).
Workload MakeMicroWorkload(const MicroOptions& options);

/// Procedure id used by the Microbenchmark.
inline constexpr ProcId kMicroProc = 100;

}  // namespace tpart

#endif  // TPART_WORKLOAD_MICRO_H_
