#ifndef TPART_STORAGE_PARTITIONED_STORE_H_
#define TPART_STORAGE_PARTITIONED_STORE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/data_partition.h"
#include "storage/kv_store.h"

namespace tpart {

/// A cluster-wide view of storage: one KvStore per machine plus the
/// DataPartitionMap that routes keys to their home machine. Loaders use it
/// to place the initial database; the threaded runtime hands each machine
/// its own partition; Snapshot() compares end states across engines.
class PartitionedStore {
 public:
  PartitionedStore(std::size_t num_machines,
                   std::shared_ptr<const DataPartitionMap> partition_map);

  std::size_t num_machines() const { return stores_.size(); }

  const DataPartitionMap& partition_map() const { return *partition_map_; }

  /// Store local to `machine`.
  KvStore& store(MachineId machine) { return *stores_.at(machine); }
  const KvStore& store(MachineId machine) const { return *stores_.at(machine); }

  /// Home machine of `key`.
  MachineId HomeOf(ObjectKey key) const { return partition_map_->Locate(key); }

  /// Inserts `record` into the home partition of `key`.
  Status Insert(ObjectKey key, Record record);

  /// Reads from the home partition of `key`.
  Result<Record> Read(ObjectKey key) const;

  /// Updates in the home partition of `key`.
  Status Update(ObjectKey key, Record record);

  /// Upserts into the home partition of `key`.
  void Upsert(ObjectKey key, Record record);

  /// Total records across all machines.
  std::size_t TotalRecords() const;

  /// Collects all (key, record) pairs across machines into one vector
  /// sorted by key. Used to compare against a serial reference execution
  /// regardless of the partitioning scheme (two stores hold the same
  /// state iff their snapshots are equal).
  std::vector<std::pair<ObjectKey, Record>> Snapshot() const;

 private:
  std::vector<std::unique_ptr<KvStore>> stores_;
  std::shared_ptr<const DataPartitionMap> partition_map_;
};

}  // namespace tpart

#endif  // TPART_STORAGE_PARTITIONED_STORE_H_
