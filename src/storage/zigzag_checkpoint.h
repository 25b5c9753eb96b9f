#ifndef TPART_STORAGE_ZIGZAG_CHECKPOINT_H_
#define TPART_STORAGE_ZIGZAG_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"
#include "storage/kv_store.h"
#include "storage/record.h"

namespace tpart {

/// Zig-Zag consistent checkpointing (Cao et al., VLDB'11), the
/// checkpointing method §5.4 names as supported by deterministic systems:
/// every record keeps two copies AS[k][0] / AS[k][1] plus read/write
/// index bits MR[k] / MW[k]. Mutators write AS[k][MW[k]] and flip MR to
/// follow; a checkpoint round first sets MW[k] = !MR[k] for every key, so
/// the checkpointer can stream AS[k][MR-at-round-start] — a
/// transaction-consistent snapshot — while writes proceed into the other
/// copy with zero quiescence.
///
/// This store is the checkpointable variant of the per-machine storage:
/// reads/writes are wait-free with respect to an in-progress checkpoint
/// (a shared mutex protects only the map shape and the round flip).
class ZigZagCheckpointStore {
 public:
  /// Inserts or overwrites `key` (the mutator path).
  void Put(ObjectKey key, Record value);

  /// Puts every record of `source` under one lock with the map sized up
  /// front (the load-time checkpoint). Returns the number of records.
  std::size_t Load(const KvStore& source);

  /// Reads the latest committed value; Record::Absent() when missing.
  Record Get(ObjectKey key) const;

  /// Deletes `key` (recorded as an absent version; the checkpoint still
  /// reflects whichever state the round captured).
  void Delete(ObjectKey key);

  std::size_t size() const;

  /// Runs one checkpoint round: flips the write bits, then streams the
  /// frozen copies through `emit` in unspecified key order. Writes racing
  /// with the scan land in the other copy and never tear the snapshot.
  /// Returns the number of records captured (absent records skipped).
  std::size_t Checkpoint(
      const std::function<void(ObjectKey, const Record&)>& emit);

  /// Number of completed checkpoint rounds.
  std::uint64_t rounds() const;

  /// Incremental refresh: folds only `dirty_keys` from `source` into this
  /// checkpoint image (Put when present, Delete when absent), leaving all
  /// other keys untouched. With write-backs as the only storage writes,
  /// passing the keys written back since the previous refresh makes this
  /// image equal to a full copy of `source` at O(dirty) cost, under one
  /// exclusive lock. Returns the number of keys folded in.
  std::size_t ApplyDirty(const KvStore& source,
                         const std::vector<ObjectKey>& dirty_keys);

 private:
  struct Slot {
    Record copy[2];
    std::uint8_t mr = 0;  // copy serving reads (latest committed)
    std::uint8_t mw = 0;  // copy receiving writes
    Slot() {
      copy[0] = Record::Absent();
      copy[1] = Record::Absent();
    }
  };
  // Slots live in fixed-size chunks that never move, and the index maps a
  // key to its slot number. A key keeps its slot for the store's life
  // (Delete writes an absent copy), so growth only rehashes the 16-byte
  // index entries, never the records, and an insert allocates no node.
  static constexpr std::size_t kChunkSlots = 1024;

  // mu_ held exclusively.
  Slot& SlotFor(ObjectKey key);
  void PutLocked(ObjectKey key, const Record& value);
  void DeleteLocked(ObjectKey key);
  // mu_ held (shared or exclusive).
  Slot& SlotAt(std::size_t i) {
    return chunks_[i / kChunkSlots][i % kChunkSlots];
  }
  const Slot& SlotAt(std::size_t i) const {
    return chunks_[i / kChunkSlots][i % kChunkSlots];
  }

  mutable std::shared_mutex mu_;
  FlatMap<ObjectKey, std::size_t> index_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t num_slots_ = 0;
  std::uint64_t rounds_ = 0;
};

}  // namespace tpart

#endif  // TPART_STORAGE_ZIGZAG_CHECKPOINT_H_
