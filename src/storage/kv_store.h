#ifndef TPART_STORAGE_KV_STORE_H_
#define TPART_STORAGE_KV_STORE_H_

#include <cstddef>
#include <functional>
#include <memory>

#include "common/flat_map.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/ordered_index.h"
#include "storage/record.h"

namespace tpart {

/// Single-machine record store with the CRUD interface T-Part assumes
/// ("works alongside any storage with the CRUD interface", §1).
///
/// Internally an open-addressing hash primary index (common/flat_map.h —
/// no per-record heap node, no pointer chase per probe), plus an optional
/// ordered secondary index (B+-tree) maintained on every mutation so the
/// workloads can run range scans. Not internally synchronized: each
/// machine/executor owns its store and accesses it from one thread (the
/// deterministic execution model guarantees this).
class KvStore {
 public:
  /// If `maintain_ordered_index` is true, an ordered index over ObjectKey
  /// is kept in sync for Scan().
  explicit KvStore(bool maintain_ordered_index = true)
      : ordered_(maintain_ordered_index ? new OrderedIndex() : nullptr) {}

  /// Inserts a new record. Fails with AlreadyExists when present.
  Status Insert(ObjectKey key, Record record);

  /// Reads a record. Fails with NotFound when absent.
  Result<Record> Read(ObjectKey key) const;

  /// The stored record without a copy, or nullptr; valid until the next
  /// mutation of the store.
  const Record* Find(ObjectKey key) const;

  /// Returns a mutable pointer to the stored record, or nullptr.
  Record* ReadMutable(ObjectKey key);

  /// Overwrites an existing record. Fails with NotFound when absent.
  Status Update(ObjectKey key, Record record);

  /// Inserts or overwrites unconditionally.
  void Upsert(ObjectKey key, Record record);

  /// Deletes a record. Fails with NotFound when absent. Blind deletes
  /// (where NotFound is the expected no-op) must void-cast with a
  /// comment saying why.
  [[nodiscard]] Status Delete(ObjectKey key);

  bool Contains(ObjectKey key) const { return records_.count(key) > 0; }
  std::size_t size() const { return records_.size(); }

  /// Range scan [lo, hi] in key order; invokes `fn(key, record)` for each.
  /// Requires the ordered index. Returns number of records visited.
  std::size_t Scan(ObjectKey lo, ObjectKey hi,
                   const std::function<void(ObjectKey, const Record&)>& fn)
      const;

  /// Total logical bytes stored (for buffer accounting).
  std::size_t TotalBytes() const { return total_bytes_; }

  /// Visits every stored key, in no particular order (the caller sorts).
  /// Control-plane use (migration planning) at a quiesced barrier only —
  /// the store is not internally synchronized.
  void ForEachKey(const std::function<void(ObjectKey)>& fn) const {
    for (const auto& [key, record] : records_) {
      (void)record;
      fn(key);
    }
  }

 private:
  FlatMap<ObjectKey, Record> records_;
  std::unique_ptr<OrderedIndex> ordered_;
  std::size_t total_bytes_ = 0;
};

}  // namespace tpart

#endif  // TPART_STORAGE_KV_STORE_H_
