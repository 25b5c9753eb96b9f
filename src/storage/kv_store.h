#ifndef TPART_STORAGE_KV_STORE_H_
#define TPART_STORAGE_KV_STORE_H_

#include <cstddef>
#include <functional>

#include "common/flat_map.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/record.h"

namespace tpart {

/// Single-machine record store with the CRUD interface T-Part assumes
/// ("works alongside any storage with the CRUD interface", §1).
///
/// An open-addressing hash index (common/flat_map.h — no per-record heap
/// node, no pointer chase per probe) plus one full visitor. Not
/// internally synchronized: each machine/executor owns its store and
/// accesses it from one thread (the deterministic execution model
/// guarantees this).
class KvStore {
 public:
  /// Inserts a new record. Fails with AlreadyExists when present.
  Status Insert(ObjectKey key, Record record);

  /// Reads a record. Fails with NotFound when absent.
  Result<Record> Read(ObjectKey key) const;

  /// The stored record without a copy, or nullptr; valid until the next
  /// mutation of the store.
  const Record* Find(ObjectKey key) const;

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

  /// Invokes `fn(key, record)` once per stored record, in no particular
  /// order (the order depends on the mutation history; callers that
  /// compare or print sort first). `fn` must not mutate the store.
  /// Returns the number of records visited.
  std::size_t ForEach(
      const std::function<void(ObjectKey, const Record&)>& fn) const;

 private:
  FlatMap<ObjectKey, Record> records_;
};

}  // namespace tpart

#endif  // TPART_STORAGE_KV_STORE_H_
