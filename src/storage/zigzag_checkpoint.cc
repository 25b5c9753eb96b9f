#include "storage/zigzag_checkpoint.h"

#include <mutex>

namespace tpart {

ZigZagCheckpointStore::Slot& ZigZagCheckpointStore::SlotFor(ObjectKey key) {
  const auto [it, inserted] = index_.emplace(key, num_slots_);
  if (inserted) {
    if (num_slots_ % kChunkSlots == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    }
    ++num_slots_;
  }
  return SlotAt(it->second);
}

void ZigZagCheckpointStore::PutLocked(ObjectKey key, const Record& value) {
  Slot& s = SlotFor(key);
  // Copy-assignment reuses the slot's field storage.
  s.copy[s.mw] = value;
  // Reads follow the freshest copy (zig-zag's MR <- MW on update).
  s.mr = s.mw;
}

void ZigZagCheckpointStore::DeleteLocked(ObjectKey key) {
  auto it = index_.find(key);
  if (it == index_.end()) return;
  Slot& s = SlotAt(it->second);
  s.copy[s.mw] = Record::Absent();
  s.mr = s.mw;
}

void ZigZagCheckpointStore::Put(ObjectKey key, Record value) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  PutLocked(key, value);
}

std::size_t ZigZagCheckpointStore::Load(const KvStore& source) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  index_.reserve(index_.size() + source.size());
  return source.ForEach(
      [&](ObjectKey key, const Record& value) { PutLocked(key, value); });
}

Record ZigZagCheckpointStore::Get(ObjectKey key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return Record::Absent();
  const Slot& s = SlotAt(it->second);
  return s.copy[s.mr];
}

void ZigZagCheckpointStore::Delete(ObjectKey key) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  DeleteLocked(key);
}

std::size_t ZigZagCheckpointStore::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::size_t n = 0;
  for (std::size_t i = 0; i < num_slots_; ++i) {
    const Slot& s = SlotAt(i);
    if (!s.copy[s.mr].is_absent()) ++n;
  }
  return n;
}

std::size_t ZigZagCheckpointStore::Checkpoint(
    const std::function<void(ObjectKey, const Record&)>& emit) {
  // Phase 1 (brief exclusive section): freeze the current committed copy
  // of every key by pointing writes at the other one.
  struct Frozen {
    ObjectKey key;
    std::size_t slot;
    std::uint8_t copy;
  };
  std::vector<Frozen> frozen;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    frozen.reserve(index_.size());
    for (const auto& [key, slot] : index_) {
      Slot& s = SlotAt(slot);
      s.mw = static_cast<std::uint8_t>(1 - s.mr);
      frozen.push_back(Frozen{key, slot, s.mr});
    }
  }
  // Phase 2: stream the frozen copies. Concurrent Put()s write the other
  // copy; a Put also flips mr to the written copy, so later reads see the
  // new value while our frozen index keeps snapshotting the old one.
  // `emit` runs outside the lock so it may itself touch the store.
  std::size_t captured = 0;
  for (const Frozen& f : frozen) {
    Record rec;
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      rec = SlotAt(f.slot).copy[f.copy];
    }
    if (rec.is_absent()) continue;
    emit(f.key, rec);
    ++captured;
  }
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    ++rounds_;
  }
  return captured;
}

std::size_t ZigZagCheckpointStore::ApplyDirty(
    const KvStore& source, const std::vector<ObjectKey>& dirty_keys) {
  // One exclusive section for the whole set: a lock round-trip per key
  // cost more than the fold itself.
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (const ObjectKey key : dirty_keys) {
    if (const Record* value = source.Find(key); value != nullptr) {
      PutLocked(key, *value);
    } else {
      DeleteLocked(key);
    }
  }
  return dirty_keys.size();
}

std::uint64_t ZigZagCheckpointStore::rounds() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return rounds_;
}

}  // namespace tpart
