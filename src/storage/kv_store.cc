#include "storage/kv_store.h"

namespace tpart {

Status KvStore::Insert(ObjectKey key, Record record) {
  auto [it, inserted] = records_.emplace(key, std::move(record));
  if (!inserted) {
    return Status::AlreadyExists("key already present");
  }
  total_bytes_ += it->second.SizeBytes();
  if (ordered_ != nullptr) ordered_->Insert(key);
  return Status::Ok();
}

Result<Record> KvStore::Read(ObjectKey key) const {
  auto it = records_.find(key);
  if (it == records_.end()) {
    return Status::NotFound("key not present");
  }
  return it->second;
}

const Record* KvStore::Find(ObjectKey key) const {
  auto it = records_.find(key);
  return it == records_.end() ? nullptr : &it->second;
}

Record* KvStore::ReadMutable(ObjectKey key) {
  auto it = records_.find(key);
  return it == records_.end() ? nullptr : &it->second;
}

Status KvStore::Update(ObjectKey key, Record record) {
  auto it = records_.find(key);
  if (it == records_.end()) {
    return Status::NotFound("key not present");
  }
  total_bytes_ -= it->second.SizeBytes();
  it->second = std::move(record);
  total_bytes_ += it->second.SizeBytes();
  return Status::Ok();
}

void KvStore::Upsert(ObjectKey key, Record record) {
  auto it = records_.find(key);
  if (it == records_.end()) {
    total_bytes_ += record.SizeBytes();
    records_.emplace(key, std::move(record));
    if (ordered_ != nullptr) ordered_->Insert(key);
    return;
  }
  total_bytes_ -= it->second.SizeBytes();
  it->second = std::move(record);
  total_bytes_ += it->second.SizeBytes();
}

Status KvStore::Delete(ObjectKey key) {
  auto it = records_.find(key);
  if (it == records_.end()) {
    return Status::NotFound("key not present");
  }
  total_bytes_ -= it->second.SizeBytes();
  records_.erase(it);
  if (ordered_ != nullptr) ordered_->Erase(key);
  return Status::Ok();
}

std::size_t KvStore::Scan(
    ObjectKey lo, ObjectKey hi,
    const std::function<void(ObjectKey, const Record&)>& fn) const {
  if (ordered_ == nullptr) return 0;
  return ordered_->ScanRange(lo, hi, [&](ObjectKey key) {
    auto it = records_.find(key);
    if (it != records_.end()) fn(key, it->second);
  });
}

}  // namespace tpart
