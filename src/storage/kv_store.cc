#include "storage/kv_store.h"

namespace tpart {

Status KvStore::Insert(ObjectKey key, Record record) {
  if (!records_.emplace(key, std::move(record)).second) {
    return Status::AlreadyExists("key already present");
  }
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

Status KvStore::Update(ObjectKey key, Record record) {
  auto it = records_.find(key);
  if (it == records_.end()) {
    return Status::NotFound("key not present");
  }
  it->second = std::move(record);
  return Status::Ok();
}

void KvStore::Upsert(ObjectKey key, Record record) {
  records_[key] = std::move(record);
}

Status KvStore::Delete(ObjectKey key) {
  if (records_.erase(key) == 0) {
    return Status::NotFound("key not present");
  }
  return Status::Ok();
}

std::size_t KvStore::ForEach(
    const std::function<void(ObjectKey, const Record&)>& fn) const {
  for (const auto& [key, record] : records_) fn(key, record);
  return records_.size();
}

}  // namespace tpart
