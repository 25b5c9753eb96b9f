#include "storage/partitioned_store.h"

#include <algorithm>

namespace tpart {

PartitionedStore::PartitionedStore(
    std::size_t num_machines,
    std::shared_ptr<const DataPartitionMap> partition_map)
    : partition_map_(std::move(partition_map)) {
  stores_.reserve(num_machines);
  for (std::size_t i = 0; i < num_machines; ++i) {
    stores_.push_back(std::make_unique<KvStore>());
  }
}

Status PartitionedStore::Insert(ObjectKey key, Record record) {
  return store(HomeOf(key)).Insert(key, std::move(record));
}

Result<Record> PartitionedStore::Read(ObjectKey key) const {
  return store(HomeOf(key)).Read(key);
}

Status PartitionedStore::Update(ObjectKey key, Record record) {
  return store(HomeOf(key)).Update(key, std::move(record));
}

void PartitionedStore::Upsert(ObjectKey key, Record record) {
  store(HomeOf(key)).Upsert(key, std::move(record));
}

std::size_t PartitionedStore::TotalRecords() const {
  std::size_t total = 0;
  for (const auto& s : stores_) total += s->size();
  return total;
}

std::vector<std::pair<ObjectKey, Record>> PartitionedStore::Snapshot() const {
  std::vector<std::pair<ObjectKey, Record>> out;
  out.reserve(TotalRecords());
  for (const auto& s : stores_) {
    s->ForEach(
        [&](ObjectKey key, const Record& rec) { out.emplace_back(key, rec); });
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace tpart
