#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "storage/data_partition.h"
#include "storage/kv_store.h"
#include "storage/partitioned_store.h"
#include "storage/record.h"

namespace tpart {
namespace {

// ---- Record -------------------------------------------------------------

TEST(RecordTest, FieldsAndPadding) {
  Record r(3, 100);
  EXPECT_EQ(r.num_fields(), 3u);
  EXPECT_EQ(r.field(1), 0);
  r.set_field(1, 42);
  r.add_to_field(1, 8);
  EXPECT_EQ(r.field(1), 50);
  EXPECT_EQ(r.SizeBytes(), 3 * 8 + 100u);
}

TEST(RecordTest, InitializerListAndEquality) {
  Record a{1, 2, 3};
  Record b{1, 2, 3};
  Record c{1, 2, 4};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.ToString(), "[1, 2, 3]");
}

TEST(RecordTest, AbsentMarker) {
  EXPECT_TRUE(Record::Absent().is_absent());
  EXPECT_FALSE(Record{1}.is_absent());
  EXPECT_FALSE(Record::Absent() == Record());
}

// ---- KvStore -----------------------------------------------------------

TEST(KvStoreTest, CrudLifecycle) {
  KvStore store;
  EXPECT_TRUE(store.Insert(1, Record{10}).ok());
  EXPECT_EQ(store.Insert(1, Record{11}).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(store.Read(1)->field(0), 10);
  EXPECT_TRUE(store.Update(1, Record{20}).ok());
  EXPECT_EQ(store.Read(1)->field(0), 20);
  EXPECT_EQ(store.Update(2, Record{1}).code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.Delete(1).ok());
  EXPECT_EQ(store.Delete(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Read(1).status().code(), StatusCode::kNotFound);
}

TEST(KvStoreTest, UpsertInsertsOrOverwrites) {
  KvStore store;
  store.Upsert(5, Record{1});
  store.Upsert(5, Record{2});
  EXPECT_EQ(store.Read(5)->field(0), 2);
  EXPECT_EQ(store.size(), 1u);
}

TEST(KvStoreTest, ForEachVisitsEveryRecordOnce) {
  KvStore store;
  for (ObjectKey k = 0; k < 100; ++k) store.Upsert(k, Record{(long)k});
  // A delete in the middle shifts later probe-chain entries back; the
  // visit must still see each survivor exactly once with its own record.
  ASSERT_TRUE(store.Delete(50).ok());
  std::vector<ObjectKey> seen;
  EXPECT_EQ(store.ForEach([&](ObjectKey k, const Record& r) {
              EXPECT_EQ(r.field(0), (long)k);
              seen.push_back(k);
            }),
            99u);
  std::sort(seen.begin(), seen.end());
  std::vector<ObjectKey> want;
  for (ObjectKey k = 0; k < 100; ++k) {
    if (k != 50) want.push_back(k);
  }
  EXPECT_EQ(seen, want);
}

// ---- DataPartitionMap ------------------------------------------------------

TEST(DataPartitionTest, HashMapSpreadsKeys) {
  HashPartitionMap map(8);
  std::vector<int> counts(8, 0);
  for (ObjectKey k = 0; k < 8000; ++k) counts[map.Locate(k)]++;
  for (const int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

TEST(DataPartitionTest, HashMapIsStable) {
  HashPartitionMap map(5);
  for (ObjectKey k = 0; k < 100; ++k) {
    EXPECT_EQ(map.Locate(k), map.Locate(k));
  }
}

TEST(DataPartitionTest, RangeMapBlocks) {
  RangePartitionMap map(4, 100);
  EXPECT_EQ(map.Locate(MakeObjectKey(0, 0)), 0u);
  EXPECT_EQ(map.Locate(MakeObjectKey(0, 99)), 0u);
  EXPECT_EQ(map.Locate(MakeObjectKey(0, 100)), 1u);
  EXPECT_EQ(map.Locate(MakeObjectKey(0, 399)), 3u);
  EXPECT_EQ(map.Locate(MakeObjectKey(0, 400)), 0u);  // wraps
}

TEST(DataPartitionTest, LookupMapOverridesFallback) {
  auto fallback = std::make_shared<HashPartitionMap>(4);
  LookupPartitionMap map(4, fallback);
  const ObjectKey k = 12345;
  const MachineId fb = fallback->Locate(k);
  const MachineId other = (fb + 1) % 4;
  map.Assign(k, other);
  EXPECT_EQ(map.Locate(k), other);
  EXPECT_EQ(map.Locate(k + 1), fallback->Locate(k + 1));
  EXPECT_EQ(map.num_explicit_entries(), 1u);
}

// ---- PartitionedStore ------------------------------------------------------

TEST(PartitionedStoreTest, RoutesToHome) {
  auto map = std::make_shared<RangePartitionMap>(3, 10);
  PartitionedStore store(3, map);
  ASSERT_TRUE(store.Insert(MakeObjectKey(0, 5), Record{1}).ok());
  ASSERT_TRUE(store.Insert(MakeObjectKey(0, 15), Record{2}).ok());
  EXPECT_EQ(store.store(0).size(), 1u);
  EXPECT_EQ(store.store(1).size(), 1u);
  EXPECT_EQ(store.store(2).size(), 0u);
  EXPECT_EQ(store.Read(MakeObjectKey(0, 15))->field(0), 2);
  EXPECT_EQ(store.TotalRecords(), 2u);
}

TEST(PartitionedStoreTest, SnapshotSortedAndStateEquals) {
  auto map = std::make_shared<HashPartitionMap>(4);
  PartitionedStore a(4, map), b(4, map);
  for (ObjectKey k = 0; k < 50; ++k) {
    a.Upsert(k, Record{(long)k});
    b.Upsert(49 - k, Record{(long)(49 - k)});
  }
  auto snap = a.Snapshot();
  ASSERT_EQ(snap.size(), 50u);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].first, snap[i].first);
  }
  EXPECT_EQ(a.Snapshot(), b.Snapshot());
  b.Upsert(7, Record{999});
  EXPECT_NE(a.Snapshot(), b.Snapshot());

  // Delete-heavy history: erasing every odd key reshuffles each store's
  // hash slots, yet the snapshot stays sorted and holds exactly the
  // survivors (the oracle's state digest relies on this).
  for (ObjectKey k = 1; k < 50; k += 2) {
    ASSERT_TRUE(a.store(a.HomeOf(k)).Delete(k).ok());
  }
  snap = a.Snapshot();
  ASSERT_EQ(snap.size(), 25u);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].first, 2 * i);
    EXPECT_EQ(snap[i].second, Record{(long)(2 * i)});
  }
}

}  // namespace
}  // namespace tpart
