#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/random.h"
#include "storage/zigzag_checkpoint.h"

namespace tpart {
namespace {

TEST(ZigZagTest, PutGetDelete) {
  ZigZagCheckpointStore store;
  EXPECT_TRUE(store.Get(1).is_absent());
  store.Put(1, Record{10});
  EXPECT_EQ(store.Get(1).field(0), 10);
  store.Put(1, Record{20});
  EXPECT_EQ(store.Get(1).field(0), 20);
  EXPECT_EQ(store.size(), 1u);
  store.Delete(1);
  EXPECT_TRUE(store.Get(1).is_absent());
  EXPECT_EQ(store.size(), 0u);
}

TEST(ZigZagTest, CheckpointCapturesCurrentState) {
  ZigZagCheckpointStore store;
  for (ObjectKey k = 0; k < 10; ++k) store.Put(k, Record{(long)k});
  std::map<ObjectKey, std::int64_t> snap;
  EXPECT_EQ(store.Checkpoint([&](ObjectKey k, const Record& r) {
              snap[k] = r.field(0);
            }),
            10u);
  EXPECT_EQ(snap.size(), 10u);
  for (ObjectKey k = 0; k < 10; ++k) EXPECT_EQ(snap[k], (long)k);
  EXPECT_EQ(store.rounds(), 1u);
}

TEST(ZigZagTest, WritesDuringCheckpointDoNotTearSnapshot) {
  // Interleave: freeze, write new values, finish the scan — the scan must
  // see the pre-freeze values; reads must see the new ones.
  ZigZagCheckpointStore store;
  for (ObjectKey k = 0; k < 100; ++k) store.Put(k, Record{1});

  std::map<ObjectKey, std::int64_t> snap;
  bool mutated = false;
  store.Checkpoint([&](ObjectKey k, const Record& r) {
    if (!mutated) {
      // Mutate *every* key mid-scan, once.
      for (ObjectKey j = 0; j < 100; ++j) store.Put(j, Record{2});
      mutated = true;
    }
    snap[k] = r.field(0);
  });
  for (const auto& [k, v] : snap) {
    EXPECT_EQ(v, 1) << "snapshot tore at key " << k;
  }
  for (ObjectKey k = 0; k < 100; ++k) {
    EXPECT_EQ(store.Get(k).field(0), 2);
  }
}

TEST(ZigZagTest, SecondRoundSeesNewValues) {
  ZigZagCheckpointStore store;
  store.Put(1, Record{1});
  store.Checkpoint([](ObjectKey, const Record&) {});
  store.Put(1, Record{2});
  std::int64_t got = 0;
  store.Checkpoint([&](ObjectKey, const Record& r) { got = r.field(0); });
  EXPECT_EQ(got, 2);
  EXPECT_EQ(store.rounds(), 2u);
}

TEST(ZigZagTest, DeletedKeysAbsentFromLaterCheckpoints) {
  ZigZagCheckpointStore store;
  store.Put(1, Record{1});
  store.Put(2, Record{2});
  store.Delete(1);
  std::size_t captured = store.Checkpoint([](ObjectKey, const Record&) {});
  EXPECT_EQ(captured, 1u);
}

TEST(ZigZagTest, LoadAndApplyDirtyMatchTheSourceAcrossSlotChunks) {
  // Thousands of keys span several slot chunks; the image must equal the
  // source after the bulk load and after each incremental fold.
  KvStore source;
  for (ObjectKey k = 0; k < 3000; ++k) {
    source.Upsert(k, Record{static_cast<std::int64_t>(k), 1, 2, 3, 4, 5, 6});
  }
  ZigZagCheckpointStore store;
  EXPECT_EQ(store.Load(source), 3000u);
  const auto expect_same = [&] {
    std::map<ObjectKey, Record> want;
    source.ForEach([&](ObjectKey k, const Record& r) { want.emplace(k, r); });
    std::map<ObjectKey, Record> got;
    store.Checkpoint([&](ObjectKey k, const Record& r) {
      EXPECT_TRUE(got.emplace(k, r).second);
    });
    EXPECT_EQ(got, want);
    EXPECT_EQ(store.size(), want.size());
  };
  expect_same();

  std::vector<ObjectKey> dirty;
  for (ObjectKey k = 2990; k < 4200; ++k) {  // updates, then inserts
    source.Upsert(k, Record{-static_cast<std::int64_t>(k)});
    dirty.push_back(k);
  }
  for (ObjectKey k = 0; k < 3000; k += 7) {  // deletes
    (void)source.Delete(k);
    dirty.push_back(k);
  }
  EXPECT_EQ(store.ApplyDirty(source, dirty), dirty.size());
  expect_same();
  EXPECT_TRUE(store.Get(7).is_absent());
  EXPECT_EQ(store.Get(4199).field(0), -4199);
}

TEST(ZigZagTest, ConcurrentMutatorAndCheckpointer) {
  ZigZagCheckpointStore store;
  constexpr ObjectKey kKeys = 64;
  for (ObjectKey k = 0; k < kKeys; ++k) store.Put(k, Record{0});

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    Rng rng(1);
    std::int64_t v = 1;
    while (!stop.load()) {
      store.Put(rng.NextBelow(kKeys), Record{v++});
    }
  });

  for (int round = 0; round < 50; ++round) {
    std::map<ObjectKey, std::int64_t> snap;
    store.Checkpoint(
        [&](ObjectKey k, const Record& r) { snap[k] = r.field(0); });
    EXPECT_EQ(snap.size(), kKeys);  // no key lost or duplicated
  }
  stop = true;
  mutator.join();
  EXPECT_EQ(store.rounds(), 50u);
}

}  // namespace
}  // namespace tpart
