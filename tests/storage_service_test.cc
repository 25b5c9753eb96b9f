#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "common/random.h"

#include "runtime/storage_service.h"

namespace tpart {
namespace {

// Every read in these tests is served, or released by Shutdown(), well
// inside this bound.
constexpr std::chrono::seconds kWait{10};

Record Read(StorageService& svc, ObjectKey key, TxnId expected_version) {
  Result<Record> r = svc.BlockingReadFor(key, expected_version, kWait);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(*r) : Record();
}

TEST(StorageServiceTest, ReadsInitialVersionImmediately) {
  KvStore store;
  store.Upsert(1, Record{10});
  StorageService svc(&store);
  EXPECT_EQ(Read(svc, 1, kInvalidTxnId).field(0), 10);
  EXPECT_EQ(svc.reads_served(), 1u);
}

TEST(StorageServiceTest, MissingKeyReadsAbsent) {
  KvStore store;
  StorageService svc(&store);
  EXPECT_TRUE(Read(svc, 99, kInvalidTxnId).is_absent());
}

TEST(StorageServiceTest, ReadParksUntilExpectedVersionApplied) {
  KvStore store;
  store.Upsert(1, Record{10});
  StorageService svc(&store);
  std::atomic<bool> served{false};
  Record got;
  std::thread reader([&] {
    got = Read(svc, 1, /*expected=*/7);
    served = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(served.load());
  svc.ApplyWriteBack(1, /*version=*/7, /*replaces=*/kInvalidTxnId,
                     Record{70}, /*awaits=*/0, /*sticky=*/false,
                     /*epoch=*/1);
  reader.join();
  EXPECT_EQ(got.field(0), 70);
}

TEST(StorageServiceTest, WriteBackAwaitsOldReaders) {
  // wb(v7) must not overtake the 2 planned readers of the initial
  // version, even though it arrives first.
  KvStore store;
  store.Upsert(1, Record{10});
  StorageService svc(&store);
  svc.ApplyWriteBack(1, 7, kInvalidTxnId, Record{70}, /*awaits=*/2,
                     false, 1);
  EXPECT_EQ(store.Read(1)->field(0), 10);  // parked
  EXPECT_EQ(Read(svc, 1, kInvalidTxnId).field(0), 10);
  EXPECT_EQ(store.Read(1)->field(0), 10);  // still one reader owed
  EXPECT_EQ(Read(svc, 1, kInvalidTxnId).field(0), 10);
  EXPECT_EQ(store.Read(1)->field(0), 70);  // applied after second read
  EXPECT_EQ(svc.write_backs_applied(), 1u);
}

TEST(StorageServiceTest, WriteBacksApplyInVersionOrder) {
  KvStore store;
  store.Upsert(1, Record{10});
  StorageService svc(&store);
  // v9 arrives before v7; v9 awaits the (single) reader of v7.
  svc.ApplyWriteBack(1, 9, /*replaces=*/7, Record{90}, /*awaits=*/1,
                     false, 2);
  svc.ApplyWriteBack(1, 7, /*replaces=*/kInvalidTxnId, Record{70},
                     /*awaits=*/0, false, 1);
  EXPECT_EQ(store.Read(1)->field(0), 70);
  EXPECT_EQ(Read(svc, 1, 7).field(0), 70);
  EXPECT_EQ(store.Read(1)->field(0), 90);
}

TEST(StorageServiceTest, AbsentWriteBackDeletes) {
  KvStore store;
  store.Upsert(1, Record{10});
  StorageService svc(&store);
  svc.ApplyWriteBack(1, 3, kInvalidTxnId, Record::Absent(), 0, false, 1);
  EXPECT_FALSE(store.Contains(1));
  EXPECT_TRUE(Read(svc, 1, 3).is_absent());
}

TEST(StorageServiceTest, StickyHitCounting) {
  KvStore store;
  store.Upsert(1, Record{10});
  StorageService svc(&store);
  svc.ApplyWriteBack(1, 3, kInvalidTxnId, Record{30}, 0, /*sticky=*/true, 1);
  EXPECT_EQ(Read(svc, 1, 3).field(0), 30);
  EXPECT_EQ(svc.sticky_hits(), 1u);
}

TEST(StorageServiceTest, ShutdownReleasesParkedReaders) {
  KvStore store;
  StorageService svc(&store);
  std::optional<Record> got;
  std::thread reader([&] { got = Read(svc, 1, /*expected=*/5); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  svc.Shutdown();
  reader.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->is_absent());
}


// ---------------------------------------------------------------------
// Checkpoint image: FoldChanges() folds only what changed.
// ---------------------------------------------------------------------

using Image = StorageService::Image;
using Op = std::function<void(StorageService&)>;

void ExpectSameImage(const Image& got, const Image& want) {
  ASSERT_EQ(got.keys.size(), want.keys.size());
  ASSERT_EQ(got.index.size(), got.keys.size());
  for (const Image::KeyImage& ki : want.keys) {
    auto it = got.index.find(ki.key);
    ASSERT_NE(it, got.index.end()) << "key " << ki.key << " missing";
    EXPECT_TRUE(got.keys[it->second] == ki) << "key " << ki.key << " differs";
  }
}

// One fold of a fresh service fed `ops`: the image of its whole state.
Image FullImage(const std::vector<Op>& ops) {
  KvStore store;
  StorageService svc(&store);
  for (const Op& op : ops) op(svc);
  Image image;
  svc.FoldChanges(image);
  return image;
}

void Noop(Record) {}

// Seeded mix of the operations that change version state. Keys 0..15 take
// tagged remote reads of any planned version (so some park) and
// write-back chains issued out of order (so some park); keys 16..23 only
// ever see operations that complete at once, so ExtractKeys (which needs
// a quiesced key) and InstallKeys can run on them.
class OpGenerator {
 public:
  explicit OpGenerator(std::uint64_t seed) : rng_(seed) {
    chain_.assign(kBusyKeys, std::vector<TxnId>{kInvalidTxnId});
    quiet_current_.assign(kQuietKeys, kInvalidTxnId);
  }

  Op Next() {
    switch (rng_.NextBelow(7)) {
      case 0: {  // plan the next write-back of a busy key; issue it later
        const ObjectKey key = rng_.NextBelow(kBusyKeys);
        const TxnId version = ++next_version_;
        held_.push_back(HeldWb{key, version, chain_[key].back(),
                               static_cast<std::uint32_t>(rng_.NextBelow(2)),
                               rng_.NextBool(0.5)});
        chain_[key].push_back(version);
        return [](StorageService&) {};
      }
      case 1: {  // issue a held write-back, out of order
        if (held_.empty()) return [](StorageService&) {};
        const std::size_t i = rng_.NextBelow(held_.size());
        const HeldWb wb = held_[i];
        held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(i));
        const SinkEpoch epoch = wb.version;
        return [wb, epoch](StorageService& svc) {
          svc.ApplyWriteBack(wb.key, wb.version, wb.replaces,
                             Record{static_cast<std::int64_t>(wb.version)},
                             wb.awaits, wb.sticky, epoch);
        };
      }
      case 2: {  // remote read of some planned version of a busy key
        const ObjectKey key = rng_.NextBelow(kBusyKeys);
        const TxnId expected = chain_[key][rng_.NextBelow(chain_[key].size())];
        const StorageService::RemoteReadTag tag{1, ++next_req_};
        return [key, expected, tag](StorageService& svc) {
          svc.AsyncRead(key, expected, Noop, tag);
        };
      }
      case 3: {  // local read of a quiet key's current version
        const ObjectKey q = rng_.NextBelow(kQuietKeys);
        const TxnId expected = quiet_current_[q];
        return [q, expected](StorageService& svc) {
          svc.AsyncRead(kBusyKeys + q, expected, Noop);
        };
      }
      case 4: {  // in-order write-back of a quiet key (applies at once)
        const ObjectKey q = rng_.NextBelow(kQuietKeys);
        const TxnId replaces = quiet_current_[q];
        const TxnId version = quiet_current_[q] = ++next_version_;
        const bool sticky = rng_.NextBool(0.5);
        return [q, version, replaces, sticky](StorageService& svc) {
          svc.ApplyWriteBack(kBusyKeys + q, version, replaces,
                             Record{static_cast<std::int64_t>(version)}, 0,
                             sticky, version);
        };
      }
      case 5: {  // migrate a quiet key away
        const ObjectKey q = rng_.NextBelow(kQuietKeys);
        quiet_current_[q] = kInvalidTxnId;
        return [q](StorageService& svc) {
          (void)svc.ExtractKeys({kBusyKeys + q});
        };
      }
      default: {  // migrate a quiet key in
        const ObjectKey q = rng_.NextBelow(kQuietKeys);
        const StorageService::MigratedKeyState mk{
            kBusyKeys + q, ++next_version_,
            static_cast<std::uint32_t>(rng_.NextBelow(3)), rng_.NextBool(0.5),
            static_cast<SinkEpoch>(rng_.NextBelow(100))};
        quiet_current_[q] = mk.current;
        return [mk](StorageService& svc) { svc.InstallKeys({mk}); };
      }
    }
  }

 private:
  static constexpr ObjectKey kBusyKeys = 16;
  static constexpr ObjectKey kQuietKeys = 8;
  struct HeldWb {
    ObjectKey key;
    TxnId version;
    TxnId replaces;
    std::uint32_t awaits;
    bool sticky;
  };
  Rng rng_;
  std::vector<std::vector<TxnId>> chain_;  // planned versions per busy key
  std::vector<TxnId> quiet_current_;
  std::vector<HeldWb> held_;
  TxnId next_version_ = 0;
  std::uint64_t next_req_ = 0;
};

TEST(StorageServiceTest, IncrementalFoldsMatchOneFullFold) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    OpGenerator gen(seed);
    KvStore store;
    StorageService svc(&store);
    Image image;
    std::vector<Op> ops;
    for (int burst = 0; burst < 30; ++burst) {
      for (int i = 0; i < 25; ++i) {
        ops.push_back(gen.Next());
        ops.back()(svc);
      }
      svc.FoldChanges(image);
      ExpectSameImage(image, FullImage(ops));
      if (testing::Test::HasFatalFailure()) return;
    }

    // A service restored from the image has nothing left to fold, and
    // then folds the same changes as the original.
    KvStore restored_store;
    StorageService restored(&restored_store);
    restored.Restore(image, [](const StorageService::RemoteReadTag&) {
      return StorageService::ReadDone(Noop);
    });
    Image restored_image = image;
    EXPECT_EQ(restored.FoldChanges(restored_image), 0u);
    EXPECT_EQ(restored.StateKeys(), svc.StateKeys());
    for (int burst = 0; burst < 5; ++burst) {
      for (int i = 0; i < 25; ++i) {
        ops.push_back(gen.Next());
        ops.back()(svc);
        ops.back()(restored);
      }
      svc.FoldChanges(image);
      restored.FoldChanges(restored_image);
      ExpectSameImage(restored_image, image);
      ExpectSameImage(image, FullImage(ops));
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(StorageServiceTest, FoldCountsOnlyTouchedKeys) {
  KvStore store;
  for (ObjectKey k = 0; k < 100; ++k) store.Upsert(k, Record{0});
  StorageService svc(&store);
  Image image;
  for (ObjectKey k = 0; k < 100; ++k) svc.AsyncRead(k, kInvalidTxnId, Noop);
  EXPECT_EQ(svc.FoldChanges(image), 100u);
  EXPECT_EQ(svc.FoldChanges(image), 0u);

  // Touch k = 7 keys, some more than once: the next fold folds exactly 7.
  for (ObjectKey k = 10; k < 17; ++k) svc.AsyncRead(k, kInvalidTxnId, Noop);
  svc.AsyncRead(10, kInvalidTxnId, Noop);
  svc.ApplyWriteBack(11, 5, kInvalidTxnId, Record{5}, 0, false, 1);
  EXPECT_EQ(svc.FoldChanges(image), 7u);
  EXPECT_EQ(image.keys.size(), 100u);
  EXPECT_EQ(image.keys[image.index.at(11)].current, 5u);

  // An extracted key leaves the image.
  ASSERT_EQ(svc.ExtractKeys({12}).size(), 1u);
  EXPECT_EQ(svc.FoldChanges(image), 1u);
  EXPECT_EQ(image.keys.size(), 99u);
  EXPECT_FALSE(image.index.contains(12));

  // A key migrated away and back before the next fold is folded once.
  const auto moved = svc.ExtractKeys({13});
  ASSERT_EQ(moved.size(), 1u);
  svc.InstallKeys(moved);
  EXPECT_EQ(svc.FoldChanges(image), 1u);
  EXPECT_EQ(image.keys.size(), 99u);
}

TEST(StorageServiceDeathTest, UntaggedParkedReadFailsTheFold) {
  KvStore store;
  StorageService svc(&store);
  svc.AsyncRead(1, /*expected=*/5, Noop);  // a local wait, never served
  Image image;
  EXPECT_DEATH(svc.FoldChanges(image), "untagged parked storage read");
}

}  // namespace
}  // namespace tpart
