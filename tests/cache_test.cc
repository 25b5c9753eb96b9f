#include <gtest/gtest.h>

#include <thread>

#include "cache/cache_area.h"

namespace tpart {
namespace {

TEST(CacheAreaTest, VersionEntryIsConsumedByItsReader) {
  CacheArea cache;
  cache.PutVersion(1, 10, 20, Record{42});
  EXPECT_TRUE(cache.HasVersion(1, 10, 20));
  auto v = cache.AwaitVersion(1, 10, 20);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->field(0), 42);
  EXPECT_FALSE(cache.HasVersion(1, 10, 20));  // invalidated on read (§5.2)
  EXPECT_EQ(cache.num_version_entries(), 0u);
}

TEST(CacheAreaTest, VersionEntriesAreKeyedByTriple) {
  CacheArea cache;
  cache.PutVersion(1, 10, 20, Record{1});
  cache.PutVersion(1, 10, 21, Record{2});
  cache.PutVersion(1, 11, 20, Record{3});
  EXPECT_EQ(cache.num_version_entries(), 3u);
  EXPECT_EQ(cache.AwaitVersion(1, 10, 21)->field(0), 2);
  EXPECT_EQ(cache.num_version_entries(), 2u);
}

TEST(CacheAreaTest, AwaitBlocksUntilPut) {
  CacheArea cache;
  std::optional<Record> got;
  std::thread reader([&] { got = cache.AwaitVersion(5, 1, 2); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cache.PutVersion(5, 1, 2, Record{9});
  reader.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->field(0), 9);
}

TEST(CacheAreaTest, EpochEntryServesMultipleReadersThenFrees) {
  CacheArea cache;
  cache.PublishEpochEntry(1, 10, 3, Record{7});
  // Two readers; the second announces the total and frees the entry.
  auto v1 = cache.AwaitEpochEntry(1, 10, /*invalidate=*/false, 0);
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(cache.num_epoch_entries(), 1u);
  auto v2 = cache.AwaitEpochEntry(1, 10, /*invalidate=*/true, 2);
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(cache.num_epoch_entries(), 0u);
}

TEST(CacheAreaTest, InvalidatingReadMayArriveBeforeOthers) {
  // The invalidater announces total=3 but only 1 read has been served;
  // the entry must survive until the remaining reads arrive.
  CacheArea cache;
  cache.PublishEpochEntry(1, 10, 3, Record{7});
  ASSERT_TRUE(cache.AwaitEpochEntry(1, 10, true, 3).has_value());
  EXPECT_EQ(cache.num_epoch_entries(), 1u);
  ASSERT_TRUE(cache.AwaitEpochEntry(1, 10, false, 0).has_value());
  EXPECT_EQ(cache.num_epoch_entries(), 1u);
  ASSERT_TRUE(cache.TryEpochEntry(1, 10, false, 0).has_value());
  EXPECT_EQ(cache.num_epoch_entries(), 0u);
}

TEST(CacheAreaTest, TryEpochEntryNonBlocking) {
  CacheArea cache;
  EXPECT_FALSE(cache.TryEpochEntry(1, 10, false, 0).has_value());
  cache.PublishEpochEntry(1, 10, 1, Record{5});
  EXPECT_TRUE(cache.TryEpochEntry(1, 10, false, 0).has_value());
}

TEST(CacheAreaTest, ShutdownReleasesWaiters) {
  CacheArea cache;
  std::optional<Record> got = Record{1};
  std::thread reader([&] { got = cache.AwaitVersion(9, 9, 9); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  cache.Shutdown();
  reader.join();
  EXPECT_FALSE(got.has_value());
}

TEST(CacheAreaTest, PeakEntriesTracksHighWaterMark) {
  CacheArea cache;
  cache.PutVersion(1, 1, 2, Record{});
  cache.PutVersion(2, 1, 2, Record{});
  cache.AwaitVersion(1, 1, 2);
  cache.AwaitVersion(2, 1, 2);
  cache.PutVersion(3, 1, 2, Record{});
  EXPECT_EQ(cache.peak_entries(), 2u);
}

}  // namespace
}  // namespace tpart
