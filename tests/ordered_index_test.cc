#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/random.h"
#include "storage/ordered_index.h"

namespace tpart {
namespace {

TEST(OrderedIndexTest, InsertContainsErase) {
  OrderedIndex idx;
  EXPECT_TRUE(idx.Insert(10));
  EXPECT_FALSE(idx.Insert(10));
  EXPECT_TRUE(idx.Contains(10));
  EXPECT_FALSE(idx.Contains(11));
  EXPECT_TRUE(idx.Erase(10));
  EXPECT_FALSE(idx.Erase(10));
  EXPECT_EQ(idx.size(), 0u);
}

TEST(OrderedIndexTest, ManySequentialInsertsSplitNodes) {
  OrderedIndex idx;
  for (ObjectKey k = 0; k < 5000; ++k) ASSERT_TRUE(idx.Insert(k));
  EXPECT_EQ(idx.size(), 5000u);
  EXPECT_TRUE(idx.CheckInvariants());
  for (ObjectKey k = 0; k < 5000; ++k) ASSERT_TRUE(idx.Contains(k));
}

TEST(OrderedIndexTest, ReverseInserts) {
  OrderedIndex idx;
  for (ObjectKey k = 3000; k > 0; --k) ASSERT_TRUE(idx.Insert(k));
  EXPECT_TRUE(idx.CheckInvariants());
  EXPECT_EQ(idx.size(), 3000u);
}

TEST(OrderedIndexTest, ScanRangeAscending) {
  OrderedIndex idx;
  for (ObjectKey k = 0; k < 1000; k += 3) idx.Insert(k);
  std::vector<ObjectKey> seen;
  const std::size_t n =
      idx.ScanRange(10, 40, [&](ObjectKey k) { seen.push_back(k); });
  EXPECT_EQ(n, seen.size());
  EXPECT_EQ(seen.front(), 12u);
  EXPECT_EQ(seen.back(), 39u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(OrderedIndexTest, ScanEmptyRange) {
  OrderedIndex idx;
  idx.Insert(5);
  EXPECT_EQ(idx.ScanRange(10, 4, [](ObjectKey) {}), 0u);
  EXPECT_EQ(idx.ScanRange(6, 100, [](ObjectKey) {}), 0u);
}

TEST(OrderedIndexTest, LowerBound) {
  OrderedIndex idx;
  for (ObjectKey k = 10; k <= 100; k += 10) idx.Insert(k);
  EXPECT_EQ(idx.LowerBound(0), 10u);
  EXPECT_EQ(idx.LowerBound(10), 10u);
  EXPECT_EQ(idx.LowerBound(11), 20u);
  EXPECT_EQ(idx.LowerBound(101), std::nullopt);
}

TEST(OrderedIndexTest, EraseDownToEmptyKeepsInvariants) {
  OrderedIndex idx;
  for (ObjectKey k = 0; k < 2000; ++k) idx.Insert(k);
  for (ObjectKey k = 0; k < 2000; ++k) {
    ASSERT_TRUE(idx.Erase(k));
    if (k % 251 == 0) {
      ASSERT_TRUE(idx.CheckInvariants());
    }
  }
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_TRUE(idx.CheckInvariants());
}

// Property test: the B+-tree must agree with std::set through arbitrary
// interleavings of inserts, erases and scans.
class OrderedIndexFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderedIndexFuzz, MatchesReferenceSet) {
  Rng rng(GetParam());
  OrderedIndex idx;
  std::set<ObjectKey> ref;
  for (int step = 0; step < 20000; ++step) {
    const ObjectKey k = rng.NextBelow(2000);
    const std::uint64_t op = rng.NextBelow(10);
    if (op < 6) {
      EXPECT_EQ(idx.Insert(k), ref.insert(k).second);
    } else if (op < 9) {
      EXPECT_EQ(idx.Erase(k), ref.erase(k) > 0);
    } else {
      EXPECT_EQ(idx.Contains(k), ref.count(k) > 0);
    }
  }
  EXPECT_EQ(idx.size(), ref.size());
  ASSERT_TRUE(idx.CheckInvariants());
  // Full scan equals the reference contents.
  std::vector<ObjectKey> scanned;
  idx.ScanRange(0, ~ObjectKey{0}, [&](ObjectKey k) { scanned.push_back(k); });
  EXPECT_TRUE(std::equal(scanned.begin(), scanned.end(), ref.begin(),
                         ref.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderedIndexFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace tpart
