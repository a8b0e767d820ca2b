#include "candgen/candidate_set.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace sans {
namespace {

TEST(ColumnPairTest, CanonicalOrder) {
  const ColumnPair a(5, 2);
  EXPECT_EQ(a.first, 2u);
  EXPECT_EQ(a.second, 5u);
  EXPECT_EQ(a, ColumnPair(2, 5));
}

TEST(ColumnPairTest, OrderingAndHash) {
  EXPECT_LT(ColumnPair(1, 2), ColumnPair(1, 3));
  EXPECT_LT(ColumnPair(1, 9), ColumnPair(2, 3));
  ColumnPairHash hash;
  EXPECT_EQ(hash(ColumnPair(3, 4)), hash(ColumnPair(4, 3)));
  EXPECT_NE(hash(ColumnPair(3, 4)), hash(ColumnPair(3, 5)));
}

TEST(CandidateSetTest, CountAndContainsFindEntries) {
  const CandidateSet set({{ColumnPair(0, 4), 2},
                          {ColumnPair(1, 2), 4},
                          {ColumnPair(1, 3), 1},
                          {ColumnPair(3, 9), 6}});
  EXPECT_EQ(set.size(), 4u);
  EXPECT_EQ(set.Count(ColumnPair(1, 2)), 4u);
  EXPECT_EQ(set.Count(ColumnPair(2, 1)), 4u);
  EXPECT_EQ(set.Count(ColumnPair(3, 9)), 6u);
  EXPECT_TRUE(set.Contains(ColumnPair(0, 4)));
  EXPECT_FALSE(set.Contains(ColumnPair(1, 4)));
  EXPECT_FALSE(set.Contains(ColumnPair(4, 9)));
  EXPECT_EQ(set.Count(ColumnPair(1, 4)), 0u);
  EXPECT_EQ(set.Count(ColumnPair(0, 1)), 0u);
}

TEST(CandidateSetTest, ConstructorRejectsUnsortedOrRepeatedPairs) {
  EXPECT_DEATH(CandidateSet({{ColumnPair(1, 2), 1}, {ColumnPair(0, 5), 1}}),
               "");
  EXPECT_DEATH(CandidateSet({{ColumnPair(1, 2), 1}, {ColumnPair(1, 2), 3}}),
               "");
}

TEST(CandidateSetTest, FilterKeepsOrderAndCounts) {
  CandidateSet set({{ColumnPair(0, 1), 1},
                    {ColumnPair(0, 2), 5},
                    {ColumnPair(1, 2), 2},
                    {ColumnPair(2, 3), 7}});
  const CandidateSet kept = std::move(set).Filter(
      [](const CandidateSet::Entry& entry) { return entry.second >= 2; });
  const std::vector<CandidateSet::Entry> expected = {
      {ColumnPair(0, 2), 5}, {ColumnPair(1, 2), 2}, {ColumnPair(2, 3), 7}};
  EXPECT_EQ(kept.SortedEntries(), expected);
}

TEST(CandidateSetTest, SortedPairsIsDeterministic) {
  const CandidateSet set({{ColumnPair(0, 2), 1},
                          {ColumnPair(0, 5), 1},
                          {ColumnPair(9, 1), 1}});
  const auto pairs = set.SortedPairs();
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0], ColumnPair(0, 2));
  EXPECT_EQ(pairs[1], ColumnPair(0, 5));
  EXPECT_EQ(pairs[2], ColumnPair(1, 9));
}

TEST(CandidateSetTest, SortedEntriesCarryCounts) {
  const CandidateSet set({{ColumnPair(0, 1), 4}, {ColumnPair(2, 3), 7}});
  const auto& entries = set.SortedEntries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, ColumnPair(0, 1));
  EXPECT_EQ(entries[0].second, 4u);
  EXPECT_EQ(entries[1].second, 7u);
  // Range-for walks the same entries.
  size_t i = 0;
  for (const auto& [pair, count] : set) {
    EXPECT_EQ(pair, entries[i].first);
    EXPECT_EQ(count, entries[i].second);
    ++i;
  }
  EXPECT_EQ(i, entries.size());
}

TEST(CandidateSetTest, EmptySetBehaves) {
  const CandidateSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.SortedPairs().empty());
  EXPECT_FALSE(set.Contains(ColumnPair(0, 1)));
  EXPECT_EQ(set.begin(), set.end());
}

}  // namespace
}  // namespace sans
