#include "util/radix_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/hashing.h"

namespace sans {
namespace {

using Item = std::pair<uint64_t, uint32_t>;  // (key, original position)

std::vector<Item> Items(size_t n, uint64_t key_mask, uint64_t key_or) {
  std::vector<Item> items(n);
  for (size_t i = 0; i < n; ++i) {
    items[i] = {(Mix64(i + 1) & key_mask) | key_or,
                static_cast<uint32_t>(i)};
  }
  return items;
}

// Sorts with StableRadixSort and with std::stable_sort by key; the two
// must agree item for item, positions included.
void ExpectMatchesStableSort(int key_bits, std::vector<Item> items) {
  std::vector<Item> expected = items;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Item& a, const Item& b) {
                     return a.first < b.first;
                   });
  std::vector<Item> buffer;
  StableRadixSort(
      key_bits, [](const Item& item) { return item.first; }, &items, &buffer);
  EXPECT_EQ(items, expected) << "key_bits=" << key_bits;
}

TEST(StableRadixSortTest, MatchesStableSortAcrossKeyWidths) {
  ExpectMatchesStableSort(5, Items(1000, 0x1f, 0));
  ExpectMatchesStableSort(13, Items(5000, 0x1fff, 0));
  ExpectMatchesStableSort(64, Items(5000, ~uint64_t{0}, 0));
}

TEST(StableRadixSortTest, SkipsUniformDigitsAndKeepsOrder) {
  // Low 11-bit digit shared by every key: only the upper pass runs.
  ExpectMatchesStableSort(13, Items(3000, 0x1800, 7));
  // Every key equal: no pass runs and the input order is kept.
  ExpectMatchesStableSort(64, Items(3000, 0, 42));
}

TEST(StableRadixSortTest, HandlesTrivialInputs) {
  ExpectMatchesStableSort(64, {});
  ExpectMatchesStableSort(64, Items(1, ~uint64_t{0}, 0));
  ExpectMatchesStableSort(0, Items(10, 0, 0));
}

}  // namespace
}  // namespace sans
