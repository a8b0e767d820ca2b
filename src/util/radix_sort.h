// The one radix sort in the tree: a stable LSD sort of a vector by an
// unsigned integer key, 11 bits per pass. One sweep counts every
// pass's digits; passes on which all items share a digit are skipped,
// so narrow or clustered keys cost fewer passes. Flat bucket tables
// (candgen/flat_buckets.cc) sort their (value, column) keys with it and
// the Min-Hash kernel (sketch/sketch_kernels.cc) sorts each flush's
// (column, row) entries with it.

#ifndef SANS_UTIL_RADIX_SORT_H_
#define SANS_UTIL_RADIX_SORT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/status.h"

namespace sans {

/// Stably sorts `items` by key(item), a uint64_t below 2^key_bits
/// (0 <= key_bits <= 64). `buffer` is scratch of the same type whose
/// size and contents are unspecified after the call; callers that sort
/// repeatedly keep it to reuse its capacity.
template <typename T, typename KeyFn>
void StableRadixSort(int key_bits, const KeyFn& key, std::vector<T>* items,
                     std::vector<T>* buffer) {
  constexpr int kBits = 11;
  constexpr int kMaxPasses = (64 + kBits - 1) / kBits;
  constexpr size_t kBuckets = size_t{1} << kBits;
  SANS_CHECK_GE(key_bits, 0);
  SANS_CHECK_LE(key_bits, 64);
  SANS_CHECK_LT(items->size(), uint64_t{1} << 32);
  const int passes = (key_bits + kBits - 1) / kBits;
  const uint32_t size = static_cast<uint32_t>(items->size());
  if (passes == 0 || size < 2) return;
  const auto digit = [&](const T& item, int pass) {
    return static_cast<size_t>(static_cast<uint64_t>(key(item)) >>
                               (kBits * pass)) &
           (kBuckets - 1);
  };
  uint32_t offsets[kMaxPasses * kBuckets];
  std::fill(offsets, offsets + passes * kBuckets, 0);
  for (const T& item : *items) {
    for (int pass = 0; pass < passes; ++pass) {
      ++offsets[pass * kBuckets + digit(item, pass)];
    }
  }
  for (int pass = 0; pass < passes; ++pass) {
    uint32_t* const begin = offsets + pass * kBuckets;
    if (std::find(begin, begin + kBuckets, size) != begin + kBuckets) {
      continue;
    }
    uint32_t next = 0;
    for (size_t d = 0; d < kBuckets; ++d) {
      next += std::exchange(begin[d], next);
    }
    buffer->resize(size);
    for (const T& item : *items) (*buffer)[begin[digit(item, pass)]++] = item;
    items->swap(*buffer);
  }
}

}  // namespace sans

#endif  // SANS_UTIL_RADIX_SORT_H_
