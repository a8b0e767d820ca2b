#include "sketch/sketch_kernels.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "matrix/block_reader.h"
#include "util/radix_sort.h"

namespace sans {

void HashBlockClamped(const RowHasher& hasher,
                      std::span<const uint64_t> keys,
                      std::vector<uint64_t>* out) {
  out->resize(keys.size());
  hasher.HashBatch(keys, out->data());
  for (uint64_t& hash : *out) hash = ClampRowHash(hash);
}

MinHashBlockKernel::MinHashBlockKernel(const HashFunctionBank* bank,
                                       ColumnId num_cols)
    : bank_(bank),
      num_cols_(num_cols),
      num_hashes_(static_cast<size_t>(bank->count())),
      column_bits_(std::bit_width(std::max<ColumnId>(num_cols, 1) - 1)),
      minima_(num_hashes_ * num_cols, kEmptyMinHash) {
  keys_.reserve(kSketchBlockRows);
  hashes_.reserve(kSketchBlockRows * num_hashes_);
  row_hashes_.reserve(kSketchBlockRows * num_hashes_);
}

void MinHashBlockKernel::Process(const RowBlock& block) {
  for (size_t i = 0; i < block.size(); ++i) {
    const std::span<const ColumnId> columns = block.columns(i);
    // Empty rows touch no column; skip the k hash evaluations (matters
    // for shingle matrices whose row space is mostly empty buckets).
    if (columns.empty()) continue;
    const uint64_t slot = keys_.size();
    keys_.push_back(block.row(i));
    for (const ColumnId c : columns) {
      entries_.push_back(uint64_t{c} << 32 | slot);
    }
    if (keys_.size() >= kSketchBlockRows) Flush();
  }
}

void MinHashBlockKernel::Flush() {
  const size_t n = keys_.size();
  if (n == 0) return;
  const size_t k = num_hashes_;
  bank_->HashAllBatch(keys_, &hashes_);
  row_hashes_.resize(n * k);
  for (size_t l = 0; l < k; ++l) {
    const uint64_t* const lane = hashes_.data() + l * n;
    for (size_t i = 0; i < n; ++i) {
      row_hashes_[i * k + l] = ClampRowHash(lane[i]);
    }
  }
  StableRadixSort(
      column_bits_, [](uint64_t entry) { return entry >> 32; }, &entries_,
      &sort_scratch_);
  uint64_t* const minima = minima_.data();
  const uint64_t* const row_hashes = row_hashes_.data();
  for (const uint64_t entry : entries_) {
    uint64_t* const column = minima + (entry >> 32) * k;
    const uint64_t* const hashes = row_hashes + (entry & 0xffffffffu) * k;
    for (size_t l = 0; l < k; ++l) column[l] = std::min(column[l], hashes[l]);
  }
  keys_.clear();
  entries_.clear();
}

SignatureMatrix MinHashBlockKernel::Finish(
    std::vector<MinHashBlockKernel> kernels) {
  SANS_CHECK(!kernels.empty());
  MinHashBlockKernel& merged = kernels[0];
  merged.Flush();
  for (size_t w = 1; w < kernels.size(); ++w) {
    MinHashBlockKernel& partial = kernels[w];
    SANS_CHECK_EQ(partial.minima_.size(), merged.minima_.size());
    partial.Flush();
    for (size_t i = 0; i < merged.minima_.size(); ++i) {
      merged.minima_[i] = std::min(merged.minima_[i], partial.minima_[i]);
    }
    std::vector<uint64_t>().swap(partial.minima_);
  }
  // Column tiles keep the tile's minima cache-resident while each of
  // the k hash rows takes its contiguous slice.
  constexpr ColumnId kTileCols = 64;
  const size_t k = merged.num_hashes_;
  const ColumnId m = merged.num_cols_;
  std::vector<uint64_t> hash_major(k * m);
  for (ColumnId begin = 0; begin < m; begin += kTileCols) {
    const ColumnId end = std::min<ColumnId>(m, begin + kTileCols);
    for (size_t l = 0; l < k; ++l) {
      uint64_t* const row = hash_major.data() + l * m;
      for (ColumnId c = begin; c < end; ++c) {
        row[c] = merged.minima_[c * k + l];
      }
    }
  }
  return SignatureMatrix(static_cast<int>(k), m, std::move(hash_major));
}

}  // namespace sans
