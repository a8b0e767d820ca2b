#include "sketch/sketch_kernels.h"

#include "matrix/block_reader.h"

namespace sans {

void HashBlockClamped(const RowHasher& hasher,
                      std::span<const uint64_t> keys,
                      std::vector<uint64_t>* out) {
  out->resize(keys.size());
  hasher.HashBatch(keys, out->data());
  for (uint64_t& hash : *out) hash = ClampRowHash(hash);
}

MinHashBlockKernel::MinHashBlockKernel(const HashFunctionBank* bank,
                                       SignatureMatrix* signatures)
    : bank_(bank), signatures_(signatures) {
  keys_.reserve(kSketchBlockRows);
  columns_.reserve(kSketchBlockRows);
  hashes_.reserve(kSketchBlockRows *
                  static_cast<size_t>(signatures->num_hashes()));
}

void MinHashBlockKernel::Process(const RowBlock& block) {
  for (size_t i = 0; i < block.size(); ++i) {
    const std::span<const ColumnId> columns = block.columns(i);
    // Empty rows touch no column; skip the k hash evaluations (matters
    // for shingle matrices whose row space is mostly empty buckets).
    if (columns.empty()) continue;
    keys_.push_back(block.row(i));
    columns_.push_back(columns);
    if (keys_.size() >= kSketchBlockRows) Flush();
  }
  Flush();  // the borrowed column spans die with `block`
}

void MinHashBlockKernel::Flush() {
  const size_t n = keys_.size();
  if (n == 0) return;
  bank_->HashAllBatch(keys_, &hashes_);
  for (uint64_t& hash : hashes_) hash = ClampRowHash(hash);
  const int k = signatures_->num_hashes();
  for (int l = 0; l < k; ++l) {
    // One signature row and one hash lane per iteration: consecutive
    // writes land in one contiguous num_cols-sized region instead of
    // striding across k of them.
    uint64_t* const sig = signatures_->MutableHashRow(l).data();
    const uint64_t* const lane = hashes_.data() + static_cast<size_t>(l) * n;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t hash = lane[i];
      for (const ColumnId c : columns_[i]) {
        uint64_t& slot = sig[c];
        if (hash < slot) slot = hash;
      }
    }
  }
  keys_.clear();
  columns_.clear();
}

}  // namespace sans
