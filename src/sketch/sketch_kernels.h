// Shared hot-path kernels for sketch generation. Every consumer that
// feeds row hashes into a min-type sketch — Min-Hash signatures and
// the incremental bottom-k builder, whichever entry point feeds them —
// goes through the clamped kernels in this header, so the
// kEmptyMinHash sentinel clamp lives in exactly one place and cannot
// be missed by a new call site.
//
// The Min-Hash kernel also fixes the memory-access pattern of the
// signature update. The naive loop (for each row: for each column:
// for each hash l: MinUpdate(l, c)) strides num_cols * 8 bytes
// between consecutive l, touching k distant cache lines per 1-entry.
// MinHashBlockKernel buffers a block of rows, evaluates all k
// functions over the block's row ids in flat batched loops
// (HashFunctionBank::HashAllBatch, hash-major layout), then runs the
// update transposed — hash function outermost — so each step of the
// inner loops reads one contiguous hash lane and writes into a single
// signature row. Min is commutative and associative, so the reordered
// updates produce a byte-identical SignatureMatrix for a fixed seed,
// regardless of block size (asserted by sketch_kernels_test).

#ifndef SANS_SKETCH_SKETCH_KERNELS_H_
#define SANS_SKETCH_SKETCH_KERNELS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"
#include "sketch/signature_matrix.h"
#include "util/hashing.h"

namespace sans {

class RowBlock;  // matrix/block_reader.h

/// Rows buffered per flush of the blocked kernels. Bounds the hash
/// scratch at num_hashes * kSketchBlockRows * 8 bytes (200 KiB at
/// k = 100), small enough to stay cache-resident next to one
/// signature row.
inline constexpr size_t kSketchBlockRows = 256;

/// THE sentinel clamp: hash outputs fed to min-type sketches are
/// lowered below kEmptyMinHash so a real row can never produce the
/// empty-column sentinel. Branchless; bijective inputs lose only the
/// single value UINT64_MAX.
inline uint64_t ClampRowHash(uint64_t hash) {
  return hash - static_cast<uint64_t>(hash == kEmptyMinHash);
}

/// Clamped single-row hash for the bottom-k paths (one function, one
/// key per row).
inline uint64_t HashRowClamped(const RowHasher& hasher, uint64_t key) {
  return ClampRowHash(hasher.Hash(key));
}

/// Clamped batched hash of a block of row keys under one function;
/// `out` is resized to keys.size().
void HashBlockClamped(const RowHasher& hasher,
                      std::span<const uint64_t> keys,
                      std::vector<uint64_t>* out);

/// Blocked Min-Hash signature updater. Bind it to a bank and a target
/// matrix, then feed it row blocks; it buffers up to kSketchBlockRows
/// non-empty rows, batch-hashes their ids under all k functions, and
/// flushes the min-updates transposed (hash-major). One kernel per
/// block-pipeline worker (matrix/block_reader.h).
///
/// Column spans handed in via Process() are only borrowed while the
/// call runs; every Process() call drains its own buffer before
/// returning.
class MinHashBlockKernel {
 public:
  MinHashBlockKernel(const HashFunctionBank* bank,
                     SignatureMatrix* signatures);

  void Process(const RowBlock& block);

 private:
  /// Batch-hashes the buffered keys and applies the transposed
  /// min-update, then clears the buffer.
  void Flush();

  const HashFunctionBank* bank_;
  SignatureMatrix* signatures_;
  std::vector<uint64_t> keys_;
  std::vector<std::span<const ColumnId>> columns_;
  std::vector<uint64_t> hashes_;  // hash-major: [l * keys_.size() + i]
};

}  // namespace sans

#endif  // SANS_SKETCH_SKETCH_KERNELS_H_
