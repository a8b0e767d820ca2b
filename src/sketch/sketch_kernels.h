// Shared hot-path kernels for sketch generation. Every consumer that
// feeds row hashes into a min-type sketch — Min-Hash signatures and
// the incremental bottom-k builder, whichever entry point feeds them —
// goes through the clamped kernels in this header, so the
// kEmptyMinHash sentinel clamp lives in exactly one place and cannot
// be missed by a new call site.
//
// The Min-Hash kernel also fixes the memory-access pattern of the
// signature update, which is the only phase-1 work paid k times per
// 1-entry. A naive hash-major loop (for each 1-entry (r, c): for each
// hash l: lower M̂[l][c]) strides num_cols * 8 bytes between
// consecutive l and touches k distant cache lines per entry.
// MinHashBlockKernel instead keeps its minima column-major — column
// c's k minima are the contiguous span [c * k, c * k + k) — and
// buffers up to kSketchBlockRows non-empty rows. A flush
//   1. evaluates all k functions over the buffered row ids in flat
//      batched loops (HashFunctionBank::HashAllBatch, hash-major);
//   2. clamps and transposes them to row-major in one pass, so one
//      row's k hashes are contiguous;
//   3. radix-sorts the buffered (column, row) entries by column
//      (util/radix_sort.h) and applies each as one k-wide min between
//      the row's hash span and the column's minima span, so every
//      touched column's minima are loaded once per flush, in column
//      order.
// Per-worker kernels are merged element-wise in worker-id order and
// transposed once into the hash-major SignatureMatrix (Finish). Min
// is commutative and associative, so the reordered updates produce a
// byte-identical SignatureMatrix for a fixed seed, regardless of
// block size, flush size or worker count (asserted by
// sketch_kernels_test and mine_parallel_test).

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

/// Non-empty rows buffered per flush of the Min-Hash kernel. Bounds
/// its hash scratch — one hash-major and one row-major copy — at
/// 2 * num_hashes * kSketchBlockRows * 8 bytes (400 KiB at k = 100).
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

/// Blocked Min-Hash signature updater over one worker's rows. It owns
/// a column-major partial of the k x m minima, initialised to
/// kEmptyMinHash, and updates it by the three-step flush described
/// above. One kernel per block-pipeline worker
/// (matrix/block_reader.h); Finish merges them and yields the
/// signatures.
class MinHashBlockKernel {
 public:
  MinHashBlockKernel(const HashFunctionBank* bank, ColumnId num_cols);

  /// Buffers the block's non-empty rows (their column lists are
  /// copied, so the block may die after the call), flushing every
  /// kSketchBlockRows rows.
  void Process(const RowBlock& block);

  /// Flushes every kernel, lowers kernels[0]'s minima to the
  /// element-wise min with each later kernel's in index (worker-id)
  /// order, freeing each partial once merged, and transposes the
  /// result into the hash-major SignatureMatrix. `kernels` must be
  /// non-empty and bound to one bank and column count.
  static SignatureMatrix Finish(std::vector<MinHashBlockKernel> kernels);

 private:
  /// Hashes, transposes and sorts the buffered rows' entries and
  /// applies them to minima_, then clears the buffer.
  void Flush();

  const HashFunctionBank* bank_;
  ColumnId num_cols_;
  size_t num_hashes_;
  int column_bits_;                  // radix key width of a column id
  std::vector<uint64_t> minima_;     // column-major: [c * k + l]
  std::vector<uint64_t> keys_;       // buffered row ids
  std::vector<uint64_t> entries_;    // column << 32 | row slot in keys_
  std::vector<uint64_t> sort_scratch_;
  std::vector<uint64_t> hashes_;     // hash-major: [l * keys_.size() + i]
  std::vector<uint64_t> row_hashes_; // row-major, clamped: [i * k + l]
};

}  // namespace sans

#endif  // SANS_SKETCH_SKETCH_KERNELS_H_
