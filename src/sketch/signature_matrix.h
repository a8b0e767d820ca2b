// The compact signature matrix M̂ of paper Section 3: k rows (one per
// implicit row permutation) by m columns, entry M̂[l][c] = h_l(c) = the
// minimum hash value under function l over the rows of C_c. M̂ is the
// "summary of the table that will fit into main memory".

#ifndef SANS_SKETCH_SIGNATURE_MATRIX_H_
#define SANS_SKETCH_SIGNATURE_MATRIX_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/types.h"
#include "util/status.h"

namespace sans {

/// Min-hash value of an empty column: no row ever hashes to the
/// sentinel because every generation path clamps hash outputs below
/// it through the shared kernels (ClampRowHash in sketch_kernels.h).
inline constexpr uint64_t kEmptyMinHash =
    std::numeric_limits<uint64_t>::max();

/// Dense k × m matrix of min-hash values, stored row-major (one hash
/// function's values for all columns are contiguous), so a sweep over
/// one hash row (HashRow, e.g. Min-LSH's band keys) reads sequential
/// memory.
class SignatureMatrix {
 public:
  /// All entries initialized to kEmptyMinHash.
  SignatureMatrix(int num_hashes, ColumnId num_cols);

  SignatureMatrix(const SignatureMatrix&) = default;
  SignatureMatrix& operator=(const SignatureMatrix&) = default;
  SignatureMatrix(SignatureMatrix&&) = default;
  SignatureMatrix& operator=(SignatureMatrix&&) = default;

  /// k: number of hash functions / implicit permutations.
  int num_hashes() const { return num_hashes_; }
  ColumnId num_cols() const { return num_cols_; }

  /// M̂[hash_index][col].
  uint64_t Value(int hash_index, ColumnId col) const {
    return values_[Index(hash_index, col)];
  }

  void SetValue(int hash_index, ColumnId col, uint64_t value) {
    values_[Index(hash_index, col)] = value;
  }

  /// Lowers M̂[hash_index][col] to `value` if smaller (the min-update
  /// applied for every 1-entry during the scan).
  void MinUpdate(int hash_index, ColumnId col, uint64_t value) {
    uint64_t& slot = values_[Index(hash_index, col)];
    if (value < slot) slot = value;
  }

  /// One hash function's values across all columns (contiguous).
  std::span<const uint64_t> HashRow(int hash_index) const {
    return {values_.data() + static_cast<size_t>(hash_index) * num_cols_,
            num_cols_};
  }

  /// Mutable view of one hash function's values — the blocked update
  /// kernels' escape hatch from per-entry bounds checks: the row index
  /// is checked once here, column offsets are the caller's contract.
  std::span<uint64_t> MutableHashRow(int hash_index) {
    SANS_CHECK_GE(hash_index, 0);
    SANS_CHECK_LT(hash_index, num_hashes_);
    return {values_.data() + static_cast<size_t>(hash_index) * num_cols_,
            num_cols_};
  }

  /// A column's full signature, materialized into `out` (size k).
  void ColumnSignature(ColumnId col, std::vector<uint64_t>* out) const;

  /// True when the column had no 1s in the table (all entries remain
  /// the sentinel).
  bool ColumnEmpty(ColumnId col) const {
    return Value(0, col) == kEmptyMinHash;
  }

  /// Ŝ(c_i, c_j): fraction of the k hash functions on which the two
  /// columns' min-hash values agree (Definition 1). Two empty columns
  /// report 0, not 1: the underlying similarity 0/0 is treated as
  /// "not similar".
  double FractionEqual(ColumnId a, ColumnId b) const;

  /// Fraction of hash functions with h_l(a) <= h_l(b); an unbiased
  /// estimator of |C_a| / |C_a ∪ C_b| (paper Section 6).
  double FractionLessOrEqual(ColumnId a, ColumnId b) const;

 private:
  size_t Index(int hash_index, ColumnId col) const {
    SANS_CHECK_GE(hash_index, 0);
    SANS_CHECK_LT(hash_index, num_hashes_);
    SANS_CHECK_LT(col, num_cols_);
    return static_cast<size_t>(hash_index) * num_cols_ + col;
  }

  int num_hashes_;
  ColumnId num_cols_;
  std::vector<uint64_t> values_;
};

}  // namespace sans

#endif  // SANS_SKETCH_SIGNATURE_MATRIX_H_
