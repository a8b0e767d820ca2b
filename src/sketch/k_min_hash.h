// K-Min-Hash (bottom-k) sketches (paper Section 3.2): a single hash
// function over rows; each column's signature SIG_i is the set of the
// k smallest hash values among the rows of C_i (all of them if
// |C_i| < k). By Proposition 2, SIG_i is a uniform random sample of
// distinct rows of C_i. Signature generation costs one hash per row
// plus O(log k) per admitted value — much cheaper than Min-Hash's k
// hashes per row, and sublinear in k on sparse data (Fig. 6b).

#ifndef SANS_SKETCH_K_MIN_HASH_H_
#define SANS_SKETCH_K_MIN_HASH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"
#include "util/hashing.h"
#include "util/status.h"

namespace sans {

/// Largest signature capacity k a sketch, and any artifact holding
/// one, accepts.
inline constexpr int kMaxSketchK = 1 << 24;

/// Configuration for K-Min-Hash sketch generation.
struct KMinHashConfig {
  /// k: signature capacity per column, in [1, kMaxSketchK].
  int k = 100;
  /// Row-hash family (a single function is drawn from it).
  HashFamily family = HashFamily::kSplitMix64;
  uint64_t seed = 0;

  Status Validate() const;
};

/// All columns' bottom-k signatures plus the exact column
/// cardinalities |C_i| observed during the scan (the biased estimator
/// needs them; the paper assumes they are known, and the single pass
/// provides them for free). The signatures sit in one flat array in
/// column order, so a sweep over many columns (TopK's rerank, the
/// bucket build) reads sequential memory.
class KMinHashSketch {
 public:
  /// `num_cols` empty columns: no signature values, cardinality 0.
  KMinHashSketch(int k, ColumnId num_cols);

  int k() const { return k_; }
  ColumnId num_cols() const {
    return static_cast<ColumnId>(cardinalities_.size());
  }

  /// SIG_i: ascending distinct hash values, size min(k, |C_i|).
  std::span<const uint64_t> Signature(ColumnId col) const {
    return {values_.data() + offsets_[col], sizes_[col]};
  }

  /// |C_i| counted exactly during the generating scan.
  uint64_t ColumnCardinality(ColumnId col) const {
    return cardinalities_[col];
  }

  /// Total stored hash values across columns (memory diagnostics; the
  /// sublinearity shown in Fig. 6b is visible here).
  uint64_t TotalSignatureSize() const { return values_.size(); }

  /// Installs a column's signature (generation and deserialization).
  /// Columns are installed in ascending order, each at most once; a
  /// column never installed stays empty. The values must be strictly
  /// ascending with at most k entries, and the cardinality must be at
  /// least the signature size (a bottom-k sample cannot exceed its
  /// population) and zero exactly when the signature is empty.
  Status SetColumn(ColumnId col, std::span<const uint64_t> signature,
                   uint64_t cardinality);

 private:
  int k_;
  std::vector<uint64_t> values_;         // signatures, in column order
  std::vector<uint64_t> offsets_;        // per column, into values_
  std::vector<uint32_t> sizes_;          // per column
  std::vector<uint64_t> cardinalities_;  // per column
  ColumnId next_col_ = 0;                // lowest column SetColumn takes
};

/// SIG_{i∪j}: the k smallest elements of SIG_i ∪ SIG_j (all of them if
/// fewer than k) — the signature the union column would have had
/// (paper Section 3.2). O(k) merge.
std::vector<uint64_t> MergeSignatures(std::span<const uint64_t> sig_a,
                                      std::span<const uint64_t> sig_b,
                                      int k);

}  // namespace sans

#endif  // SANS_SKETCH_K_MIN_HASH_H_
