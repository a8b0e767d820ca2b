// Min-Hash signature computation (paper Section 3): in one pass over
// the table, draw k independent hash values per row and keep, for each
// column, the minimum value per hash function over the rows containing
// a 1. By Proposition 1, Prob[h(c_i) = h(c_j)] = S(c_i, c_j).

#ifndef SANS_SKETCH_MIN_HASH_H_
#define SANS_SKETCH_MIN_HASH_H_

#include <cstdint>

#include "matrix/row_stream.h"
#include "sketch/signature_matrix.h"
#include "util/hashing.h"
#include "util/status.h"

namespace sans {

/// Configuration for Min-Hash signature generation.
struct MinHashConfig {
  /// k: number of independent hash functions (Theorem 1 sizes this as
  /// k >= 2 δ⁻² c⁻¹ log ε⁻¹ for error δ and failure probability ε at
  /// similarity floor c).
  int num_hashes = 100;
  /// Which row-hash family to use.
  HashFamily family = HashFamily::kSplitMix64;
  /// Master seed; every run with the same seed and input is
  /// reproducible.
  uint64_t seed = 0;

  /// Validates field ranges.
  Status Validate() const;
};

/// k recommended by Theorem 1 for accuracy δ, failure probability ε,
/// and similarity floor c: k = ceil(2 δ⁻² c⁻¹ ln ε⁻¹).
int RecommendedNumHashes(double delta, double epsilon, double c);

/// Computes the k × m signature matrix in a single pass over `rows`.
/// Uses O(k·m) memory, independent of n: the kernel's column-major
/// minima, then the k × m result that Finish transposes them into
/// (both are alive only during that transpose), plus O(k) hash
/// scratch per buffered row (sketch_kernels.h).
class MinHashGenerator {
 public:
  explicit MinHashGenerator(const MinHashConfig& config);

  /// One pass: for every row, hash its id under all k functions and
  /// min-update every column holding a 1. Hash outputs are clamped
  /// below kEmptyMinHash so the sentinel is unreachable. When
  /// `cardinalities` is non-null it receives the exact |C_j| counts
  /// observed during the same pass (the Section 6 confidence
  /// extension needs them and they come for free).
  Result<SignatureMatrix> Compute(
      RowStream* rows, std::vector<uint64_t>* cardinalities = nullptr) const;

  const MinHashConfig& config() const { return config_; }

 private:
  MinHashConfig config_;
  HashFunctionBank bank_;
};

}  // namespace sans

#endif  // SANS_SKETCH_MIN_HASH_H_
