// Hamming-LSH candidate generation (paper Section 4.2): works directly
// on the data rather than on min-hash signatures. Lemma 3 ties
// similarity to Hamming distance for columns of comparable density, so
// the scheme:
//
//  1. folds the OR-fold pyramid M_0, M_1, ... one level at a time
//     (densities roughly double per level; M_0 is the input itself, and
//     each level replaces the one it was folded from, so at most two
//     are alive at once);
//  2. at every level draws `num_runs` samples of `rows_per_run` rows;
//  3. declares a pair a candidate if at some level both columns have
//     density inside (1/t, (t-1)/t) and their r-bit patterns over the
//     sampled rows are identical in at least one run.
//
// The paper uses t = 4 in its experiments.
//
// Bucketing runs on the flat sorted-bucket engine
// (candgen/flat_buckets.h) with one table per (level, run): an eligible
// column's key is its r-bit pattern, every colliding pair is kept, and
// a pair's count is the number of (level, run) tables it collided in.

#ifndef SANS_CANDGEN_HAMMING_LSH_H_
#define SANS_CANDGEN_HAMMING_LSH_H_

#include <cstdint>
#include <vector>

#include "candgen/candidate_set.h"
#include "matrix/binary_matrix.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sans {

/// Parameters of a Hamming-LSH run.
struct HammingLshConfig {
  /// r: rows sampled per run; a column's key is its r-bit pattern.
  int rows_per_run = 16;
  /// Number of runs per level (union of candidates across runs
  /// controls false negatives).
  int num_runs = 4;
  /// Density band parameter t: a column is eligible at a level when
  /// its density there lies strictly inside (1/t, (t-1)/t).
  int density_band = 4;
  /// Stop folding when the matrix has at most this many rows.
  RowId min_rows = 64;
  /// Safety cap on pyramid height.
  int max_levels = 32;
  /// When true, columns whose sampled pattern is all-zero are not
  /// bucketed (an empty pattern carries no similarity evidence and
  /// would otherwise glue all sparse eligible columns into one giant
  /// bucket). On by default.
  bool skip_zero_keys = true;
  uint64_t seed = 0;

  Status Validate() const;
};

/// Per-level diagnostics, exposed for tests and the benchmark
/// narration.
struct HammingLshLevelStats {
  int level = 0;
  RowId rows = 0;
  ColumnId eligible_columns = 0;
  uint64_t candidate_pairs = 0;
};

/// Runs Hamming-LSH over an in-memory matrix. The scheme needs random
/// access to rows at every pyramid level, so unlike the min-hash
/// schemes it takes a materialized BinaryMatrix; it reads only rows and
/// column cardinalities, never the column-major view.
class HammingLshCandidateGenerator {
 public:
  explicit HammingLshCandidateGenerator(const HammingLshConfig& config);

  /// Generates candidates; evidence counts record how many
  /// (level, run) combinations produced each pair.
  CandidateSet Generate(const BinaryMatrix& matrix) const;

  /// As Generate, with the engine's probing chunks spread over `pool`
  /// (null: inline on the calling thread), appending one entry per
  /// pyramid level to `stats` when it is non-null. Output is identical
  /// for any pool.
  Result<CandidateSet> Generate(
      const BinaryMatrix& matrix, ThreadPool* pool,
      std::vector<HammingLshLevelStats>* stats) const;

  const HammingLshConfig& config() const { return config_; }

 private:
  HammingLshConfig config_;
};

}  // namespace sans

#endif  // SANS_CANDGEN_HAMMING_LSH_H_
