// Exact ground truth that fits in a benchmark run. Both functions
// count co-occurrences one column at a time into a dense per-column
// counter array, so the cost is Σ_rows |row|² / 2 increments with O(m)
// extra memory — no pair map (BruteForceSimilarPairs), no m²/2
// counter triangle. Counters are RowId-wide: an intersection can not
// exceed the row count, so they never wrap.

#ifndef PERFBENCH_TRUTH_H_
#define PERFBENCH_TRUTH_H_

#include <vector>

#include "core/types.h"
#include "matrix/binary_matrix.h"

namespace perfbench {

/// All pairs with exact Jaccard similarity >= threshold (> 0), sorted
/// by descending similarity exactly as BruteForceSimilarPairs returns
/// them. Requires the matrix's column-major view.
std::vector<sans::SimilarPair> ExactSimilarPairs(
    const sans::BinaryMatrix& matrix, double threshold);

/// The exact answer set recall@k is scored against.
struct ExactNeighbors {
  /// Columns whose exact similarity to the query is at least that of
  /// its k-th most similar column, ties at that value included;
  /// ascending column ids.
  std::vector<sans::ColumnId> hits;
  /// min(k, number of columns with nonzero similarity): the recall
  /// denominator. 0 when the column co-occurs with nothing.
  size_t wanted = 0;
};

/// Exact top-k neighbors of `col`. Requires the column-major view.
ExactNeighbors ExactTopK(const sans::BinaryMatrix& matrix, sans::ColumnId col,
                         int k);

}  // namespace perfbench

#endif  // PERFBENCH_TRUTH_H_
