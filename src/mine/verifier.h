// Phase-3 candidate verification (paper Section 1): "While scanning
// the table data, maintain for each candidate column-pair (c_i, c_j)
// the counts of the number of rows having a 1 in at least one of the
// two columns and also the number of rows having a 1 in both." The
// exact similarity |C_i ∩ C_j| / |C_i ∪ C_j| then prunes every false
// positive, so miners' output contains no false positives by
// construction — only false negatives (pairs phases 1-2 missed).

#ifndef SANS_MINE_VERIFIER_H_
#define SANS_MINE_VERIFIER_H_

#include <vector>

#include "core/types.h"
#include "matrix/row_stream.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sans {

/// Exact per-candidate counts from one verification scan.
struct VerifiedPair {
  ColumnPair pair;
  uint64_t union_count = 0;
  uint64_t intersection_count = 0;

  double similarity() const {
    return union_count == 0
               ? 0.0
               : static_cast<double>(intersection_count) / union_count;
  }
};

/// Scans `rows` once and returns exact union/intersection counts for
/// every candidate, in the candidates' order. Memory: O(#candidates)
/// counters plus a column→candidate index.
Result<std::vector<VerifiedPair>> CountCandidatePairs(
    RowStream* rows, const std::vector<ColumnPair>& candidates);

/// CountCandidatePairs over one scan of `source` fanned out to the
/// block pipeline's workers (matrix/block_reader.h); per-worker
/// counters are summed in worker-id order, so the counts are the same
/// for any thread count. Output order matches `candidates`.
Result<std::vector<VerifiedPair>> CountCandidatePairsParallel(
    const RowStreamSource& source, const std::vector<ColumnPair>& candidates,
    const ExecutionConfig& execution, ThreadPool* pool);

/// Counts via CountCandidatePairsParallel, then keeps pairs with exact
/// similarity >= threshold, sorted by descending similarity.
Result<std::vector<SimilarPair>> VerifyCandidatesParallel(
    const RowStreamSource& source, const std::vector<ColumnPair>& candidates,
    double threshold, const ExecutionConfig& execution, ThreadPool* pool);

/// VerifyCandidatesParallel on the calling thread (default
/// ExecutionConfig, no pool).
Result<std::vector<SimilarPair>> VerifyCandidates(
    const RowStreamSource& source, const std::vector<ColumnPair>& candidates,
    double threshold);

}  // namespace sans

#endif  // SANS_MINE_VERIFIER_H_
