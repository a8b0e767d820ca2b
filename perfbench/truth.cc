#include "truth.h"

#include <algorithm>

#include "mine/miner.h"

namespace perfbench {

using sans::ColumnId;
using sans::RowId;

namespace {

/// Counts, for every column b that shares a row with `col` (b > col
/// when `upper_only`), |C_col ∩ C_b| into `counts` and lists each such
/// b once in `touched`. The caller zeroes the touched counters.
void CountCooccurrences(const sans::BinaryMatrix& matrix, ColumnId col,
                        bool upper_only, std::vector<RowId>* counts,
                        std::vector<ColumnId>* touched) {
  for (const RowId row : matrix.Column(col)) {
    const auto cols = matrix.Row(row);
    auto it = upper_only ? std::upper_bound(cols.begin(), cols.end(), col)
                         : cols.begin();
    for (; it != cols.end(); ++it) {
      if ((*counts)[*it]++ == 0) touched->push_back(*it);
    }
  }
}

/// The similarity BruteForceSimilarPairs and the verifier compute, bit
/// for bit.
double Jaccard(const sans::BinaryMatrix& matrix, ColumnId a, ColumnId b,
               uint64_t intersection) {
  const uint64_t uni = matrix.ColumnCardinality(a) +
                       matrix.ColumnCardinality(b) - intersection;
  return uni == 0 ? 0.0 : static_cast<double>(intersection) / uni;
}

}  // namespace

std::vector<sans::SimilarPair> ExactSimilarPairs(
    const sans::BinaryMatrix& matrix, double threshold) {
  std::vector<RowId> counts(matrix.num_cols(), 0);
  std::vector<ColumnId> touched;
  std::vector<sans::SimilarPair> pairs;
  for (ColumnId a = 0; a < matrix.num_cols(); ++a) {
    CountCooccurrences(matrix, a, /*upper_only=*/true, &counts, &touched);
    for (const ColumnId b : touched) {
      const double s = Jaccard(matrix, a, b, counts[b]);
      counts[b] = 0;
      if (s >= threshold && s > 0.0) {
        pairs.push_back(sans::SimilarPair{sans::ColumnPair(a, b), s});
      }
    }
    touched.clear();
  }
  sans::SortPairs(&pairs);
  return pairs;
}

ExactNeighbors ExactTopK(const sans::BinaryMatrix& matrix, ColumnId col,
                         int k) {
  std::vector<RowId> counts(matrix.num_cols(), 0);
  std::vector<ColumnId> touched;
  CountCooccurrences(matrix, col, /*upper_only=*/false, &counts, &touched);
  std::erase(touched, col);

  std::vector<sans::SimilarPair> scored;
  scored.reserve(touched.size());
  for (const ColumnId other : touched) {
    scored.push_back(sans::SimilarPair{sans::ColumnPair(col, other),
                                       Jaccard(matrix, col, other,
                                               counts[other])});
  }
  ExactNeighbors out;
  out.wanted = std::min<size_t>(static_cast<size_t>(k), scored.size());
  if (out.wanted == 0) return out;
  std::nth_element(scored.begin(), scored.begin() + (out.wanted - 1),
                   scored.end(), sans::BySimilarityDesc());
  const double kth = scored[out.wanted - 1].similarity;
  for (const sans::SimilarPair& p : scored) {
    if (p.similarity >= kth) {
      out.hits.push_back(p.pair.first == col ? p.pair.second : p.pair.first);
    }
  }
  std::sort(out.hits.begin(), out.hits.end());
  return out;
}

}  // namespace perfbench
