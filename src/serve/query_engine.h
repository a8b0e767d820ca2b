// Query-time similarity answers over a loaded SimilarityIndex.
//
// TopK walks the query column's sketch-value postings (the paper's
// K-MH per-value bucketing, Section 3.1, applied at query time): the
// columns sharing at least one sketch value with the query are the
// touched columns, and they are the only ones whose Theorem 2 estimate
// can exceed 0. Each touched column is reranked with the unbiased
// estimator through util/bounded_heap. When an estimate of 0 passes
// the threshold and fewer than k touched columns scored above 0, a
// zero-fill offers the untouched non-empty columns at 0 in ascending
// id order, stopping after k of them. The heap's (similarity desc,
// column asc) order merges them with the touched zeros, so every
// answer is exactly what a scan of all column sketches would return.
// PairSimilarity is a point estimate over the two sketches. The engine
// is stateless beyond a shared_ptr to the index, so one engine per
// request (or one per server) are equally correct, and batch queries
// fan out over a ThreadPool with deterministic per-query output.

#ifndef SANS_SERVE_QUERY_ENGINE_H_
#define SANS_SERVE_QUERY_ENGINE_H_

#include <memory>
#include <span>
#include <vector>

#include "serve/similarity_index.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sans {

/// One TopK answer entry.
struct Neighbor {
  ColumnId col = 0;
  double similarity = 0.0;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
  /// Heap/result ordering: "smaller" = more similar, ties broken by
  /// lower column id — so a BoundedMaxHeap's k smallest elements are
  /// the k best neighbors and results are deterministic.
  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.col < b.col;
  }
};

/// Diagnostics of one TopK evaluation (work per query).
struct TopKInfo {
  /// Touched columns: the distinct columns sharing a sketch value with
  /// the query (self excluded), each reranked once.
  size_t bucket_candidates = 0;
  /// True when the zero-fill ran: an estimate of 0 passed the
  /// threshold and fewer than k touched columns scored above 0.
  bool fallback_scan = false;
};

class QueryEngine {
 public:
  explicit QueryEngine(std::shared_ptr<const SimilarityIndex> index);

  const SimilarityIndex& index() const { return *index_; }

  /// Up to `k` most similar columns to `col`, descending estimated
  /// similarity (ties by column id), excluding `col` itself and
  /// neighbors below `min_similarity`. `info` (optional) receives
  /// evaluation diagnostics.
  Result<std::vector<Neighbor>> TopK(ColumnId col, int k,
                                     double min_similarity = 0.0,
                                     TopKInfo* info = nullptr) const;

  /// Estimated Jaccard similarity of two columns (exact when the
  /// union of the two columns has at most sketch_k rows).
  Result<double> PairSimilarity(ColumnId a, ColumnId b) const;

  /// TopK for every query column, fanned out over `pool` (sequential
  /// when null). Output order matches `cols`; each entry is exactly
  /// what the sequential TopK would return.
  Result<std::vector<std::vector<Neighbor>>> BatchTopK(
      std::span<const ColumnId> cols, int k, double min_similarity,
      ThreadPool* pool) const;

 private:
  std::shared_ptr<const SimilarityIndex> index_;
};

}  // namespace sans

#endif  // SANS_SERVE_QUERY_ENGINE_H_
