#include "serve/query_engine.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "sketch/estimators.h"
#include "util/bounded_heap.h"

namespace sans {

QueryEngine::QueryEngine(std::shared_ptr<const SimilarityIndex> index)
    : index_(std::move(index)) {
  SANS_CHECK(index_ != nullptr);
}

namespace {

Status ValidateColumn(const SimilarityIndex& index, ColumnId col,
                      const char* what) {
  if (col >= index.num_cols()) {
    return Status::InvalidArgument(std::string(what) + " column " +
                                   std::to_string(col) +
                                   " out of range (num_cols=" +
                                   std::to_string(index.num_cols()) + ")");
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<Neighbor>> QueryEngine::TopK(ColumnId col, int k,
                                                double min_similarity,
                                                TopKInfo* info) const {
  SANS_RETURN_IF_ERROR(ValidateColumn(*index_, col, "query"));
  if (k <= 0) {
    return Status::InvalidArgument("k must be positive, got " +
                                   std::to_string(k));
  }
  if (info != nullptr) *info = TopKInfo{};

  const KMinHashSketch& sketch = index_->sketch();
  const auto query_sketch = sketch.Signature(col);

  // The touched columns: distinct posting mates of `col`.
  std::vector<ColumnId> touched;
  index_->ForEachPostingMate(col, [&](ColumnId j) { touched.push_back(j); });
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  if (info != nullptr) info->bucket_candidates = touched.size();

  BoundedMaxHeap<Neighbor> best(static_cast<size_t>(k));
  size_t positive = 0;
  for (ColumnId other : touched) {
    const double similarity = EstimateSimilarityUnbiased(
        query_sketch, sketch.Signature(other), sketch.k());
    if (similarity > 0.0) ++positive;
    if (similarity < min_similarity) continue;
    best.Offer(Neighbor{other, similarity});
  }

  // Every untouched column estimates exactly 0. They matter only when
  // 0 passes the threshold (the same predicate as above, so a NaN
  // threshold passes everything) and the positives cannot fill k;
  // then the k lowest untouched ids are all the heap can still take.
  if (!(0.0 < min_similarity) && positive < static_cast<size_t>(k)) {
    if (info != nullptr) info->fallback_scan = true;
    auto next_touched = touched.begin();
    int offered = 0;
    for (ColumnId other = 0; other < index_->num_cols() && offered < k;
         ++other) {
      if (next_touched != touched.end() && *next_touched == other) {
        ++next_touched;
        continue;
      }
      if (other == col || sketch.ColumnCardinality(other) == 0) continue;
      best.Offer(Neighbor{other, 0.0});
      ++offered;
    }
  }
  // Neighbor's operator< ranks "more similar" as smaller, so the k
  // smallest retained values come out best-first.
  return best.TakeSortedValues();
}

Result<double> QueryEngine::PairSimilarity(ColumnId a, ColumnId b) const {
  SANS_RETURN_IF_ERROR(ValidateColumn(*index_, a, "first"));
  SANS_RETURN_IF_ERROR(ValidateColumn(*index_, b, "second"));
  if (a == b) return 1.0;
  const KMinHashSketch& sketch = index_->sketch();
  return EstimateSimilarityUnbiased(sketch.Signature(a), sketch.Signature(b),
                                    sketch.k());
}

Result<std::vector<std::vector<Neighbor>>> QueryEngine::BatchTopK(
    std::span<const ColumnId> cols, int k, double min_similarity,
    ThreadPool* pool) const {
  std::vector<std::vector<Neighbor>> results(cols.size());
  const auto run_one = [&](int64_t i) -> Status {
    SANS_ASSIGN_OR_RETURN(results[i],
                          TopK(cols[i], k, min_similarity, nullptr));
    return Status::OK();
  };
  if (pool == nullptr) {
    for (int64_t i = 0; i < static_cast<int64_t>(cols.size()); ++i) {
      SANS_RETURN_IF_ERROR(run_one(i));
    }
  } else {
    SANS_RETURN_IF_ERROR(
        pool->ParallelFor(static_cast<int64_t>(cols.size()), run_one));
  }
  return results;
}

}  // namespace sans
