#include "mine/verifier.h"

#include <functional>
#include <utility>

#include "matrix/block_reader.h"
#include "mine/miner.h"
#include "obs/metrics.h"

namespace sans {

namespace {

// THE phase-3 counting kernel: `workers` per-worker counters for
// every candidate, fed the RowBlocks that `scan` delivers, then summed
// in worker-id order. The scan is the RowStream* block loop (one
// worker) or ForEachRowBlock (one worker per pipeline thread).
Result<std::vector<VerifiedPair>> CountPairs(
    ColumnId num_cols, const std::vector<ColumnPair>& candidates,
    int workers, const std::function<Status(const BlockConsumer&)>& scan) {
  for (const ColumnPair& pair : candidates) {
    if (pair.first == pair.second) {
      return Status::InvalidArgument("candidate pair with equal columns");
    }
    if (pair.second >= num_cols) {
      return Status::OutOfRange("candidate column exceeds table width");
    }
  }

  // Shared read-only column -> indices of candidates containing it.
  std::vector<std::vector<uint32_t>> column_to_candidates(num_cols);
  for (size_t i = 0; i < candidates.size(); ++i) {
    column_to_candidates[candidates[i].first].push_back(
        static_cast<uint32_t>(i));
    column_to_candidates[candidates[i].second].push_back(
        static_cast<uint32_t>(i));
  }

  static Counter* const verified_counter =
      MetricsRegistry::Global().GetCounter("sans_verify_candidates_total");
  verified_counter->Increment(candidates.size());

  struct Partial {
    std::vector<VerifiedPair> counts;
    // Per-row scratch: how many of a candidate's two columns appear in
    // the current row (1 => union only, 2 => union + intersection).
    std::vector<uint8_t> present;
    std::vector<uint32_t> touched;
  };
  std::vector<Partial> partials(workers);
  for (Partial& partial : partials) {
    partial.counts.resize(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      partial.counts[i].pair = candidates[i];
    }
    partial.present.assign(candidates.size(), 0);
  }

  SANS_RETURN_IF_ERROR(scan([&](int worker, const RowBlock& block) {
    Partial& partial = partials[worker];
    for (size_t r = 0; r < block.size(); ++r) {
      partial.touched.clear();
      for (ColumnId c : block.columns(r)) {
        for (uint32_t idx : column_to_candidates[c]) {
          if (partial.present[idx] == 0) partial.touched.push_back(idx);
          ++partial.present[idx];
        }
      }
      for (uint32_t idx : partial.touched) {
        ++partial.counts[idx].union_count;
        if (partial.present[idx] == 2) ++partial.counts[idx].intersection_count;
        partial.present[idx] = 0;
      }
    }
    return Status::OK();
  }));

  // Additive merge in worker-id order.
  std::vector<VerifiedPair>& verified = partials[0].counts;
  for (int w = 1; w < workers; ++w) {
    for (size_t i = 0; i < candidates.size(); ++i) {
      verified[i].union_count += partials[w].counts[i].union_count;
      verified[i].intersection_count +=
          partials[w].counts[i].intersection_count;
    }
  }
  return std::move(verified);
}

}  // namespace

Result<std::vector<VerifiedPair>> CountCandidatePairs(
    RowStream* rows, const std::vector<ColumnPair>& candidates) {
  SANS_RETURN_IF_ERROR(rows->Reset());
  // Counts from a truncated verification scan would understate unions
  // and intersections; the block loop surfaces the stream error.
  return CountPairs(rows->num_cols(), candidates, 1,
                    [rows](const BlockConsumer& consume) {
                      return ForEachStreamBlock(rows, consume);
                    });
}

Result<std::vector<VerifiedPair>> CountCandidatePairsParallel(
    const RowStreamSource& source, const std::vector<ColumnPair>& candidates,
    const ExecutionConfig& execution, ThreadPool* pool) {
  SANS_RETURN_IF_ERROR(execution.Validate());
  return CountPairs(source.num_cols(), candidates,
                    BlockWorkers(execution, pool),
                    [&](const BlockConsumer& consume) {
                      return ForEachRowBlock(source, execution, pool,
                                             consume);
                    });
}

Result<std::vector<SimilarPair>> VerifyCandidatesParallel(
    const RowStreamSource& source, const std::vector<ColumnPair>& candidates,
    double threshold, const ExecutionConfig& execution, ThreadPool* pool) {
  SANS_ASSIGN_OR_RETURN(
      std::vector<VerifiedPair> verified,
      CountCandidatePairsParallel(source, candidates, execution, pool));
  static Counter* const true_positives =
      MetricsRegistry::Global().GetCounter("sans_verify_true_positives_total");
  static Counter* const false_positives =
      MetricsRegistry::Global().GetCounter("sans_verify_false_positives_total");
  std::vector<SimilarPair> pairs;
  for (const VerifiedPair& v : verified) {
    const double s = v.similarity();
    if (s >= threshold) {
      pairs.push_back(SimilarPair{v.pair, s});
    }
  }
  true_positives->Increment(pairs.size());
  false_positives->Increment(verified.size() - pairs.size());
  SortPairs(&pairs);
  return pairs;
}

Result<std::vector<SimilarPair>> VerifyCandidates(
    const RowStreamSource& source, const std::vector<ColumnPair>& candidates,
    double threshold) {
  return VerifyCandidatesParallel(source, candidates, threshold,
                                  ExecutionConfig(), nullptr);
}

}  // namespace sans
