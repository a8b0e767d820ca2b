#include "mine/kmh_miner.h"

#include <utility>

#include "candgen/candidate_set.h"
#include "candgen/hash_count.h"
#include "mine/parallel.h"
#include "sketch/estimators.h"

namespace sans {

Status KmhMinerConfig::Validate() const {
  SANS_RETURN_IF_ERROR(sketch.Validate());
  if (hash_count_slack <= 0.0 || hash_count_slack > 1.0) {
    return Status::InvalidArgument("hash_count_slack must lie in (0, 1]");
  }
  if (delta < 0.0 || delta >= 1.0) {
    return Status::InvalidArgument("delta must lie in [0, 1)");
  }
  SANS_RETURN_IF_ERROR(execution.Validate());
  return Status::OK();
}

namespace {

double UnbiasedEstimate(const KMinHashSketch& sketch, ColumnPair pair) {
  return EstimateSimilarityUnbiased(
      sketch.Signature(pair.first), sketch.Signature(pair.second), sketch.k());
}

}  // namespace

std::vector<SimilarPair> PruneByUnbiasedEstimate(
    const KMinHashSketch& sketch, const CandidateSet& candidates,
    double floor) {
  std::vector<SimilarPair> survivors;
  for (const auto& [pair, count] : candidates) {
    const double estimate = UnbiasedEstimate(sketch, pair);
    if (estimate >= floor) survivors.push_back(SimilarPair{pair, estimate});
  }
  return survivors;
}

KmhMiner::KmhMiner(const KmhMinerConfig& config) : config_(config) {
  SANS_CHECK(config.Validate().ok());
}

Result<MiningReport> KmhMiner::Mine(const RowStreamSource& source,
                                    double threshold) {
  return MineInStages(*this, source, threshold, config_.execution);
}

Result<KMinHashSketch> KmhMiner::Sketch(const RowStreamSource& source,
                                        ThreadPool* pool) const {
  return ComputeKMinHashParallel(source, config_.sketch, config_.execution,
                                 pool);
}

Result<CandidateSet> KmhMiner::Candidates(const KMinHashSketch& sketch,
                                          double threshold,
                                          ThreadPool* pool) const {
  // Adaptive Lemma-1 cut: proportional to each pair's signature sizes,
  // so columns sparser than k are filtered fairly.
  SANS_ASSIGN_OR_RETURN(
      CandidateSet candidates,
      HashCountKMinHashAdaptiveParallel(
          sketch, config_.hash_count_slack * threshold, pool));
  if (!config_.unbiased_pruning) return candidates;
  const double floor = (1.0 - config_.delta) * threshold;
  return std::move(candidates).Filter([&](const CandidateSet::Entry& entry) {
    return UnbiasedEstimate(sketch, entry.first) >= floor;
  });
}

}  // namespace sans
