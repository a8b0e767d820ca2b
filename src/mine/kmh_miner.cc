#include "mine/kmh_miner.h"

#include "candgen/candidate_set.h"
#include "candgen/hash_count.h"
#include "mine/parallel.h"
#include "mine/verifier.h"
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

std::vector<SimilarPair> PruneByUnbiasedEstimate(
    const KMinHashSketch& sketch, const CandidateSet& candidates,
    double floor) {
  std::vector<SimilarPair> survivors;
  for (const ColumnPair& pair : candidates.SortedPairs()) {
    const double estimate = EstimateSimilarityUnbiased(
        sketch.Signature(pair.first), sketch.Signature(pair.second),
        sketch.k());
    if (estimate >= floor) survivors.push_back(SimilarPair{pair, estimate});
  }
  return survivors;
}

KmhMiner::KmhMiner(const KmhMinerConfig& config) : config_(config) {
  SANS_CHECK(config.Validate().ok());
}

Result<MiningReport> KmhMiner::Mine(const RowStreamSource& source,
                                    double threshold) {
  if (threshold <= 0.0 || threshold > 1.0) {
    return Status::InvalidArgument("threshold must lie in (0, 1]");
  }
  MiningReport report;
  // One pool shared by all three phases (null => sequential).
  const std::unique_ptr<ThreadPool> pool = MaybeCreatePool(config_.execution);

  // Phase 1: bottom-k sketch computation (single pass, one hash/row).
  KMinHashSketch sketch(1, 0);
  {
    ScopedPhase phase(&report.timers, kPhaseSignatures);
    SANS_ASSIGN_OR_RETURN(
        sketch, ComputeKMinHashParallel(source, config_.sketch,
                                        config_.execution, pool.get()));
  }

  // Phase 2a: biased Hash-Count filter on |SIG_i ∩ SIG_j|.
  // Phase 2b: unbiased Theorem-2 pruning of survivors.
  std::vector<ColumnPair> survivors;
  {
    ScopedPhase phase(&report.timers, kPhaseCandidates);
    // Adaptive Lemma-1 cut: proportional to each pair's signature
    // sizes, so columns sparser than k are filtered fairly.
    SANS_ASSIGN_OR_RETURN(
        const CandidateSet candidates,
        HashCountKMinHashAdaptiveParallel(
            sketch, config_.hash_count_slack * threshold, pool.get()));
    if (config_.unbiased_pruning) {
      for (const SimilarPair& survivor : PruneByUnbiasedEstimate(
               sketch, candidates, (1.0 - config_.delta) * threshold)) {
        survivors.push_back(survivor.pair);
      }
    } else {
      survivors = candidates.SortedPairs();
    }
  }
  report.candidates = survivors;
  report.num_candidates = survivors.size();

  // Phase 3: exact verification (second pass).
  {
    ScopedPhase phase(&report.timers, kPhaseVerify);
    SANS_ASSIGN_OR_RETURN(
        report.pairs,
        VerifyCandidatesParallel(source, survivors, threshold,
                                 config_.execution, pool.get()));
  }
  return report;
}

}  // namespace sans
