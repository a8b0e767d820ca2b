// The K-MH miner (paper Section 3.2): bottom-k sketches with a single
// hash per row. Phase 2 runs in two stages, exactly as the paper
// prescribes: a cheap biased estimate via Hash-Count on
// |SIG_i ∩ SIG_j| filters the pair space, then the unbiased
// Theorem-2 estimator (merge-join on SIG_{i∪j}) prunes in main
// memory before the exact verification scan.

#ifndef SANS_MINE_KMH_MINER_H_
#define SANS_MINE_KMH_MINER_H_

#include <vector>

#include "candgen/candidate_set.h"
#include "core/types.h"
#include "mine/miner.h"
#include "sketch/k_min_hash.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sans {

/// Configuration of the K-MH miner.
struct KmhMinerConfig {
  KMinHashConfig sketch;
  /// Slack on the Hash-Count threshold (fraction of the expected
  /// |SIG_i ∩ SIG_j| at similarity s* a pair must reach). Lower slack
  /// admits more candidates into the unbiased pruning stage.
  double hash_count_slack = 0.5;
  /// δ applied to the unbiased estimator: pairs below (1-δ)·s* are
  /// pruned before verification.
  double delta = 0.2;
  /// When false, the unbiased pruning stage is skipped and every
  /// Hash-Count survivor goes to verification (ablation knob).
  bool unbiased_pruning = true;
  /// Parallel execution knobs. Output is identical for any thread
  /// count; one thread runs every phase inline on the caller.
  ExecutionConfig execution;

  Status Validate() const;
};

/// Phase 2b, the unbiased Theorem-2 pruning: the Hash-Count
/// `candidates` whose unbiased estimate over `sketch` reaches `floor`,
/// each with that estimate, in ascending pair order.
std::vector<SimilarPair> PruneByUnbiasedEstimate(
    const KMinHashSketch& sketch, const CandidateSet& candidates,
    double floor);

/// Three-phase K-Min-Hash miner.
class KmhMiner final : public Miner {
 public:
  explicit KmhMiner(const KmhMinerConfig& config);

  std::string name() const override { return "K-MH"; }
  Result<MiningReport> Mine(const RowStreamSource& source,
                            double threshold) override;

  /// Phase 1: bottom-k sketches plus exact cardinalities, from one
  /// scan.
  Result<KMinHashSketch> Sketch(const RowStreamSource& source,
                                ThreadPool* pool) const;

  /// Phase 2: the adaptive Hash-Count survivors at
  /// hash_count_slack·s* (2a), pruned to the pairs whose unbiased
  /// estimate reaches (1-δ)·s* when unbiased_pruning is set (2b). Each
  /// pair keeps its Hash-Count count.
  Result<CandidateSet> Candidates(const KMinHashSketch& sketch,
                                  double threshold, ThreadPool* pool) const;

  const KmhMinerConfig& config() const { return config_; }

 private:
  KmhMinerConfig config_;
};

}  // namespace sans

#endif  // SANS_MINE_KMH_MINER_H_
