// The M-LSH miner (paper Section 4.1): min-hash signatures fed to
// banded locality-sensitive hashing. Candidate generation is linear
// in m (bucket scan) instead of quadratic, making this the fastest of
// the four schemes in the paper's Fig. 9. Parameters (r, l) may be
// given directly or derived from a similarity-distribution estimate
// via OptimizeLshParameters.

#ifndef SANS_MINE_MLSH_MINER_H_
#define SANS_MINE_MLSH_MINER_H_

#include <optional>

#include "candgen/min_lsh.h"
#include "lsh/parameter_optimizer.h"
#include "mine/miner.h"
#include "sketch/min_hash.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sans {

/// Configuration of the M-LSH miner.
struct MlshMinerConfig {
  /// Band shape. In banded mode the signature matrix is computed with
  /// exactly rows_per_band * num_bands hash functions; in sampled
  /// mode `num_hashes` functions are computed and every band draws
  /// rows_per_band of them.
  MinLshConfig lsh;
  /// Hash rows computed in sampled mode (ignored in banded mode,
  /// where k = r·l).
  int num_hashes = 40;
  HashFamily family = HashFamily::kSplitMix64;
  uint64_t seed = 0;
  /// Parallel execution knobs. Output is identical for any thread
  /// count; one thread runs every phase inline on the caller.
  ExecutionConfig execution;

  Status Validate() const;
};

/// Three-phase Min-LSH miner.
class MlshMiner final : public Miner {
 public:
  explicit MlshMiner(const MlshMinerConfig& config);

  /// Convenience: derive (r, l) from a similarity distribution via the
  /// Section 4.1 optimization, then construct the miner in banded
  /// mode. Returns the infeasibility as a Status.
  static Result<MlshMiner> FromDistribution(
      const SimilarityDistribution& distr, const LshOptimizerOptions& options,
      HashFamily family, uint64_t seed);

  std::string name() const override { return "M-LSH"; }
  Result<MiningReport> Mine(const RowStreamSource& source,
                            double threshold) override;

  /// Phase 1: min-hash signatures sized for the band layout (r·l
  /// functions banded, num_hashes sampled), from one scan.
  Result<SignatureMatrix> Sketch(const RowStreamSource& source,
                                 ThreadPool* pool) const;

  /// Phase 2: banded LSH bucketing, parallel per band. The bands fix
  /// the candidate set, so the threshold is not consulted.
  Result<CandidateSet> Candidates(const SignatureMatrix& signatures,
                                  double threshold, ThreadPool* pool) const;

  const MlshMinerConfig& config() const { return config_; }
  /// Set when the miner came from FromDistribution.
  const std::optional<LshParameters>& optimized_parameters() const {
    return optimized_;
  }

 private:
  MlshMinerConfig config_;
  std::optional<LshParameters> optimized_;
};

}  // namespace sans

#endif  // SANS_MINE_MLSH_MINER_H_
