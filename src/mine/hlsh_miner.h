// The H-LSH miner (paper Section 4.2): Hamming-distance LSH directly
// on the data via the OR-fold pyramid and density bands. Unlike the
// min-hash schemes it needs random row access at every pyramid level,
// so the table is materialized in memory for phase 2 (the paper also
// operates on the actual data here). Verification still runs as a
// stream scan, keeping the output free of false positives.

#ifndef SANS_MINE_HLSH_MINER_H_
#define SANS_MINE_HLSH_MINER_H_

#include <vector>

#include "candgen/hamming_lsh.h"
#include "mine/miner.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sans {

/// Configuration of the H-LSH miner.
struct HlshMinerConfig {
  HammingLshConfig lsh;
  /// Parallel execution knobs. Candidate probing and the verification
  /// scan run on the pool; materialization and the pyramid need random
  /// row access over the matrix and run on the calling thread.
  ExecutionConfig execution;

  Status Validate() const {
    SANS_RETURN_IF_ERROR(lsh.Validate());
    return execution.Validate();
  }
};

/// Three-phase Hamming-LSH miner.
class HlshMiner final : public Miner {
 public:
  explicit HlshMiner(const HlshMinerConfig& config);

  std::string name() const override { return "H-LSH"; }
  Result<MiningReport> Mine(const RowStreamSource& source,
                            double threshold) override;

  /// Phase 1: the table materialized in memory (H-LSH works on the
  /// data itself, not on a sketch), from one scan on the calling
  /// thread. Rows and column cardinalities only: no column-major view.
  Result<BinaryMatrix> Sketch(const RowStreamSource& source,
                              ThreadPool* pool) const;

  /// Phase 2: the pyramid, folded one level at a time, +
  /// density-banded bucketing, probed on `pool`;
  /// records the per-level statistics. The threshold is not consulted.
  Result<CandidateSet> Candidates(const BinaryMatrix& matrix,
                                  double threshold, ThreadPool* pool);

  /// Per-level statistics of the last Mine() / Candidates() call.
  const std::vector<HammingLshLevelStats>& last_level_stats() const {
    return level_stats_;
  }

  const HlshMinerConfig& config() const { return config_; }

 private:
  HlshMinerConfig config_;
  std::vector<HammingLshLevelStats> level_stats_;
};

}  // namespace sans

#endif  // SANS_MINE_HLSH_MINER_H_
