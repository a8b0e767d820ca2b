#include "mine/mh_miner.h"

#include <algorithm>
#include <cmath>

#include "candgen/hash_count.h"
#include "mine/parallel.h"

namespace sans {

Status MhMinerConfig::Validate() const {
  SANS_RETURN_IF_ERROR(min_hash.Validate());
  if (delta < 0.0 || delta >= 1.0) {
    return Status::InvalidArgument("delta must lie in [0, 1)");
  }
  SANS_RETURN_IF_ERROR(execution.Validate());
  return Status::OK();
}

MhMiner::MhMiner(const MhMinerConfig& config) : config_(config) {
  SANS_CHECK(config.Validate().ok());
}

Result<MiningReport> MhMiner::Mine(const RowStreamSource& source,
                                   double threshold) {
  return MineInStages(*this, source, threshold, config_.execution);
}

Result<SignatureMatrix> MhMiner::Sketch(const RowStreamSource& source,
                                        ThreadPool* pool) const {
  return ComputeMinHashParallel(source, config_.min_hash, config_.execution,
                                pool);
}

Result<CandidateSet> MhMiner::Candidates(const SignatureMatrix& signatures,
                                         double threshold,
                                         ThreadPool* pool) const {
  const int k = config_.min_hash.num_hashes;
  const int min_agreements = std::max(
      1, static_cast<int>(std::ceil((1.0 - config_.delta) * threshold * k)));
  return HashCountMinHashParallel(signatures, min_agreements, pool);
}

}  // namespace sans
