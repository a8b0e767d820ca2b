#include "mine/mlsh_miner.h"

#include "mine/parallel.h"

namespace sans {

Status MlshMinerConfig::Validate() const {
  SANS_RETURN_IF_ERROR(lsh.Validate());
  if (lsh.sampled && num_hashes <= 0) {
    return Status::InvalidArgument(
        "sampled mode requires positive num_hashes");
  }
  SANS_RETURN_IF_ERROR(execution.Validate());
  return Status::OK();
}

MlshMiner::MlshMiner(const MlshMinerConfig& config) : config_(config) {
  SANS_CHECK(config.Validate().ok());
}

Result<MlshMiner> MlshMiner::FromDistribution(
    const SimilarityDistribution& distr, const LshOptimizerOptions& options,
    HashFamily family, uint64_t seed) {
  const LshParameters params = OptimizeLshParameters(distr, options);
  if (!params.feasible) {
    return Status::NotFound(
        "no (r, l) in the search space meets the FP/FN constraints");
  }
  MlshMinerConfig config;
  config.lsh.rows_per_band = params.r;
  config.lsh.num_bands = params.l;
  config.lsh.sampled = false;
  config.family = family;
  config.seed = seed;
  MlshMiner miner(config);
  miner.optimized_ = params;
  return miner;
}

Result<MiningReport> MlshMiner::Mine(const RowStreamSource& source,
                                     double threshold) {
  return MineInStages(*this, source, threshold, config_.execution);
}

Result<SignatureMatrix> MlshMiner::Sketch(const RowStreamSource& source,
                                          ThreadPool* pool) const {
  const MinLshConfig& lsh = config_.lsh;
  MinHashConfig mh_config;
  mh_config.num_hashes =
      lsh.sampled ? config_.num_hashes : lsh.rows_per_band * lsh.num_bands;
  mh_config.family = config_.family;
  mh_config.seed = config_.seed;
  return ComputeMinHashParallel(source, mh_config, config_.execution, pool);
}

Result<CandidateSet> MlshMiner::Candidates(const SignatureMatrix& signatures,
                                           double /*threshold*/,
                                           ThreadPool* pool) const {
  MinLshConfig lsh = config_.lsh;
  lsh.seed = config_.seed;
  return MinLshCandidateGenerator(lsh).Generate(signatures, pool);
}

}  // namespace sans
