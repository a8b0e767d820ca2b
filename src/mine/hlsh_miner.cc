#include "mine/hlsh_miner.h"

#include "candgen/candidate_set.h"

namespace sans {

HlshMiner::HlshMiner(const HlshMinerConfig& config) : config_(config) {
  SANS_CHECK(config.Validate().ok());
}

Result<MiningReport> HlshMiner::Mine(const RowStreamSource& source,
                                     double threshold) {
  return MineInStages(*this, source, threshold, config_.execution);
}

Result<BinaryMatrix> HlshMiner::Sketch(const RowStreamSource& source,
                                       ThreadPool* /*pool*/) const {
  SANS_ASSIGN_OR_RETURN(std::unique_ptr<RowStream> stream, source.Open());
  return MaterializeStream(stream.get());
}

Result<CandidateSet> HlshMiner::Candidates(const BinaryMatrix& matrix,
                                           double /*threshold*/,
                                           ThreadPool* pool) {
  level_stats_.clear();
  return HammingLshCandidateGenerator(config_.lsh)
      .Generate(matrix, pool, &level_stats_);
}

}  // namespace sans
