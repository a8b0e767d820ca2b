#include "mine/online_mlsh.h"

#include <cmath>

#include "candgen/flat_buckets.h"
#include "mine/miner.h"
#include "mine/verifier.h"
#include "util/hashing.h"

namespace sans {

Status OnlineMlshConfig::Validate() const {
  if (rows_per_band <= 0) {
    return Status::InvalidArgument("rows_per_band must be positive");
  }
  if (max_bands <= 0) {
    return Status::InvalidArgument("max_bands must be positive");
  }
  return Status::OK();
}

OnlineMlshMiner::OnlineMlshMiner(const OnlineMlshConfig& config)
    : config_(config), signatures_(1, 0) {
  SANS_CHECK(config.Validate().ok());
}

Status OnlineMlshMiner::Start(const RowStreamSource& source,
                              double threshold) {
  if (threshold <= 0.0 || threshold > 1.0) {
    return Status::InvalidArgument("threshold must lie in (0, 1]");
  }
  MinHashConfig mh_config;
  mh_config.num_hashes = config_.rows_per_band * config_.max_bands;
  mh_config.family = config_.family;
  mh_config.seed = config_.seed;
  MinHashGenerator generator(mh_config);
  SANS_ASSIGN_OR_RETURN(std::unique_ptr<RowStream> stream, source.Open());
  SANS_ASSIGN_OR_RETURN(signatures_, generator.Compute(stream.get()));

  source_ = &source;
  threshold_ = threshold;
  next_band_ = 0;
  seen_candidates_.clear();
  found_.clear();
  return Status::OK();
}

Result<OnlineStepResult> OnlineMlshMiner::Step() {
  if (source_ == nullptr) {
    return Status::Internal("Step() before Start()");
  }
  if (done()) {
    return Status::OutOfRange("all bands already processed");
  }
  const int band = next_band_++;
  const int r = config_.rows_per_band;

  // Bucket every non-empty column on this band's r values.
  const ColumnId m = signatures_.num_cols();
  const FlatBuckets buckets(m, 1, m, [&](uint32_t, const auto& add) {
    for (ColumnId c = 0; c < m; ++c) {
      if (signatures_.ColumnEmpty(c)) continue;
      uint64_t key = Mix64(0xd6e8feb86659fd93ULL + band);
      for (int i = 0; i < r; ++i) {
        key = CombineHashes(key, signatures_.Value(band * r + i, c));
      }
      add(c, key);
    }
  });
  SANS_ASSIGN_OR_RETURN(const CandidateSet band_pairs,
                        buckets.Count(nullptr, KeepEveryPair()));

  // Keep the candidates not seen in earlier bands.
  std::vector<ColumnPair> fresh;
  for (const auto& [pair, count] : band_pairs) {
    if (seen_candidates_.insert(pair).second) fresh.push_back(pair);
  }

  OnlineStepResult result;
  result.band = band;
  result.new_candidates = fresh.size();
  result.residual_fn_probability =
      std::pow(1.0 - std::pow(threshold_, r), next_band_);

  // Verify just the fresh candidates ("new false positives ... can be
  // removed at a small additional cost"). A pair is fresh in one step
  // only, so no confirmed pair was found before.
  if (!fresh.empty()) {
    SANS_ASSIGN_OR_RETURN(result.new_pairs,
                          VerifyCandidates(*source_, fresh, threshold_));
    found_.insert(found_.end(), result.new_pairs.begin(),
                  result.new_pairs.end());
    SortPairs(&result.new_pairs);
  }
  return result;
}

}  // namespace sans
