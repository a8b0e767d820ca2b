#include "candgen/min_lsh.h"

#include <algorithm>

#include "candgen/flat_buckets.h"
#include "obs/metrics.h"
#include "util/hashing.h"
#include "util/random.h"

namespace sans {

Status MinLshConfig::Validate() const {
  if (rows_per_band <= 0) {
    return Status::InvalidArgument("rows_per_band must be positive");
  }
  if (num_bands <= 0) {
    return Status::InvalidArgument("num_bands must be positive");
  }
  return Status::OK();
}

MinLshCandidateGenerator::MinLshCandidateGenerator(const MinLshConfig& config)
    : config_(config) {
  SANS_CHECK(config.Validate().ok());
}

std::vector<int> MinLshCandidateGenerator::BandIndices(int band,
                                                       int available) const {
  SANS_CHECK_GE(band, 0);
  SANS_CHECK_LT(band, config_.num_bands);
  SANS_CHECK_GT(available, 0);
  std::vector<int> indices(config_.rows_per_band);
  if (!config_.sampled) {
    for (int i = 0; i < config_.rows_per_band; ++i) {
      indices[i] = band * config_.rows_per_band + i;
      SANS_CHECK_LT(indices[i], available);
    }
    return indices;
  }
  // Sampled mode: deterministic per (seed, band) so Generate() and
  // tests agree. Sampling is with replacement across and within
  // bands, matching the Q_{r,l,k} analysis where "some of the k
  // Min-Hash values can participate in more than one hashing key".
  Xoshiro256 rng(Mix64(config_.seed) ^ (0x9e3779b97f4a7c15ULL * (band + 1)));
  for (int i = 0; i < config_.rows_per_band; ++i) {
    indices[i] = static_cast<int>(rng.NextBounded(available));
  }
  return indices;
}

Result<CandidateSet> MinLshCandidateGenerator::Generate(
    const SignatureMatrix& signatures) const {
  return Generate(signatures, nullptr);
}

Result<CandidateSet> MinLshCandidateGenerator::Generate(
    const SignatureMatrix& signatures, ThreadPool* pool) const {
  const int k = signatures.num_hashes();
  if (!config_.sampled &&
      k != config_.rows_per_band * config_.num_bands) {
    return Status::InvalidArgument(
        "banded Min-LSH requires num_hashes == rows_per_band * num_bands");
  }
  if (k <= 0) {
    return Status::InvalidArgument("signature matrix has no hash rows");
  }
  const ColumnId m = signatures.num_cols();

  // One bucket table per band, keyed by an order-sensitive combination
  // of the band's r values, seeded by the band id so identical values
  // in different bands land in independent bucket spaces. All columns
  // that share a bucket are pairwise candidates (paper: "all columns
  // that hash into the same bucket are pairwise declared candidates"),
  // and a pair's count is the number of bands it collided in.
  std::vector<uint64_t> band_keys(m);
  const FlatBuckets buckets(
      m, static_cast<uint32_t>(config_.num_bands),
      static_cast<size_t>(config_.num_bands) * m,
      [&](uint32_t band, const auto& add) {
        std::fill(band_keys.begin(), band_keys.end(),
                  Mix64(0xb5ad4eceda1ce2a9ULL + band));
        for (int idx : BandIndices(static_cast<int>(band), k)) {
          const auto row = signatures.HashRow(idx);
          for (ColumnId c = 0; c < m; ++c) {
            band_keys[c] = CombineHashes(band_keys[c], row[c]);
          }
        }
        for (ColumnId c = 0; c < m; ++c) {
          if (!signatures.ColumnEmpty(c)) add(c, band_keys[c]);
        }
      });
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter* const bands_counter =
      registry.GetCounter("sans_candgen_bands_total");
  static Counter* const buckets_counter =
      registry.GetCounter("sans_candgen_buckets_total");
  static Counter* const bucket_pairs_counter =
      registry.GetCounter("sans_candgen_bucket_pairs_total");
  for (const BucketRunStats& band : buckets.run_stats()) {
    bands_counter->Increment();
    buckets_counter->Increment(band.runs);
    bucket_pairs_counter->Increment(band.pairs);
  }
  return buckets.Count(pool, KeepEveryPair());
}

}  // namespace sans
