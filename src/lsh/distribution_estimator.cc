#include "lsh/distribution_estimator.h"

#include <algorithm>

#include "candgen/hash_count.h"
#include "matrix/row_stream.h"
#include "sketch/min_hash.h"
#include "util/random.h"

namespace sans {
namespace {

/// Accumulates similarities into a fixed-width histogram.
class HistogramAccumulator {
 public:
  HistogramAccumulator(int num_bins, bool drop_zeros)
      : num_bins_(num_bins), drop_zeros_(drop_zeros),
        counts_(num_bins, 0.0) {}

  void Add(double similarity, double weight) {
    if (drop_zeros_ && similarity == 0.0) return;
    int bin = static_cast<int>(similarity * num_bins_);
    bin = std::clamp(bin, 0, num_bins_ - 1);
    counts_[bin] += weight;
  }

  SimilarityDistribution Finish() const {
    SimilarityDistribution distr;
    for (int i = 0; i < num_bins_; ++i) {
      if (counts_[i] == 0.0) continue;  // keep the histogram sparse
      distr.similarity.push_back((i + 0.5) / num_bins_);
      distr.count.push_back(counts_[i]);
    }
    return distr;
  }

 private:
  int num_bins_;
  bool drop_zeros_;
  std::vector<double> counts_;
};

}  // namespace

Result<SimilarityDistribution> EstimateSimilarityDistribution(
    const BinaryMatrix& matrix,
    const DistributionEstimatorOptions& options) {
  if (options.num_bins <= 0) {
    return Status::InvalidArgument("num_bins must be positive");
  }
  if (options.sample_columns < 2) {
    return Status::InvalidArgument("sample_columns must be at least 2");
  }
  const ColumnId m = matrix.num_cols();
  const ColumnId sample_size =
      std::min<ColumnId>(options.sample_columns, m);
  if (sample_size < 2) {
    return Status::InvalidArgument("matrix has fewer than 2 columns");
  }

  Xoshiro256 rng(options.seed);
  const std::vector<uint64_t> sample =
      rng.SampleWithoutReplacement(m, sample_size);

  // Scale sampled pair counts up to full-data pair counts.
  const double all_pairs =
      0.5 * static_cast<double>(m) * (static_cast<double>(m) - 1.0);
  const double sampled_pairs = 0.5 * static_cast<double>(sample_size) *
                               (static_cast<double>(sample_size) - 1.0);
  const double scale = all_pairs / sampled_pairs;

  HistogramAccumulator hist(options.num_bins, options.drop_zeros);
  for (size_t i = 0; i < sample.size(); ++i) {
    for (size_t j = i + 1; j < sample.size(); ++j) {
      hist.Add(matrix.Similarity(static_cast<ColumnId>(sample[i]),
                                 static_cast<ColumnId>(sample[j])),
               scale);
    }
  }
  return hist.Finish();
}

Result<SimilarityDistribution> EstimateSimilarityDistributionSketch(
    const BinaryMatrix& matrix, const SketchDistributionOptions& options) {
  if (options.num_hashes <= 0) {
    return Status::InvalidArgument("num_hashes must be positive");
  }
  if (options.num_bins <= 0) {
    return Status::InvalidArgument("num_bins must be positive");
  }
  if (options.min_similarity < 0.0 || options.min_similarity >= 1.0) {
    return Status::InvalidArgument("min_similarity must lie in [0, 1)");
  }
  MinHashConfig config;
  config.num_hashes = options.num_hashes;
  config.seed = options.seed;
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&matrix);
  SANS_ASSIGN_OR_RETURN(SignatureMatrix signatures,
                        generator.Compute(&stream));

  // The engine keeps exactly the pairs whose estimate a / k reaches
  // min_similarity: the smallest such a ≥ 1 is its threshold.
  int min_agreements = 1;
  while (static_cast<double>(min_agreements) / options.num_hashes <
         options.min_similarity) {
    ++min_agreements;
  }
  const CandidateSet sharing = HashCountMinHash(signatures, min_agreements);
  HistogramAccumulator hist(options.num_bins, /*drop_zeros=*/true);
  for (const auto& [pair, agreements] : sharing) {
    hist.Add(static_cast<double>(agreements) / options.num_hashes, 1.0);
  }
  return hist.Finish();
}

SimilarityDistribution MergeDistributions(const SimilarityDistribution& low,
                                          const SimilarityDistribution& high,
                                          double split) {
  SimilarityDistribution merged;
  for (size_t i = 0; i < low.similarity.size(); ++i) {
    if (low.similarity[i] < split) {
      merged.similarity.push_back(low.similarity[i]);
      merged.count.push_back(low.count[i]);
    }
  }
  for (size_t i = 0; i < high.similarity.size(); ++i) {
    if (high.similarity[i] >= split) {
      merged.similarity.push_back(high.similarity[i]);
      merged.count.push_back(high.count[i]);
    }
  }
  // Bins arrive sorted within each part and the parts do not overlap,
  // but sort defensively so Validate() always holds.
  std::vector<size_t> order(merged.similarity.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return merged.similarity[a] < merged.similarity[b];
  });
  SimilarityDistribution sorted;
  for (size_t idx : order) {
    sorted.similarity.push_back(merged.similarity[idx]);
    sorted.count.push_back(merged.count[idx]);
  }
  return sorted;
}

SimilarityDistribution ExactSimilarityDistribution(const BinaryMatrix& matrix,
                                                   int num_bins,
                                                   bool drop_zeros) {
  SANS_CHECK_GT(num_bins, 0);
  HistogramAccumulator hist(num_bins, drop_zeros);
  const ColumnId m = matrix.num_cols();
  for (ColumnId i = 0; i < m; ++i) {
    for (ColumnId j = i + 1; j < m; ++j) {
      hist.Add(matrix.Similarity(i, j), 1.0);
    }
  }
  return hist.Finish();
}

}  // namespace sans
