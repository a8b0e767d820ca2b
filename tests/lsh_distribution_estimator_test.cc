#include "lsh/distribution_estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "data/weblog_generator.h"
#include "matrix/row_stream.h"
#include "sketch/min_hash.h"

namespace sans {
namespace {

WeblogDataset SmallWeblog() {
  WeblogConfig config;
  config.num_clients = 3000;
  config.num_urls = 200;
  config.num_bundles = 10;
  config.seed = 5;
  auto d = GenerateWeblog(config);
  EXPECT_TRUE(d.ok());
  return std::move(d).value();
}

TEST(ExactSimilarityDistributionTest, TotalsMatchNonzeroPairs) {
  const WeblogDataset data = SmallWeblog();
  const SimilarityDistribution distr =
      ExactSimilarityDistribution(data.matrix, 100, /*drop_zeros=*/true);
  ASSERT_TRUE(distr.Validate().ok());
  // Count nonzero-similarity pairs directly.
  double expected = 0.0;
  for (ColumnId i = 0; i < data.matrix.num_cols(); ++i) {
    for (ColumnId j = i + 1; j < data.matrix.num_cols(); ++j) {
      if (data.matrix.Similarity(i, j) > 0.0) expected += 1.0;
    }
  }
  double total = 0.0;
  for (double c : distr.count) total += c;
  EXPECT_DOUBLE_EQ(total, expected);
}

TEST(ExactSimilarityDistributionTest, HighBinsHoldBundlePairs) {
  // The planted resource bundles produce pairs above 0.5 similarity —
  // the Fig. 3 high tail.
  const WeblogDataset data = SmallWeblog();
  const SimilarityDistribution distr =
      ExactSimilarityDistribution(data.matrix, 20, true);
  double high_mass = 0.0;
  for (size_t i = 0; i < distr.similarity.size(); ++i) {
    if (distr.similarity[i] >= 0.5) high_mass += distr.count[i];
  }
  EXPECT_GT(high_mass, 0.0);
}

TEST(EstimateSimilarityDistributionTest, RejectsBadOptions) {
  const WeblogDataset data = SmallWeblog();
  DistributionEstimatorOptions options;
  options.num_bins = 0;
  EXPECT_FALSE(EstimateSimilarityDistribution(data.matrix, options).ok());
  options = {};
  options.sample_columns = 1;
  EXPECT_FALSE(EstimateSimilarityDistribution(data.matrix, options).ok());
}

TEST(EstimateSimilarityDistributionTest, FullSampleEqualsExact) {
  const WeblogDataset data = SmallWeblog();
  DistributionEstimatorOptions options;
  options.sample_columns = data.matrix.num_cols();  // sample everything
  options.num_bins = 50;
  options.seed = 1;
  auto estimated = EstimateSimilarityDistribution(data.matrix, options);
  ASSERT_TRUE(estimated.ok());
  const SimilarityDistribution exact =
      ExactSimilarityDistribution(data.matrix, 50, true);
  ASSERT_EQ(estimated->similarity.size(), exact.similarity.size());
  for (size_t i = 0; i < exact.similarity.size(); ++i) {
    EXPECT_DOUBLE_EQ(estimated->similarity[i], exact.similarity[i]);
    EXPECT_NEAR(estimated->count[i], exact.count[i],
                exact.count[i] * 1e-9 + 1e-9);
  }
}

TEST(EstimateSimilarityDistributionTest, SampleApproximatesLowMass) {
  // The dominant low-similarity mass should be estimated within a
  // factor ~2 from a modest column sample.
  const WeblogDataset data = SmallWeblog();
  DistributionEstimatorOptions options;
  options.sample_columns = 80;
  options.num_bins = 10;
  options.seed = 9;
  auto estimated = EstimateSimilarityDistribution(data.matrix, options);
  ASSERT_TRUE(estimated.ok());
  const SimilarityDistribution exact =
      ExactSimilarityDistribution(data.matrix, 10, true);

  const auto mass_below = [](const SimilarityDistribution& d, double s) {
    double total = 0.0;
    for (size_t i = 0; i < d.similarity.size(); ++i) {
      if (d.similarity[i] < s) total += d.count[i];
    }
    return total;
  };
  const double est = mass_below(*estimated, 0.3);
  const double act = mass_below(exact, 0.3);
  ASSERT_GT(act, 0.0);
  EXPECT_GT(est, act * 0.4);
  EXPECT_LT(est, act * 2.5);
}

TEST(EstimateSimilarityDistributionTest, DeterministicFromSeed) {
  const WeblogDataset data = SmallWeblog();
  DistributionEstimatorOptions options;
  options.sample_columns = 50;
  options.seed = 77;
  auto a = EstimateSimilarityDistribution(data.matrix, options);
  auto b = EstimateSimilarityDistribution(data.matrix, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->similarity, b->similarity);
  EXPECT_EQ(a->count, b->count);
}


TEST(SketchDistributionTest, RejectsBadOptions) {
  const WeblogDataset data = SmallWeblog();
  SketchDistributionOptions options;
  options.num_hashes = 0;
  EXPECT_FALSE(
      EstimateSimilarityDistributionSketch(data.matrix, options).ok());
  options = {};
  options.num_bins = 0;
  EXPECT_FALSE(
      EstimateSimilarityDistributionSketch(data.matrix, options).ok());
  options = {};
  options.min_similarity = 1.0;
  EXPECT_FALSE(
      EstimateSimilarityDistributionSketch(data.matrix, options).ok());
}

TEST(SketchDistributionTest, SeesTheHighTail) {
  // The motivating case: rare high-similarity pairs invisible to a
  // small column sample are visible to the min-hash sketch.
  const WeblogDataset data = SmallWeblog();
  const SimilarityDistribution exact =
      ExactSimilarityDistribution(data.matrix, 20, true);
  double actual_high = 0.0;
  for (size_t i = 0; i < exact.similarity.size(); ++i) {
    if (exact.similarity[i] >= 0.5) actual_high += exact.count[i];
  }
  ASSERT_GT(actual_high, 0.0);

  SketchDistributionOptions options;
  options.num_hashes = 64;
  options.seed = 11;
  auto sketched =
      EstimateSimilarityDistributionSketch(data.matrix, options);
  ASSERT_TRUE(sketched.ok());
  double estimated_high = 0.0;
  for (size_t i = 0; i < sketched->similarity.size(); ++i) {
    if (sketched->similarity[i] >= 0.5) estimated_high += sketched->count[i];
  }
  // Within a factor 2 of the truth (binomial smearing across the 0.5
  // boundary is the main error source).
  EXPECT_GT(estimated_high, actual_high * 0.5);
  EXPECT_LT(estimated_high, actual_high * 2.0);
}

TEST(SketchDistributionTest, DropsMassBelowFloor) {
  const WeblogDataset data = SmallWeblog();
  SketchDistributionOptions options;
  options.min_similarity = 0.3;
  options.seed = 1;
  auto sketched =
      EstimateSimilarityDistributionSketch(data.matrix, options);
  ASSERT_TRUE(sketched.ok());
  for (double s : sketched->similarity) {
    EXPECT_GE(s, 0.3 - 1e-9);
  }
}

// The sketch histogram equals a brute-force agreement count over all
// pairs of non-empty columns: estimate a / k for every pair with
// a >= 1 and a / k >= min_similarity, binned as the estimator bins.
TEST(SketchDistributionTest, MatchesBruteForceAgreementHistogram) {
  const WeblogDataset data = SmallWeblog();
  // 0.25 with k = 48 falls exactly on a = 12; 0.1 falls between a = 4
  // and a = 5; 0 keeps every pair sharing a value.
  for (const double min_similarity : {0.0, 0.1, 0.25}) {
    SketchDistributionOptions options;
    options.num_hashes = 48;
    options.min_similarity = min_similarity;
    options.seed = 3;
    auto sketched = EstimateSimilarityDistributionSketch(data.matrix, options);
    ASSERT_TRUE(sketched.ok());

    MinHashConfig config;
    config.num_hashes = options.num_hashes;
    config.seed = options.seed;
    InMemoryRowStream stream(&data.matrix);
    auto signatures = MinHashGenerator(config).Compute(&stream);
    ASSERT_TRUE(signatures.ok());
    std::vector<double> bins(options.num_bins, 0.0);
    const ColumnId m = data.matrix.num_cols();
    for (ColumnId a = 0; a < m; ++a) {
      for (ColumnId b = a + 1; b < m; ++b) {
        if (signatures->ColumnEmpty(a) || signatures->ColumnEmpty(b)) continue;
        int agreements = 0;
        for (int l = 0; l < options.num_hashes; ++l) {
          agreements += signatures->Value(l, a) == signatures->Value(l, b);
        }
        const double estimate =
            static_cast<double>(agreements) / options.num_hashes;
        if (agreements == 0 || estimate < min_similarity) continue;
        const int bin = std::min(
            static_cast<int>(estimate * options.num_bins), options.num_bins - 1);
        bins[bin] += 1.0;
      }
    }
    SimilarityDistribution expected;
    for (int i = 0; i < options.num_bins; ++i) {
      if (bins[i] == 0.0) continue;
      expected.similarity.push_back((i + 0.5) / options.num_bins);
      expected.count.push_back(bins[i]);
    }
    ASSERT_FALSE(expected.count.empty());
    EXPECT_EQ(sketched->similarity, expected.similarity)
        << "min_similarity=" << min_similarity;
    EXPECT_EQ(sketched->count, expected.count)
        << "min_similarity=" << min_similarity;
  }
}

TEST(MergeDistributionsTest, SplicesAtTheSplit) {
  SimilarityDistribution low;
  low.similarity = {0.1, 0.3, 0.6};
  low.count = {100.0, 50.0, 999.0};  // the 0.6 bin must be dropped
  SimilarityDistribution high;
  high.similarity = {0.2, 0.55, 0.9};
  high.count = {888.0, 7.0, 3.0};  // the 0.2 bin must be dropped
  const SimilarityDistribution merged =
      MergeDistributions(low, high, 0.5);
  ASSERT_TRUE(merged.Validate().ok());
  ASSERT_EQ(merged.similarity.size(), 4u);
  EXPECT_DOUBLE_EQ(merged.similarity[0], 0.1);
  EXPECT_DOUBLE_EQ(merged.similarity[1], 0.3);
  EXPECT_DOUBLE_EQ(merged.similarity[2], 0.55);
  EXPECT_DOUBLE_EQ(merged.similarity[3], 0.9);
  EXPECT_DOUBLE_EQ(merged.count[2], 7.0);
}

TEST(MergeDistributionsTest, EmptyPartsAreFine) {
  SimilarityDistribution empty;
  SimilarityDistribution some;
  some.similarity = {0.7};
  some.count = {5.0};
  const SimilarityDistribution merged =
      MergeDistributions(empty, some, 0.5);
  ASSERT_EQ(merged.similarity.size(), 1u);
  EXPECT_TRUE(MergeDistributions(empty, empty, 0.5).similarity.empty());
}

}  // namespace
}  // namespace sans
