#include "sketch/estimators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "data/synthetic_generator.h"
#include "matrix/row_stream.h"
#include "mine/parallel.h"
#include "sketch/k_min_hash.h"
#include "util/random.h"

namespace sans {
namespace {

TEST(SignatureIntersectionSizeTest, CountsCommonValues) {
  const std::vector<uint64_t> a = {1, 3, 5, 7};
  const std::vector<uint64_t> b = {2, 3, 7, 9};
  EXPECT_EQ(SignatureIntersectionSize(a, b), 2u);
  EXPECT_EQ(SignatureIntersectionSize(a, a), 4u);
  EXPECT_EQ(SignatureIntersectionSize(a, {}), 0u);
}

TEST(EstimateSimilarityUnbiasedTest, ExactOnFullSignatures) {
  // When k covers the whole union the estimator is exact Jaccard.
  // Sets {1,2,3,4} and {3,4,5,6}: J = 2/6.
  const std::vector<uint64_t> a = {1, 2, 3, 4};
  const std::vector<uint64_t> b = {3, 4, 5, 6};
  EXPECT_DOUBLE_EQ(EstimateSimilarityUnbiased(a, b, 10), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(EstimateSimilarityUnbiased(a, a, 10), 1.0);
}

TEST(EstimateSimilarityUnbiasedTest, TruncatedUnionCountsCorrectly) {
  // k = 3: SIG_{a∪b} = {1,2,3}; of these, only 3 is in both.
  const std::vector<uint64_t> a = {1, 2, 3};
  const std::vector<uint64_t> b = {3, 4, 5};
  EXPECT_DOUBLE_EQ(EstimateSimilarityUnbiased(a, b, 3), 1.0 / 3.0);
}

TEST(EstimateSimilarityUnbiasedTest, EmptySignaturesGiveZero) {
  EXPECT_DOUBLE_EQ(EstimateSimilarityUnbiased({}, {}, 5), 0.0);
  const std::vector<uint64_t> a = {1};
  EXPECT_DOUBLE_EQ(EstimateSimilarityUnbiased(a, {}, 5), 0.0);
}

/// The Theorem 2 estimator spelled out on a materialized SIG_{i∪j}.
double UnbiasedReference(const std::vector<uint64_t>& a,
                         const std::vector<uint64_t>& b, int k) {
  const std::vector<uint64_t> sig_union = MergeSignatures(a, b, k);
  if (sig_union.empty()) return 0.0;
  uint64_t in_both = 0;
  for (uint64_t v : sig_union) {
    if (std::binary_search(a.begin(), a.end(), v) &&
        std::binary_search(b.begin(), b.end(), v)) {
      ++in_both;
    }
  }
  return static_cast<double>(in_both) / sig_union.size();
}

/// `size` distinct ascending values drawn from [0, universe).
std::vector<uint64_t> RandomSignature(Xoshiro256* rng, size_t size,
                                      uint64_t universe) {
  std::vector<uint64_t> values;
  while (values.size() < size) {
    values.push_back(rng->NextU64() % universe);
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
  }
  return values;
}

TEST(EstimateSimilarityUnbiasedTest, MatchesMergeSignaturesReference) {
  Xoshiro256 rng(2024);
  const std::vector<uint64_t> empty;
  for (int trial = 0; trial < 3000; ++trial) {
    const int k = 1 + static_cast<int>(rng.NextU64() % 40);
    // Sizes on both sides of k, over universes from dense (many shared
    // values) to sparse (mostly disjoint).
    const uint64_t universe = 2 * k + rng.NextU64() % (20 * k);
    const size_t max_size = std::min<uint64_t>(universe, 2 * k + 4);
    const std::vector<uint64_t> a =
        RandomSignature(&rng, rng.NextU64() % (max_size + 1), universe);
    const std::vector<uint64_t> b =
        RandomSignature(&rng, rng.NextU64() % (max_size + 1), universe);
    EXPECT_EQ(EstimateSimilarityUnbiased(a, b, k), UnbiasedReference(a, b, k))
        << "trial " << trial;
    EXPECT_EQ(EstimateSimilarityUnbiased(a, a, k), UnbiasedReference(a, a, k));
    EXPECT_EQ(EstimateSimilarityUnbiased(a, empty, k),
              UnbiasedReference(a, empty, k));
    // Disjoint: b shifted past a's largest value.
    std::vector<uint64_t> shifted = b;
    for (uint64_t& v : shifted) v += universe;
    EXPECT_EQ(EstimateSimilarityUnbiased(a, shifted, k), 0.0);
    EXPECT_EQ(UnbiasedReference(a, shifted, k), 0.0);
  }
}

TEST(EstimateSimilarityBiasedTest, ZeroCardinalityGivesZero) {
  EXPECT_DOUBLE_EQ(EstimateSimilarityBiased(0, 0, 10, 5), 0.0);
  EXPECT_DOUBLE_EQ(EstimateSimilarityBiased(0, 10, 0, 5), 0.0);
}

TEST(EstimateSimilarityBiasedTest, FullOverlapEstimatesOne) {
  // Identical columns of cardinality 100 at k = 20: expected
  // intersection is 20, implying |C_ij| = 100 and similarity 1.
  EXPECT_DOUBLE_EQ(EstimateSimilarityBiased(20, 100, 100, 20), 1.0);
}

TEST(EstimateSimilarityBiasedTest, SmallColumnsAreExact) {
  // Cardinalities below k: signatures are the full sets, so the
  // intersection count is exact. |C_a| = 4, |C_b| = 6, t = 2:
  // similarity = 2 / (4 + 6 - 2) = 0.25.
  EXPECT_DOUBLE_EQ(EstimateSimilarityBiased(2, 4, 6, 50), 0.25);
}

TEST(EstimateSimilarityBiasedTest, ClampsToValidRange) {
  // Noisy over-count cannot push the estimate above 1.
  const double s = EstimateSimilarityBiased(20, 100, 20, 20);
  EXPECT_LE(s, 1.0);
  EXPECT_GE(s, 0.0);
}

TEST(EstimateSimilarityBiasedTest, EqualCardinalitiesNeitherSideFavored) {
  // card_a == card_b: the larger/smaller split is degenerate and must
  // not bias the estimate. |C_a| = |C_b| = 200, k = 50, t = 25:
  // |C_ij| = 25 * 200 / 50 = 100, similarity = 100 / 300 = 1/3.
  const double s = EstimateSimilarityBiased(25, 200, 200, 50);
  EXPECT_DOUBLE_EQ(s, 100.0 / 300.0);
  // Symmetric by construction.
  EXPECT_DOUBLE_EQ(EstimateSimilarityBiased(25, 200, 200, 50),
                   EstimateSimilarityBiased(25, 200, 200, 50));
}

TEST(EstimateSimilarityBiasedTest, IntersectionAboveKEffIsCapped) {
  // t > k_eff is impossible in expectation but reachable through
  // noise; the implied |C_ij| must cap at the smaller cardinality so
  // the similarity stays in range. k_eff = min(20, 100) = 20, t = 40
  // implies |C_ij| = 200 > |C_b| = 50 -> capped at 50.
  const double s = EstimateSimilarityBiased(40, 100, 50, 20);
  EXPECT_DOUBLE_EQ(s, 50.0 / (100.0 + 50.0 - 50.0));
  EXPECT_LE(s, 1.0);
}

TEST(EstimateSimilarityBiasedTest, KLargerThanBothCardinalities) {
  // k > |C_a| and k > |C_b|: k_eff collapses to the larger
  // cardinality and the estimator is exact. |C_a| = 3, |C_b| = 5,
  // t = 3 (one column contained in the other): similarity = 3/5.
  EXPECT_DOUBLE_EQ(EstimateSimilarityBiased(3, 3, 5, 1000), 0.6);
  // Disjoint small columns: zero intersection, zero similarity.
  EXPECT_DOUBLE_EQ(EstimateSimilarityBiased(0, 3, 5, 1000), 0.0);
}

TEST(EstimateSimilarityBiasedTest, TracksTruthOnRandomData) {
  SyntheticConfig config;
  config.num_rows = 4000;
  config.num_cols = 10;
  config.bands = {{1, 50.0, 51.0}};
  config.spread_pairs = false;
  config.min_density = 0.08;
  config.max_density = 0.12;
  config.seed = 17;
  auto dataset = GenerateSynthetic(config);
  ASSERT_TRUE(dataset.ok());
  const ColumnPair planted = dataset->planted[0].pair;
  const double truth =
      dataset->matrix.Similarity(planted.first, planted.second);

  KMinHashConfig sketch_config;
  sketch_config.k = 256;
  sketch_config.seed = 23;
  auto sketch = ComputeKMinHashParallel(
      InMemorySource(&dataset->matrix), sketch_config,
      ExecutionConfig{}, nullptr);
  ASSERT_TRUE(sketch.ok());

  const uint64_t t = SignatureIntersectionSize(
      sketch->Signature(planted.first), sketch->Signature(planted.second));
  const double estimate = EstimateSimilarityBiased(
      t, sketch->ColumnCardinality(planted.first),
      sketch->ColumnCardinality(planted.second), sketch_config.k);
  EXPECT_NEAR(estimate, truth, 0.12);
}

TEST(Lemma1BoundsTest, BracketsTrueSimilarity) {
  // t / min(2k, |union|) <= S <= t / min(k, |union|).
  const SimilarityBounds bounds = Lemma1Bounds(10, 200, 20);
  EXPECT_DOUBLE_EQ(bounds.lower, 10.0 / 40.0);
  EXPECT_DOUBLE_EQ(bounds.upper, 10.0 / 20.0);
  EXPECT_LE(bounds.lower, bounds.upper);
}

TEST(Lemma1BoundsTest, SmallUnionUsesUnionSize) {
  const SimilarityBounds bounds = Lemma1Bounds(3, 8, 20);
  EXPECT_DOUBLE_EQ(bounds.lower, 3.0 / 8.0);
  EXPECT_DOUBLE_EQ(bounds.upper, 3.0 / 8.0);
}

TEST(Lemma1BoundsTest, EmptyUnionGivesZeros) {
  const SimilarityBounds bounds = Lemma1Bounds(0, 0, 20);
  EXPECT_DOUBLE_EQ(bounds.lower, 0.0);
  EXPECT_DOUBLE_EQ(bounds.upper, 0.0);
}

TEST(BiasedCandidateThresholdTest, ScalesWithParameters) {
  EXPECT_EQ(BiasedCandidateThreshold(0.5, 100, 1.0), 50u);
  EXPECT_EQ(BiasedCandidateThreshold(0.5, 100, 0.5), 25u);
  // Never below 1.
  EXPECT_EQ(BiasedCandidateThreshold(0.01, 10, 0.5), 1u);
  EXPECT_EQ(BiasedCandidateThreshold(0.0, 100, 1.0), 1u);
}

}  // namespace
}  // namespace sans
