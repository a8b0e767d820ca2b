// Parameterized property sweeps over the core probabilistic
// machinery: estimator concentration (Theorem 1), Proposition 1
// unbiasedness across similarity levels, Theorem 2 consistency, and
// the LSH collision-probability law.

#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic_generator.h"
#include "lsh/filter_functions.h"
#include "matrix/row_stream.h"
#include "mine/parallel.h"
#include "sketch/estimators.h"
#include "sketch/k_min_hash.h"
#include "sketch/min_hash.h"

namespace sans {
namespace {

/// Builds a two-column matrix with exact similarity
/// core / (2 * card - core).
BinaryMatrix PairWithSimilarity(uint64_t card, uint64_t core, RowId rows) {
  std::vector<std::vector<ColumnId>> data(rows);
  // Rows [0, core): both; [core, card): col 0; [card, 2card-core): col1.
  for (uint64_t r = 0; r < core; ++r) data[r] = {0, 1};
  for (uint64_t r = core; r < card; ++r) data[r] = {0};
  for (uint64_t r = card; r < 2 * card - core; ++r) data[r] = {1};
  auto m = BinaryMatrix::FromRows(rows, 2, data);
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

// --- Proposition 1: E[fraction equal] = S, across similarities. ---

class MinHashEstimateProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MinHashEstimateProperty, FractionEqualConcentratesAroundS) {
  const int core_pct = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());
  const uint64_t card = 300;
  const uint64_t core = card * core_pct / 100;
  const BinaryMatrix m = PairWithSimilarity(card, core, 1000);
  const double truth = m.Similarity(0, 1);

  MinHashConfig config;
  config.num_hashes = 600;
  config.seed = static_cast<uint64_t>(seed);
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto sig = generator.Compute(&stream);
  ASSERT_TRUE(sig.ok());
  // 4-sigma band: sigma = sqrt(s(1-s)/k) <= 0.0205 at k = 600.
  EXPECT_NEAR(sig->FractionEqual(0, 1), truth, 0.085);
}

INSTANTIATE_TEST_SUITE_P(
    SimilaritySweep, MinHashEstimateProperty,
    ::testing::Combine(::testing::Values(10, 30, 50, 70, 90),
                       ::testing::Values(1, 2, 3)));

// --- Theorem 1 concentration: larger k tightens the estimate. ---

class TheoremOneProperty : public ::testing::TestWithParam<int> {};

TEST_P(TheoremOneProperty, ErrorShrinksWithK) {
  const int k = GetParam();
  const BinaryMatrix m = PairWithSimilarity(300, 180, 1000);  // S = 0.428...
  const double truth = m.Similarity(0, 1);
  double worst = 0.0;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    MinHashConfig config;
    config.num_hashes = k;
    config.seed = 100 + seed;
    MinHashGenerator generator(config);
    InMemoryRowStream stream(&m);
    auto sig = generator.Compute(&stream);
    ASSERT_TRUE(sig.ok());
    worst = std::max(worst, std::abs(sig->FractionEqual(0, 1) - truth));
  }
  // Bound worst-case error over 8 seeds by ~5 sigma.
  const double sigma = std::sqrt(truth * (1 - truth) / k);
  EXPECT_LE(worst, 5.0 * sigma);
}

INSTANTIATE_TEST_SUITE_P(KSweep, TheoremOneProperty,
                         ::testing::Values(50, 100, 200, 400));

// --- Theorem 2: the bottom-k unbiased estimator across k. ---

class KmhEstimatorProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KmhEstimatorProperty, UnbiasedEstimatorTracksTruth) {
  const int k = std::get<0>(GetParam());
  const int core_pct = std::get<1>(GetParam());
  const uint64_t card = 400;
  const uint64_t core = card * core_pct / 100;
  const BinaryMatrix m = PairWithSimilarity(card, core, 1000);
  const double truth = m.Similarity(0, 1);

  double mean = 0.0;
  const int trials = 12;
  for (int t = 0; t < trials; ++t) {
    KMinHashConfig config;
    config.k = k;
    config.seed = 500 + t;
    auto sketch = ComputeKMinHashParallel(
        InMemorySource(&m), config, ExecutionConfig{}, nullptr);
    ASSERT_TRUE(sketch.ok());
    mean += EstimateSimilarityUnbiased(sketch->Signature(0),
                                       sketch->Signature(1), k);
  }
  mean /= trials;
  // Mean of 12 trials within ~3 sigma/sqrt(12) of the truth.
  const double tol = 3.0 * std::sqrt(truth * (1 - truth) / k / trials) +
                     0.02;
  EXPECT_NEAR(mean, truth, tol);
}

INSTANTIATE_TEST_SUITE_P(
    KAndSimilarity, KmhEstimatorProperty,
    ::testing::Combine(::testing::Values(64, 128, 256),
                       ::testing::Values(20, 50, 80)));

// --- LSH collision law: empirical band-collision rate ≈ s^r. ---

class LshCollisionProperty : public ::testing::TestWithParam<int> {};

TEST_P(LshCollisionProperty, SingleBandCollisionRateIsSToTheR) {
  const int r = GetParam();
  const uint64_t card = 300;
  const uint64_t core = 210;  // S ≈ 0.538
  const BinaryMatrix m = PairWithSimilarity(card, core, 1000);
  const double s = m.Similarity(0, 1);

  // Estimate collision rate over many independent bands by computing
  // a large signature matrix and slicing it into bands of r rows.
  const int bands = 300;
  MinHashConfig config;
  config.num_hashes = bands * r;
  config.seed = 9;
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto sig = generator.Compute(&stream);
  ASSERT_TRUE(sig.ok());

  int collisions = 0;
  for (int b = 0; b < bands; ++b) {
    bool equal = true;
    for (int i = 0; i < r; ++i) {
      if (sig->Value(b * r + i, 0) != sig->Value(b * r + i, 1)) {
        equal = false;
        break;
      }
    }
    if (equal) ++collisions;
  }
  const double expected = std::pow(s, r);
  const double sigma =
      std::sqrt(expected * (1 - expected) / bands);
  EXPECT_NEAR(static_cast<double>(collisions) / bands, expected,
              4.0 * sigma + 0.01);
}

INSTANTIATE_TEST_SUITE_P(RSweep, LshCollisionProperty,
                         ::testing::Values(1, 2, 3, 5));

// --- Generator realized similarity matches its target across bands. -

class SyntheticBandProperty : public ::testing::TestWithParam<int> {};

TEST_P(SyntheticBandProperty, RealizedSimilarityInsideBand) {
  const int low = GetParam();
  SyntheticConfig config;
  config.num_rows = 3000;
  config.num_cols = 100;
  config.bands = {{5, static_cast<double>(low),
                   static_cast<double>(low + 10)}};
  config.spread_pairs = false;
  config.seed = 7 + low;
  auto dataset = GenerateSynthetic(config);
  ASSERT_TRUE(dataset.ok());
  for (const PlantedPair& p : dataset->planted) {
    const double realized =
        dataset->matrix.Similarity(p.pair.first, p.pair.second);
    // Integer rounding of the shared core can push the realized value
    // slightly outside the nominal band.
    EXPECT_GT(realized, low / 100.0 - 0.03);
    EXPECT_LT(realized, (low + 10) / 100.0 + 0.03);
  }
}

INSTANTIATE_TEST_SUITE_P(Bands, SyntheticBandProperty,
                         ::testing::Values(45, 55, 65, 75, 85));

// --- Filter function Q is a proper mixture: bounded by q extremes. --

class QFunctionProperty : public ::testing::TestWithParam<int> {};

TEST_P(QFunctionProperty, QIsBetweenZeroAndOneAndMonotone) {
  const int k = GetParam();
  double prev = -1.0;
  for (int step = 0; step <= 10; ++step) {
    const double s = step / 10.0;
    const double q = SampledBandCollisionProbability(s, 5, 10, k);
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 1.0);
    EXPECT_GE(q, prev - 1e-12);
    prev = q;
  }
}

INSTANTIATE_TEST_SUITE_P(KSweep, QFunctionProperty,
                         ::testing::Values(10, 40, 100, 300));


// --- Section 6: Pr[h(c_i) <= h(c_j)] = |C_i| / |C_i ∪ C_j|. ---

class DirectionEstimatorProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DirectionEstimatorProperty, FractionLeqConvergesToCardinalityRatio) {
  const int card_a_pct = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());
  // Column 0 has card_a rows, column 1 has 300, sharing a 100-row core.
  const uint64_t card_a = 300 * card_a_pct / 100;
  const uint64_t core = std::min<uint64_t>(100, card_a);
  std::vector<std::vector<ColumnId>> rows(1000);
  for (uint64_t r = 0; r < core; ++r) rows[r] = {0, 1};
  for (uint64_t r = core; r < card_a; ++r) rows[r] = {0};
  for (uint64_t r = 400; r < 400 + 300 - core; ++r) rows[r] = {1};
  auto m = BinaryMatrix::FromRows(1000, 2, rows);
  ASSERT_TRUE(m.ok());
  const double union_size = card_a + 300 - core;
  const double expected = card_a / union_size;

  MinHashConfig config;
  config.num_hashes = 600;
  config.seed = 900 + seed;
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&*m);
  auto sig = generator.Compute(&stream);
  ASSERT_TRUE(sig.ok());
  EXPECT_NEAR(sig->FractionLessOrEqual(0, 1), expected, 0.09);
  // Complementarity: P[<=] in both directions exceeds 1 by exactly
  // the equality probability S.
  const double s = core / union_size;
  EXPECT_NEAR(sig->FractionLessOrEqual(0, 1) +
                  sig->FractionLessOrEqual(1, 0),
              1.0 + s, 0.12);
}

INSTANTIATE_TEST_SUITE_P(
    CardinalityRatios, DirectionEstimatorProperty,
    ::testing::Combine(::testing::Values(40, 70, 100, 130),
                       ::testing::Values(1, 2)));

}  // namespace
}  // namespace sans
