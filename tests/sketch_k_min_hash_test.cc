#include "sketch/k_min_hash.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "data/synthetic_generator.h"
#include "matrix/row_stream.h"
#include "mine/parallel.h"
#include "sketch/estimators.h"

namespace sans {
namespace {

BinaryMatrix PaperExample() {
  auto m = BinaryMatrix::FromRows(4, 3, {{0, 1}, {0, 1}, {1, 2}, {2}});
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

TEST(KMinHashConfigTest, Validation) {
  KMinHashConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.k = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(KMinHashGeneratorTest, SignatureSizesRespectCardinalityAndK) {
  const BinaryMatrix m = PaperExample();
  KMinHashConfig config;
  config.k = 2;
  config.seed = 1;
  auto sketch = ComputeKMinHashParallel(
      InMemorySource(&m), config, ExecutionConfig{}, nullptr);
  ASSERT_TRUE(sketch.ok());
  // |C_0| = 2, |C_1| = 3, |C_2| = 2; k = 2 caps them all at 2.
  EXPECT_EQ(sketch->Signature(0).size(), 2u);
  EXPECT_EQ(sketch->Signature(1).size(), 2u);
  EXPECT_EQ(sketch->Signature(2).size(), 2u);
  EXPECT_EQ(sketch->ColumnCardinality(0), 2u);
  EXPECT_EQ(sketch->ColumnCardinality(1), 3u);
}

TEST(KMinHashGeneratorTest, SparseColumnKeepsAllValues) {
  const BinaryMatrix m = PaperExample();
  KMinHashConfig config;
  config.k = 100;  // far above every cardinality
  auto sketch = ComputeKMinHashParallel(
      InMemorySource(&m), config, ExecutionConfig{}, nullptr);
  ASSERT_TRUE(sketch.ok());
  EXPECT_EQ(sketch->Signature(0).size(), 2u);
  EXPECT_EQ(sketch->Signature(1).size(), 3u);
  EXPECT_EQ(sketch->TotalSignatureSize(), 7u);
}

TEST(KMinHashGeneratorTest, SignaturesAreSortedDistinct) {
  const BinaryMatrix m = PaperExample();
  KMinHashConfig config;
  config.k = 3;
  config.seed = 9;
  auto sketch = ComputeKMinHashParallel(
      InMemorySource(&m), config, ExecutionConfig{}, nullptr);
  ASSERT_TRUE(sketch.ok());
  for (ColumnId c = 0; c < 3; ++c) {
    const auto sig = sketch->Signature(c);
    for (size_t i = 1; i < sig.size(); ++i) {
      EXPECT_LT(sig[i - 1], sig[i]);
    }
  }
}

TEST(KMinHashGeneratorTest, SignatureIsBottomKOfColumnRowHashes) {
  // The signature must be exactly the k smallest hash values of the
  // column's rows. Reconstruct via a full-k sketch (which holds all
  // row hashes) and compare.
  const BinaryMatrix m = PaperExample();
  KMinHashConfig full_config;
  full_config.k = 100;
  full_config.seed = 4;
  auto full = ComputeKMinHashParallel(
      InMemorySource(&m), full_config, ExecutionConfig{}, nullptr);
  ASSERT_TRUE(full.ok());

  KMinHashConfig small_config;
  small_config.k = 2;
  small_config.seed = 4;  // same hash function
  auto small = ComputeKMinHashParallel(
      InMemorySource(&m), small_config, ExecutionConfig{}, nullptr);
  ASSERT_TRUE(small.ok());

  for (ColumnId c = 0; c < 3; ++c) {
    const auto all = full->Signature(c);
    std::vector<uint64_t> expected(all.begin(), all.end());
    expected.resize(std::min<size_t>(2, expected.size()));
    const auto got = small->Signature(c);
    EXPECT_EQ(std::vector<uint64_t>(got.begin(), got.end()), expected);
  }
}

TEST(KMinHashGeneratorTest, SharedRowsShareHashValues) {
  // Rows in C_i ∩ C_j produce the same hash value in both signatures
  // (single hash function). For the paper example, rows {0,1} are in
  // both c0 and c1, so with k >= 3 the two signatures share exactly
  // two values.
  const BinaryMatrix m = PaperExample();
  KMinHashConfig config;
  config.k = 10;
  config.seed = 2;
  auto sketch = ComputeKMinHashParallel(
      InMemorySource(&m), config, ExecutionConfig{}, nullptr);
  ASSERT_TRUE(sketch.ok());
  EXPECT_EQ(
      SignatureIntersectionSize(sketch->Signature(0), sketch->Signature(1)),
      2u);
  EXPECT_EQ(
      SignatureIntersectionSize(sketch->Signature(0), sketch->Signature(2)),
      0u);
  EXPECT_EQ(
      SignatureIntersectionSize(sketch->Signature(1), sketch->Signature(2)),
      1u);
}

TEST(MergeSignaturesTest, TakesKSmallestOfUnion) {
  const std::vector<uint64_t> a = {1, 4, 9};
  const std::vector<uint64_t> b = {2, 4, 7};
  EXPECT_EQ(MergeSignatures(a, b, 4),
            (std::vector<uint64_t>{1, 2, 4, 7}));
  EXPECT_EQ(MergeSignatures(a, b, 10),
            (std::vector<uint64_t>{1, 2, 4, 7, 9}));
  EXPECT_EQ(MergeSignatures(a, b, 2), (std::vector<uint64_t>{1, 2}));
}

TEST(MergeSignaturesTest, HandlesEmptyInputs) {
  const std::vector<uint64_t> a = {3, 5};
  const std::vector<uint64_t> empty;
  EXPECT_EQ(MergeSignatures(a, empty, 5), a);
  EXPECT_EQ(MergeSignatures(empty, empty, 5), empty);
}

TEST(KMinHashGeneratorTest, UnbiasedEstimatorConverges) {
  SyntheticConfig data_config;
  data_config.num_rows = 4000;
  data_config.num_cols = 10;
  data_config.bands = {{1, 60.0, 61.0}};
  data_config.spread_pairs = false;
  data_config.min_density = 0.1;
  data_config.max_density = 0.15;
  data_config.seed = 8;
  auto dataset = GenerateSynthetic(data_config);
  ASSERT_TRUE(dataset.ok());
  const ColumnPair planted = dataset->planted[0].pair;
  const double truth =
      dataset->matrix.Similarity(planted.first, planted.second);

  KMinHashConfig config;
  config.k = 400;
  config.seed = 13;
  auto sketch = ComputeKMinHashParallel(
      InMemorySource(&dataset->matrix), config, ExecutionConfig{}, nullptr);
  ASSERT_TRUE(sketch.ok());
  const double estimate = EstimateSimilarityUnbiased(
      sketch->Signature(planted.first), sketch->Signature(planted.second),
      config.k);
  EXPECT_NEAR(estimate, truth, 0.08);
}

}  // namespace
}  // namespace sans
