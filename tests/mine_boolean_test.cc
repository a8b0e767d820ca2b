#include "mine/boolean_extensions.h"

#include <gtest/gtest.h>

#include "matrix/row_stream.h"
#include "mine/parallel.h"
#include "sketch/min_hash.h"

namespace sans {
namespace {

/// Matrix where column 2 = column 0 OR column 1 by construction.
///        c0 c1 c2 c3
/// rows: c0 in {0,1}, c1 in {2,3}, c2 in {0,1,2,3}, c3 in {0,1}.
BinaryMatrix OrMatrix() {
  auto m = BinaryMatrix::FromRows(
      6, 4, {{0, 2, 3}, {0, 2, 3}, {1, 2}, {1, 2}, {}, {}});
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

SignatureMatrix Signatures(const BinaryMatrix& m, int k, uint64_t seed) {
  MinHashConfig config;
  config.num_hashes = k;
  config.seed = seed;
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto sig = generator.Compute(&stream);
  EXPECT_TRUE(sig.ok());
  return std::move(sig).value();
}

TEST(OrSignatureTest, EqualsSignatureOfUnionColumn) {
  // The min-hash signature of (c0 ∨ c1) must equal column 2's actual
  // signature, for every hash function — an exact identity, not an
  // estimate.
  const BinaryMatrix m = OrMatrix();
  const SignatureMatrix sig = Signatures(m, 64, 9);
  auto or_sig = OrSignature(sig, {0, 1});
  ASSERT_TRUE(or_sig.ok());
  for (int l = 0; l < 64; ++l) {
    EXPECT_EQ((*or_sig)[l], sig.Value(l, 2)) << "hash " << l;
  }
}

TEST(OrSignatureTest, SingleColumnIsIdentity) {
  const BinaryMatrix m = OrMatrix();
  const SignatureMatrix sig = Signatures(m, 16, 2);
  auto or_sig = OrSignature(sig, {3});
  ASSERT_TRUE(or_sig.ok());
  for (int l = 0; l < 16; ++l) {
    EXPECT_EQ((*or_sig)[l], sig.Value(l, 3));
  }
}

TEST(OrSignatureTest, RejectsBadInput) {
  const BinaryMatrix m = OrMatrix();
  const SignatureMatrix sig = Signatures(m, 8, 1);
  EXPECT_FALSE(OrSignature(sig, {}).ok());
  EXPECT_FALSE(OrSignature(sig, {9}).ok());
}

TEST(EstimateOrSimilarityTest, DetectsExactDisjunction) {
  // S(c2, c0 ∨ c1) = 1 exactly, so every hash agrees.
  const BinaryMatrix m = OrMatrix();
  const SignatureMatrix sig = Signatures(m, 64, 5);
  auto s = EstimateOrSimilarity(sig, 2, {0, 1});
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(*s, 1.0);
}

TEST(EstimateOrSimilarityTest, PartialOverlapEstimated) {
  // S(c3, c0 ∨ c1) = |{0,1}| / |{0,1,2,3}| = 0.5.
  const BinaryMatrix m = OrMatrix();
  const SignatureMatrix sig = Signatures(m, 400, 7);
  auto s = EstimateOrSimilarity(sig, 3, {0, 1});
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(*s, 0.5, 0.1);
}

TEST(OrSketchSignatureTest, MatchesUnionColumnSketch) {
  const BinaryMatrix m = OrMatrix();
  KMinHashConfig config;
  config.k = 3;
  config.seed = 4;
  auto sketch = ComputeKMinHashParallel(
      InMemorySource(&m), config, ExecutionConfig{}, nullptr);
  ASSERT_TRUE(sketch.ok());
  auto or_sig = OrSketchSignature(*sketch, {0, 1});
  ASSERT_TRUE(or_sig.ok());
  const auto c2 = sketch->Signature(2);
  EXPECT_EQ(*or_sig, std::vector<uint64_t>(c2.begin(), c2.end()));
}

TEST(OrSketchSignatureTest, RejectsBadInput) {
  const BinaryMatrix m = OrMatrix();
  KMinHashConfig config;
  config.k = 3;
  auto sketch = ComputeKMinHashParallel(
      InMemorySource(&m), config, ExecutionConfig{}, nullptr);
  ASSERT_TRUE(sketch.ok());
  EXPECT_FALSE(OrSketchSignature(*sketch, {}).ok());
  EXPECT_FALSE(OrSketchSignature(*sketch, {11}).ok());
}

TEST(ImpliesConjunctionTest, AcceptsStrongEvidence) {
  // c_i of cardinality 50 fully contained in both conjuncts of
  // cardinality 100: S = 50/100 = 0.5 each, conf = 1.
  ConjunctionEvidence evidence;
  evidence.similarity_to_first = 0.5;
  evidence.similarity_to_second = 0.5;
  evidence.antecedent_cardinality = 50;
  evidence.first_cardinality = 100;
  evidence.second_cardinality = 100;
  EXPECT_TRUE(ImpliesConjunction(evidence, 0.95, 10));
}

TEST(ImpliesConjunctionTest, RejectsWeakSimilarity) {
  ConjunctionEvidence evidence;
  evidence.similarity_to_first = 0.1;  // conf(i => first) ≈ 0.27
  evidence.similarity_to_second = 0.5;
  evidence.antecedent_cardinality = 50;
  evidence.first_cardinality = 100;
  evidence.second_cardinality = 100;
  EXPECT_FALSE(ImpliesConjunction(evidence, 0.9, 10));
}

TEST(ImpliesConjunctionTest, RejectsTinyAntecedents) {
  // Paper Section 7: tiny antecedents carry no statistical weight.
  ConjunctionEvidence evidence;
  evidence.similarity_to_first = 0.05;
  evidence.similarity_to_second = 0.05;
  evidence.antecedent_cardinality = 3;
  evidence.first_cardinality = 60;
  evidence.second_cardinality = 60;
  EXPECT_FALSE(ImpliesConjunction(evidence, 0.9, 10));
  // Same shape with enough rows passes (conf = 0.05·63/(1.05·3) = 1).
  evidence.antecedent_cardinality = 3;
  EXPECT_TRUE(ImpliesConjunction(evidence, 0.9, 1));
}

}  // namespace
}  // namespace sans
