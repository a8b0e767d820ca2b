#include "sketch/sketch_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "matrix/binary_matrix.h"
#include "matrix/row_stream.h"
#include "mine/parallel.h"
#include "sketch/incremental.h"
#include "sketch/k_min_hash.h"
#include "sketch/min_hash.h"
#include "sketch/signature_matrix.h"
#include "util/hashing.h"

namespace sans {
namespace {

constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();

// ---- Mix64 inversion, used to force a hash output of UINT64_MAX ----

// Inverse of x ^= x >> shift.
uint64_t UnshiftRight(uint64_t x, int shift) {
  uint64_t result = x;
  for (int i = 0; i < 64 / shift + 1; ++i) {
    result = x ^ (result >> shift);
  }
  return result;
}

// Modular inverse of an odd 64-bit constant (Newton iteration).
uint64_t ModInverse(uint64_t a) {
  uint64_t x = a;
  for (int i = 0; i < 6; ++i) {
    x *= 2 - a * x;
  }
  return x;
}

uint64_t InvMix64(uint64_t y) {
  y = UnshiftRight(y, 31);
  y *= ModInverse(0x94d049bb133111ebULL);
  y = UnshiftRight(y, 27);
  y *= ModInverse(0xbf58476d1ce4e5b9ULL);
  y = UnshiftRight(y, 30);
  return y;
}

constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

// The splitmix seed under which key 0 hashes to exactly UINT64_MAX:
// HashKey(0, seed) = Mix64(kGolden * (seed + 1)) = kMax.
uint64_t SentinelSeedForKeyZero() {
  return InvMix64(kMax) * ModInverse(kGolden) - 1;
}

TEST(InvMix64Test, InvertsMix64) {
  for (uint64_t x : {uint64_t{0}, uint64_t{1}, uint64_t{12345}, kMax}) {
    EXPECT_EQ(Mix64(InvMix64(x)), x);
    EXPECT_EQ(InvMix64(Mix64(x)), x);
  }
}

TEST(ClampRowHashTest, OnlyLowersTheSentinel) {
  EXPECT_EQ(ClampRowHash(kMax), kMax - 1);
  EXPECT_EQ(ClampRowHash(kMax - 1), kMax - 1);
  EXPECT_EQ(ClampRowHash(0), 0u);
  EXPECT_EQ(ClampRowHash(42), 42u);
}

TEST(ClampRowHashTest, HashRowClampedAppliesClamp) {
  const uint64_t seed = SentinelSeedForKeyZero();
  const RowHasher hasher(HashFamily::kSplitMix64, seed);
  // Precondition: the raw hash really is the sentinel value, so this
  // test exercises the clamp and not luck.
  ASSERT_EQ(hasher.Hash(0), kMax);
  EXPECT_EQ(HashRowClamped(hasher, 0), kMax - 1);
}

TEST(ClampRowHashTest, HashBlockClampedAppliesClamp) {
  const uint64_t seed = SentinelSeedForKeyZero();
  const RowHasher hasher(HashFamily::kSplitMix64, seed);
  const std::vector<uint64_t> keys = {0, 1, 2};
  std::vector<uint64_t> values;
  HashBlockClamped(hasher, keys, &values);
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0], kMax - 1);
  for (size_t i = 1; i < keys.size(); ++i) {
    EXPECT_EQ(values[i], ClampRowHash(hasher.Hash(keys[i])));
  }
}

// ---- The sentinel must be unreachable through every sketch path ----

BinaryMatrix OneRowMatrix() {
  auto m = BinaryMatrix::FromRows(1, 2, {{0}});
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

TEST(SentinelClampTest, KMinHashGeneratorClampsForcedSentinel) {
  KMinHashConfig config;
  config.k = 4;
  config.seed = SentinelSeedForKeyZero();
  ASSERT_EQ(RowHasher(config.family, config.seed).Hash(0), kMax);

  const BinaryMatrix m = OneRowMatrix();
  auto sketch = ComputeKMinHashParallel(
      InMemorySource(&m), config, ExecutionConfig{}, nullptr);
  ASSERT_TRUE(sketch.ok());
  ASSERT_EQ(sketch->Signature(0).size(), 1u);
  // Clamped: the stored value is kMax - 1, never the empty sentinel.
  EXPECT_EQ(sketch->Signature(0)[0], kMax - 1);
  EXPECT_EQ(sketch->ColumnCardinality(0), 1u);
  // Column 1 is genuinely empty.
  EXPECT_TRUE(sketch->Signature(1).empty());
}

TEST(SentinelClampTest, IncrementalBuilderClampsForcedSentinel) {
  KMinHashConfig config;
  config.k = 4;
  config.seed = SentinelSeedForKeyZero();
  IncrementalKMinHashBuilder builder(config, 2);
  const std::vector<ColumnId> columns = {0};
  ASSERT_TRUE(builder.AddRow(0, columns).ok());
  const KMinHashSketch sketch = builder.Snapshot();
  ASSERT_EQ(sketch.Signature(0).size(), 1u);
  EXPECT_EQ(sketch.Signature(0)[0], kMax - 1);
}

TEST(SentinelClampTest, MinHashGeneratorClampsForcedSentinel) {
  // Drive the bank's function 0 to hash key 0 to the sentinel: the
  // bank derives fn_seed = Mix64(master + 0x100000001b3 * 1), so pick
  // master accordingly.
  const uint64_t fn_seed = SentinelSeedForKeyZero();
  const uint64_t master = InvMix64(fn_seed) - 0x100000001b3ULL;
  MinHashConfig config;
  config.num_hashes = 1;
  config.seed = master;
  {
    HashFunctionBank bank(config.family, 1, master);
    ASSERT_EQ(bank.Hash(0, 0), kMax);
  }
  const BinaryMatrix m = OneRowMatrix();
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto signatures = generator.Compute(&stream);
  ASSERT_TRUE(signatures.ok());
  // Without the clamp, column 0 would be indistinguishable from an
  // empty column.
  EXPECT_FALSE(signatures->ColumnEmpty(0));
  EXPECT_EQ(signatures->Value(0, 0), kMax - 1);
  EXPECT_TRUE(signatures->ColumnEmpty(1));
}

// ---- Byte-identity of the blocked kernels against a naive scan ----

// Deterministic sparse matrix spanning several kSketchBlockRows
// blocks, with some all-zero rows mixed in.
BinaryMatrix KernelTestMatrix() {
  const RowId num_rows = 3 * kSketchBlockRows + 17;
  const ColumnId num_cols = 48;
  std::vector<std::vector<ColumnId>> rows(num_rows);
  for (RowId r = 0; r < num_rows; ++r) {
    for (ColumnId c = 0; c < num_cols; ++c) {
      if (Mix64(r * num_cols + c + 1) % 100 < 7) rows[r].push_back(c);
    }
  }
  auto m = BinaryMatrix::FromRows(num_rows, num_cols, rows);
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

class BlockedKernelIdentityTest
    : public ::testing::TestWithParam<HashFamily> {};

// A sparse, weblog-shaped matrix: 5,000 columns (13-bit column ids,
// so the kernel's column sort takes two digit passes) and about four
// ones per row. Column kUntouchedColumn is in no row, so it must stay
// empty.
constexpr ColumnId kWideCols = 5'000;
constexpr ColumnId kUntouchedColumn = 4'321;

BinaryMatrix WideKernelTestMatrix() {
  const RowId num_rows = 3 * kSketchBlockRows + 17;
  std::vector<std::vector<ColumnId>> rows(num_rows);
  for (RowId r = 0; r < num_rows; ++r) {
    for (uint64_t j = 0; j < Mix64(r) % 8; ++j) {
      const ColumnId c = Mix64(r * 8 + j + 1) % kWideCols;
      if (c != kUntouchedColumn) rows[r].push_back(c);
    }
    std::sort(rows[r].begin(), rows[r].end());
    rows[r].erase(std::unique(rows[r].begin(), rows[r].end()), rows[r].end());
  }
  auto m = BinaryMatrix::FromRows(num_rows, kWideCols, rows);
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

// Every entry's column shares its low 11-bit digit (7, 2055 and 4103
// are 7 mod 2048), so the sort skips its first pass; rows that hit only
// column 7 give flushes on which both passes are uniform.
BinaryMatrix SharedDigitKernelTestMatrix() {
  const RowId num_rows = 2 * kSketchBlockRows + 5;
  std::vector<std::vector<ColumnId>> rows(num_rows);
  for (RowId r = 0; r < num_rows; ++r) {
    if (r < kSketchBlockRows) {
      rows[r] = {7};
    } else if (r % 3 != 0) {
      rows[r] = {7, 2055, 4103};
    }
  }
  auto m = BinaryMatrix::FromRows(num_rows, kWideCols, rows);
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

BinaryMatrix EmptyKernelTestMatrix(RowId num_rows, ColumnId num_cols) {
  auto m = BinaryMatrix::FromRows(
      num_rows, num_cols, std::vector<std::vector<ColumnId>>(num_rows));
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

// Runs MinHashGenerator on `m` and asserts it equals a naive reference:
// per row, per column, per hash, through the checked MinUpdate, with
// the clamp applied per value.
void ExpectMinHashMatchesNaive(const BinaryMatrix& m, int num_hashes,
                               HashFamily family, const char* label) {
  MinHashConfig config;
  config.num_hashes = num_hashes;
  config.family = family;
  config.seed = 99;

  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto blocked = generator.Compute(&stream);
  ASSERT_TRUE(blocked.ok());
  ASSERT_EQ(blocked->num_hashes(), num_hashes);
  ASSERT_EQ(blocked->num_cols(), m.num_cols());

  HashFunctionBank bank(config.family, config.num_hashes, config.seed);
  SignatureMatrix naive(config.num_hashes, m.num_cols());
  InMemoryRowStream naive_stream(&m);
  ASSERT_TRUE(naive_stream.Reset().ok());
  RowView view;
  while (naive_stream.Next(&view)) {
    if (view.columns.empty()) continue;
    for (ColumnId c : view.columns) {
      for (int l = 0; l < config.num_hashes; ++l) {
        naive.MinUpdate(l, c, ClampRowHash(bank.Hash(l, view.row)));
      }
    }
  }

  // A column no row touches keeps the sentinel in every hash row.
  for (ColumnId c = 0; c < m.num_cols(); ++c) {
    ASSERT_EQ(blocked->ColumnEmpty(c), m.ColumnCardinality(c) == 0)
        << label << " c=" << c;
  }
  for (int l = 0; l < config.num_hashes; ++l) {
    for (ColumnId c = 0; c < m.num_cols(); ++c) {
      ASSERT_EQ(blocked->Value(l, c), naive.Value(l, c))
          << label << " k=" << num_hashes
          << " family=" << HashFamilyToString(config.family) << " l=" << l
          << " c=" << c;
    }
  }
}

TEST_P(BlockedKernelIdentityTest, MinHashMatchesNaiveReference) {
  const HashFamily family = GetParam();
  const BinaryMatrix narrow = KernelTestMatrix();
  const BinaryMatrix wide = WideKernelTestMatrix();
  for (int k : {1, 33, 100}) {
    ExpectMinHashMatchesNaive(narrow, k, family, "narrow");
    ExpectMinHashMatchesNaive(wide, k, family, "wide");
  }
  ExpectMinHashMatchesNaive(SharedDigitKernelTestMatrix(), 33, family,
                            "shared-digit");
  ExpectMinHashMatchesNaive(EmptyKernelTestMatrix(300, 10), 33, family,
                            "all-empty");
  ExpectMinHashMatchesNaive(EmptyKernelTestMatrix(5, 0), 33, family,
                            "zero-column");
}

TEST_P(BlockedKernelIdentityTest, KMinHashMatchesIncrementalBuilder) {
  const BinaryMatrix m = KernelTestMatrix();
  KMinHashConfig config;
  config.k = 16;
  config.family = GetParam();
  config.seed = 7;

  auto blocked = ComputeKMinHashParallel(
      InMemorySource(&m), config, ExecutionConfig{}, nullptr);
  ASSERT_TRUE(blocked.ok());

  // The incremental builder hashes one row at a time through
  // HashRowClamped — the per-row reference for the blocked scan.
  IncrementalKMinHashBuilder builder(config, m.num_cols());
  InMemoryRowStream builder_stream(&m);
  ASSERT_TRUE(builder.AddAll(&builder_stream).ok());
  const KMinHashSketch reference = builder.Snapshot();

  for (ColumnId c = 0; c < m.num_cols(); ++c) {
    ASSERT_EQ(blocked->ColumnCardinality(c), reference.ColumnCardinality(c));
    const auto sig_a = blocked->Signature(c);
    const auto sig_b = reference.Signature(c);
    ASSERT_EQ(sig_a.size(), sig_b.size()) << "c=" << c;
    for (size_t i = 0; i < sig_a.size(); ++i) {
      ASSERT_EQ(sig_a[i], sig_b[i]) << "c=" << c << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, BlockedKernelIdentityTest,
                         ::testing::Values(HashFamily::kSplitMix64,
                                           HashFamily::kMultiplyShift,
                                           HashFamily::kTabulation));

// ---- Regression: multiply-shift must estimate as well as splitmix ----

// Two columns with exact Jaccard similarity 1/3 (|A ∩ B| = 50,
// |A ∪ B| = 150).
BinaryMatrix OverlapMatrix() {
  std::vector<std::vector<ColumnId>> rows(150);
  for (RowId r = 0; r < 100; ++r) rows[r].push_back(0);
  for (RowId r = 50; r < 150; ++r) rows[r].push_back(1);
  auto m = BinaryMatrix::FromRows(150, 2, rows);
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

double MinHashEstimate(const BinaryMatrix& m, HashFamily family,
                       uint64_t seed) {
  MinHashConfig config;
  config.num_hashes = 400;
  config.family = family;
  config.seed = seed;
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto signatures = generator.Compute(&stream);
  EXPECT_TRUE(signatures.ok());
  return signatures->FractionEqual(0, 1);
}

TEST(MultiplyShiftEstimateTest, ErrorComparableToSplitMix64) {
  // The unfinalized a*x + b map made min-hash estimates collapse: its
  // structured low bits correlate the per-function minima. The fixed
  // hasher must track the true similarity as well as splitmix64 does
  // on the same data and seeds.
  const BinaryMatrix m = OverlapMatrix();
  const double truth = 1.0 / 3.0;
  for (uint64_t seed : {11u, 23u, 47u}) {
    const double splitmix =
        MinHashEstimate(m, HashFamily::kSplitMix64, seed);
    const double multiply_shift =
        MinHashEstimate(m, HashFamily::kMultiplyShift, seed);
    EXPECT_NEAR(splitmix, truth, 0.08) << "seed=" << seed;
    EXPECT_NEAR(multiply_shift, truth, 0.08) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace sans
