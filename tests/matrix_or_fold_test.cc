#include "matrix/or_fold.h"

#include <gtest/gtest.h>

#include <numeric>

#include "data/synthetic_generator.h"
#include "util/random.h"

namespace sans {
namespace {

TEST(OrFoldTest, HalvesRowCount) {
  auto m = BinaryMatrix::FromRows(4, 2, {{0}, {1}, {0, 1}, {}});
  ASSERT_TRUE(m.ok());
  Xoshiro256 rng(1);
  const BinaryMatrix folded = OrFold(*m, &rng);
  EXPECT_EQ(folded.num_rows(), 2u);
  EXPECT_EQ(folded.num_cols(), 2u);
}

TEST(OrFoldTest, OddRowCountKeepsLeftover) {
  auto m = BinaryMatrix::FromRows(5, 1, {{0}, {0}, {0}, {0}, {0}});
  ASSERT_TRUE(m.ok());
  Xoshiro256 rng(2);
  const BinaryMatrix folded = OrFold(*m, &rng);
  EXPECT_EQ(folded.num_rows(), 3u);
  // Column of all-ones stays all-ones.
  EXPECT_EQ(folded.ColumnCardinality(0), 3u);
}

TEST(OrFoldTest, PreservesColumnSupportSemantics) {
  // A column's 1s can only merge, never vanish: cardinality after a
  // fold is between ceil(card/2) and card.
  SyntheticConfig config;
  config.num_rows = 200;
  config.num_cols = 50;
  config.bands = {};
  config.seed = 7;
  auto dataset = GenerateSynthetic(config);
  ASSERT_TRUE(dataset.ok());
  Xoshiro256 rng(3);
  const BinaryMatrix folded = OrFold(dataset->matrix, &rng);
  for (ColumnId c = 0; c < 50; ++c) {
    const uint64_t before = dataset->matrix.ColumnCardinality(c);
    const uint64_t after = folded.ColumnCardinality(c);
    EXPECT_LE(after, before);
    EXPECT_GE(after, (before + 1) / 2);
  }
}

TEST(OrFoldTest, DensityGrowsTowardOne) {
  SyntheticConfig config;
  config.num_rows = 512;
  config.num_cols = 20;
  config.bands = {};
  config.min_density = 0.05;
  config.max_density = 0.10;
  config.seed = 9;
  auto dataset = GenerateSynthetic(config);
  ASSERT_TRUE(dataset.ok());

  Xoshiro256 rng(4);
  BinaryMatrix current = dataset->matrix;
  double prev_density = 0.0;
  for (int level = 0; level < 5; ++level) {
    double mean_density = 0.0;
    for (ColumnId c = 0; c < current.num_cols(); ++c) {
      mean_density += current.ColumnDensity(c);
    }
    mean_density /= current.num_cols();
    EXPECT_GE(mean_density, prev_density);
    prev_density = mean_density;
    current = OrFold(current, &rng);
  }
  EXPECT_GT(prev_density, 0.3);  // five folds of ~7% density
}

TEST(BuildOrFoldPyramidTest, StopsAtMinRows) {
  // 64 -> 32 -> 16 -> 8 (stop: not > 8).
  EXPECT_EQ(NumOrFoldLevels(64, 100, 8), 4);
  auto m = BinaryMatrix::FromRows(64, 1,
                                  std::vector<std::vector<ColumnId>>(
                                      64, std::vector<ColumnId>{0}));
  ASSERT_TRUE(m.ok());
  Xoshiro256 rng(5);
  BinaryMatrix level = *m;
  for (int i = 1; i < NumOrFoldLevels(64, 100, 8); ++i) {
    level = OrFold(level, &rng);
  }
  EXPECT_EQ(level.num_rows(), 8u);
}

TEST(BuildOrFoldPyramidTest, RespectsMaxLevels) {
  // The cap wins over the row count.
  EXPECT_EQ(NumOrFoldLevels(64, 2, 1), 2);
  EXPECT_EQ(NumOrFoldLevels(64, 1, 1), 1);
  auto m = BinaryMatrix::FromRows(64, 1,
                                  std::vector<std::vector<ColumnId>>(
                                      64, std::vector<ColumnId>{0}));
  ASSERT_TRUE(m.ok());
  Xoshiro256 rng(6);
  BinaryMatrix level = *m;
  for (int i = 1; i < NumOrFoldLevels(64, 2, 1); ++i) {
    level = OrFold(level, &rng);
  }
  EXPECT_EQ(level.num_rows(), 32u);
}

TEST(NumOrFoldLevelsTest, StopsAtMinRowsOrMaxLevels) {
  // Odd counts round up: 9 -> 5 -> 3 -> 2 -> 1.
  EXPECT_EQ(NumOrFoldLevels(9, 100, 1), 5);
  // A one-row level folds to itself, so min_rows 0 runs to the cap.
  EXPECT_EQ(NumOrFoldLevels(9, 100, 0), 100);
  // A matrix already at or below min_rows is level 0 alone.
  EXPECT_EQ(NumOrFoldLevels(8, 100, 8), 1);
  EXPECT_EQ(NumOrFoldLevels(0, 100, 0), 1);
  // The last representable row count halves without overflow.
  EXPECT_EQ(NumOrFoldLevels(0xffffffffu, 100, 1), 33);

  // It agrees with folding until the same stop rule holds.
  auto m = BinaryMatrix::FromRows(
      37, 2, std::vector<std::vector<ColumnId>>(37, std::vector<ColumnId>{1}));
  ASSERT_TRUE(m.ok());
  for (const RowId min_rows : {RowId{0}, RowId{1}, RowId{4}, RowId{10}, RowId{40}}) {
    for (const int max_levels : {1, 2, 3, 32}) {
      Xoshiro256 rng(5);
      BinaryMatrix level = *m;
      int levels = 1;
      while (levels < max_levels && level.num_rows() > min_rows) {
        level = OrFold(level, &rng);
        ++levels;
      }
      EXPECT_EQ(NumOrFoldLevels(37, max_levels, min_rows), levels)
          << "min_rows=" << min_rows << " max_levels=" << max_levels;
    }
  }
}

TEST(OrFoldTest, PinnedRowsAndCardinalities) {
  // Nine rows (odd, three of them empty), folded twice from one seed:
  // the rows and cardinalities are pinned, so the pairing the
  // shuffle draws and the unions built from it cannot drift.
  auto m = BinaryMatrix::FromRows(9, 7,
                                  {{0, 3}, {}, {1, 2, 6}, {4}, {}, {0, 5, 6},
                                   {2, 3}, {}, {1, 4, 5}});
  ASSERT_TRUE(m.ok());
  Xoshiro256 rng(11);
  const auto rows_of = [](const BinaryMatrix& matrix) {
    std::vector<std::vector<ColumnId>> rows;
    for (RowId r = 0; r < matrix.num_rows(); ++r) {
      rows.emplace_back(matrix.Row(r).begin(), matrix.Row(r).end());
    }
    return rows;
  };
  const auto cards_of = [](const BinaryMatrix& matrix) {
    std::vector<uint64_t> cards;
    for (ColumnId c = 0; c < matrix.num_cols(); ++c) {
      cards.push_back(matrix.ColumnCardinality(c));
    }
    return cards;
  };

  const BinaryMatrix first = OrFold(*m, &rng);
  EXPECT_EQ(rows_of(first), (std::vector<std::vector<ColumnId>>{
                                {0, 5, 6}, {2, 3, 4}, {1, 4, 5}, {0, 3},
                                {1, 2, 6}}));
  EXPECT_EQ(cards_of(first), (std::vector<uint64_t>{2, 2, 2, 2, 2, 2, 2}));
  EXPECT_FALSE(first.has_column_major());

  const BinaryMatrix second = OrFold(first, &rng);
  EXPECT_EQ(rows_of(second), (std::vector<std::vector<ColumnId>>{
                                 {1, 2, 3, 4, 5}, {0, 1, 2, 5, 6}, {0, 3}}));
  EXPECT_EQ(cards_of(second), (std::vector<uint64_t>{2, 2, 2, 2, 1, 2, 1}));
  EXPECT_EQ(second.num_ones(), 12u);
}

TEST(OrFoldTest, UnionOfOnesIsInvariant) {
  // Every 1 in the fold stems from a 1 in the source: total ones can
  // only shrink (merges) and rows partition the source rows.
  auto m = BinaryMatrix::FromRows(6, 3,
                                  {{0, 1}, {1}, {2}, {0}, {1, 2}, {0, 2}});
  ASSERT_TRUE(m.ok());
  Xoshiro256 rng(8);
  const BinaryMatrix folded = OrFold(*m, &rng);
  EXPECT_LE(folded.num_ones(), m->num_ones());
  uint64_t total_rows_ones = 0;
  for (RowId r = 0; r < folded.num_rows(); ++r) {
    total_rows_ones += folded.RowSize(r);
  }
  EXPECT_EQ(total_rows_ones, folded.num_ones());
}

}  // namespace
}  // namespace sans
