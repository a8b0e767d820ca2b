#include "candgen/hamming_lsh.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "data/synthetic_generator.h"
#include "matrix/or_fold.h"
#include "util/hashing.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace sans {
namespace {

TEST(HammingLshConfigTest, Validation) {
  HammingLshConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.rows_per_run = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.rows_per_run = 65;
  EXPECT_FALSE(config.Validate().ok());
  config.rows_per_run = 16;
  config.num_runs = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.num_runs = 2;
  config.density_band = 1;
  EXPECT_FALSE(config.Validate().ok());
  config.density_band = 4;
  config.max_levels = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(HammingLshTest, FindsIdenticalDenseColumns) {
  // Two identical columns at ~50% density are eligible at level 0 and
  // must collide in every run; a third disjoint column must not pair
  // with them.
  const RowId n = 64;
  std::vector<std::vector<ColumnId>> rows(n);
  for (RowId r = 0; r < n; ++r) {
    if (r % 2 == 0) {
      rows[r] = {0, 1};
    } else {
      rows[r] = {2};
    }
  }
  auto m = BinaryMatrix::FromRows(n, 3, rows);
  ASSERT_TRUE(m.ok());

  HammingLshConfig config;
  config.rows_per_run = 8;
  config.num_runs = 3;
  config.seed = 1;
  HammingLshCandidateGenerator generator(config);
  const CandidateSet candidates = generator.Generate(*m);
  EXPECT_TRUE(candidates.Contains(ColumnPair(0, 1)));
  EXPECT_FALSE(candidates.Contains(ColumnPair(0, 2)));
  EXPECT_FALSE(candidates.Contains(ColumnPair(1, 2)));
}

TEST(HammingLshTest, SparseSimilarColumnsFoundViaFolding) {
  // Columns at ~3% density are ineligible at level 0 (below 1/t =
  // 0.25) but OR-folding raises their density into the band at some
  // level, where identical columns must collide.
  const RowId n = 1024;
  std::vector<std::vector<ColumnId>> rows(n);
  for (RowId r = 0; r < n; ++r) {
    if (r % 32 == 0) rows[r] = {0, 1};  // identical sparse pair
  }
  auto m = BinaryMatrix::FromRows(n, 2, rows);
  ASSERT_TRUE(m.ok());

  HammingLshConfig config;
  config.rows_per_run = 8;
  config.num_runs = 4;
  config.min_rows = 8;
  config.seed = 3;
  HammingLshCandidateGenerator generator(config);
  std::vector<HammingLshLevelStats> stats;
  const CandidateSet candidates =
      generator.Generate(*m, nullptr, &stats).value();
  EXPECT_TRUE(candidates.Contains(ColumnPair(0, 1)));
  // Level 0 must have had no eligible columns; some deeper level must.
  ASSERT_FALSE(stats.empty());
  EXPECT_EQ(stats[0].eligible_columns, 0u);
  bool some_level_eligible = false;
  for (const auto& s : stats) {
    some_level_eligible |= (s.eligible_columns > 0);
  }
  EXPECT_TRUE(some_level_eligible);
}

TEST(HammingLshTest, LevelStatsTrackPyramid) {
  auto dataset = [] {
    SyntheticConfig config;
    config.num_rows = 256;
    config.num_cols = 30;
    config.bands = {};
    config.seed = 5;
    auto d = GenerateSynthetic(config);
    EXPECT_TRUE(d.ok());
    return std::move(d).value();
  }();

  HammingLshConfig config;
  config.rows_per_run = 8;
  config.num_runs = 2;
  config.min_rows = 16;
  config.seed = 7;
  HammingLshCandidateGenerator generator(config);
  std::vector<HammingLshLevelStats> stats;
  ASSERT_TRUE(generator.Generate(dataset.matrix, nullptr, &stats).ok());
  ASSERT_GE(stats.size(), 2u);
  EXPECT_EQ(stats[0].rows, 256u);
  for (size_t i = 1; i < stats.size(); ++i) {
    EXPECT_EQ(stats[i].rows, (stats[i - 1].rows + 1) / 2);
    EXPECT_EQ(stats[i].level, static_cast<int>(i));
  }
}

TEST(HammingLshTest, DeterministicFromSeed) {
  SyntheticConfig data;
  data.num_rows = 300;
  data.num_cols = 40;
  data.bands = {{2, 80.0, 90.0}};
  data.spread_pairs = false;
  data.seed = 11;
  auto dataset = GenerateSynthetic(data);
  ASSERT_TRUE(dataset.ok());

  HammingLshConfig config;
  config.rows_per_run = 10;
  config.num_runs = 3;
  config.seed = 42;
  HammingLshCandidateGenerator g1(config);
  HammingLshCandidateGenerator g2(config);
  const auto c1 = g1.Generate(dataset->matrix).SortedPairs();
  const auto c2 = g2.Generate(dataset->matrix).SortedPairs();
  EXPECT_EQ(c1, c2);
}

TEST(HammingLshTest, MoreRunsFindMorePairs) {
  SyntheticConfig data;
  data.num_rows = 800;
  data.num_cols = 60;
  data.bands = {{6, 75.0, 95.0}};
  data.spread_pairs = false;
  data.min_density = 0.02;
  data.max_density = 0.05;
  data.seed = 13;
  auto dataset = GenerateSynthetic(data);
  ASSERT_TRUE(dataset.ok());

  const auto recall_with_runs = [&](int runs) {
    HammingLshConfig config;
    config.rows_per_run = 10;
    config.num_runs = runs;
    config.min_rows = 16;
    config.seed = 15;
    HammingLshCandidateGenerator generator(config);
    const CandidateSet candidates = generator.Generate(dataset->matrix);
    int found = 0;
    for (const PlantedPair& p : dataset->planted) {
      if (candidates.Contains(p.pair)) ++found;
    }
    return found;
  };
  EXPECT_GE(recall_with_runs(8), recall_with_runs(1));
}

TEST(HammingLshTest, RowsPerRunLargerThanMatrixIsClamped) {
  auto m = BinaryMatrix::FromRows(4, 2, {{0, 1}, {0, 1}, {0}, {1}});
  ASSERT_TRUE(m.ok());
  HammingLshConfig config;
  config.rows_per_run = 64;  // > 4 rows
  config.num_runs = 2;
  config.min_rows = 1;
  HammingLshCandidateGenerator generator(config);
  // Must not crash; with the full matrix sampled the identical half
  // still gives the pair a chance at some level.
  generator.Generate(*m);
}

TEST(HammingLshTest, MatchesBruteForceRunCollisionsAtEveryPool) {
  // Definitional reference, rebuilt from the documented seeding: a
  // pair's count is the number of (level, run) pairs at which both
  // columns are eligible (density inside (1/t, (t-1)/t)) and have the
  // same non-zero r-bit pattern over the run's sampled rows; a level's
  // candidate_pairs sums its runs' colliding pairs.
  SyntheticConfig data;
  data.num_rows = 512;
  data.num_cols = 60;
  data.bands = {{6, 60.0, 95.0}};
  data.spread_pairs = false;
  data.min_density = 0.03;
  data.max_density = 0.3;
  data.seed = 19;
  auto dataset = GenerateSynthetic(data);
  ASSERT_TRUE(dataset.ok());
  const BinaryMatrix& matrix = dataset->matrix;

  HammingLshConfig config;
  config.rows_per_run = 6;
  config.num_runs = 5;
  config.min_rows = 16;
  config.seed = 23;
  Xoshiro256 pyramid_rng(Mix64(config.seed));
  const std::vector<BinaryMatrix> pyramid = BuildOrFoldPyramid(
      matrix, config.max_levels, config.min_rows, &pyramid_rng);
  std::map<ColumnPair, uint64_t> counts;
  std::vector<uint64_t> level_pairs(pyramid.size(), 0);
  for (size_t level = 0; level < pyramid.size(); ++level) {
    const BinaryMatrix& m = pyramid[level];
    const auto eligible = [&](ColumnId c) {
      return m.ColumnDensity(c) > 0.25 && m.ColumnDensity(c) < 0.75;
    };
    Xoshiro256 run_rng(
        Mix64(config.seed ^ (0xa0761d6478bd642fULL * (level + 1))));
    const int r = std::min<int>(config.rows_per_run, m.num_rows());
    for (int run = 0; run < config.num_runs; ++run) {
      const std::vector<uint64_t> sample =
          run_rng.SampleWithoutReplacement(m.num_rows(), r);
      const auto pattern = [&](ColumnId c) {
        uint64_t bits = 0;
        for (int bit = 0; bit < r; ++bit) {
          if (m.Get(static_cast<RowId>(sample[bit]), c)) bits |= 1ULL << bit;
        }
        return bits;
      };
      for (ColumnId i = 0; i < m.num_cols(); ++i) {
        for (ColumnId j = i + 1; j < m.num_cols(); ++j) {
          if (eligible(i) && eligible(j) && pattern(i) != 0 &&
              pattern(i) == pattern(j)) {
            ++counts[ColumnPair(i, j)];
            ++level_pairs[level];
          }
        }
      }
    }
  }
  const std::vector<std::pair<ColumnPair, uint64_t>> expected(counts.begin(),
                                                              counts.end());
  ASSERT_FALSE(expected.empty());

  const HammingLshCandidateGenerator generator(config);
  EXPECT_EQ(generator.Generate(matrix).SortedEntries(), expected);
  for (int threads : {1, 2, 3, 8}) {
    ThreadPool pool(threads);
    std::vector<HammingLshLevelStats> stats;
    auto pooled = generator.Generate(matrix, &pool, &stats);
    ASSERT_TRUE(pooled.ok());
    EXPECT_EQ(pooled->SortedEntries(), expected) << "threads=" << threads;
    ASSERT_EQ(stats.size(), pyramid.size());
    for (size_t level = 0; level < stats.size(); ++level) {
      EXPECT_EQ(stats[level].candidate_pairs, level_pairs[level])
          << "level=" << level;
    }
  }
}

}  // namespace
}  // namespace sans
