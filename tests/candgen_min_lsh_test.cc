#include "candgen/min_lsh.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "data/synthetic_generator.h"
#include "matrix/row_stream.h"
#include "sketch/min_hash.h"

namespace sans {
namespace {

TEST(MinLshConfigTest, Validation) {
  MinLshConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.rows_per_band = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.rows_per_band = 2;
  config.num_bands = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(MinLshTest, IdenticalColumnsAlwaysCollide) {
  SignatureMatrix sig(6, 3);
  for (int l = 0; l < 6; ++l) {
    sig.SetValue(l, 0, 100 + l);
    sig.SetValue(l, 1, 100 + l);  // identical to column 0
    sig.SetValue(l, 2, 900 + l);  // disjoint
  }
  MinLshConfig config;
  config.rows_per_band = 2;
  config.num_bands = 3;
  MinLshCandidateGenerator generator(config);
  auto candidates = generator.Generate(sig);
  ASSERT_TRUE(candidates.ok());
  EXPECT_TRUE(candidates->Contains(ColumnPair(0, 1)));
  // Identical columns collide in every band.
  EXPECT_EQ(candidates->Count(ColumnPair(0, 1)), 3u);
  EXPECT_FALSE(candidates->Contains(ColumnPair(0, 2)));
  EXPECT_FALSE(candidates->Contains(ColumnPair(1, 2)));
}

TEST(MinLshTest, BandedModeRequiresMatchingK) {
  SignatureMatrix sig(5, 2);
  MinLshConfig config;
  config.rows_per_band = 2;
  config.num_bands = 3;  // needs k = 6
  MinLshCandidateGenerator generator(config);
  auto candidates = generator.Generate(sig);
  EXPECT_FALSE(candidates.ok());
  EXPECT_EQ(candidates.status().code(), StatusCode::kInvalidArgument);
}

TEST(MinLshTest, BandIndicesBandedAreDisjointSlices) {
  MinLshConfig config;
  config.rows_per_band = 3;
  config.num_bands = 4;
  MinLshCandidateGenerator generator(config);
  const auto band0 = generator.BandIndices(0, 12);
  const auto band2 = generator.BandIndices(2, 12);
  EXPECT_EQ(band0, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(band2, (std::vector<int>{6, 7, 8}));
}

TEST(MinLshTest, BandIndicesSampledAreDeterministicAndInRange) {
  MinLshConfig config;
  config.rows_per_band = 5;
  config.num_bands = 3;
  config.sampled = true;
  config.seed = 9;
  MinLshCandidateGenerator g1(config);
  MinLshCandidateGenerator g2(config);
  for (int band = 0; band < 3; ++band) {
    const auto i1 = g1.BandIndices(band, 10);
    const auto i2 = g2.BandIndices(band, 10);
    EXPECT_EQ(i1, i2);
    for (int idx : i1) {
      EXPECT_GE(idx, 0);
      EXPECT_LT(idx, 10);
    }
  }
  // Different bands draw different index sets (w.h.p.).
  EXPECT_NE(g1.BandIndices(0, 10), g1.BandIndices(1, 10));
}

TEST(MinLshTest, SampledModeWorksWithFewerHashes) {
  SignatureMatrix sig(4, 2);
  for (int l = 0; l < 4; ++l) {
    sig.SetValue(l, 0, 7 + l);
    sig.SetValue(l, 1, 7 + l);
  }
  MinLshConfig config;
  config.rows_per_band = 3;
  config.num_bands = 10;  // r*l = 30 > k = 4: only legal when sampled
  config.sampled = true;
  MinLshCandidateGenerator generator(config);
  auto candidates = generator.Generate(sig);
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(candidates->Count(ColumnPair(0, 1)), 10u);
}

TEST(MinLshTest, EmptyColumnsAreNeverBucketed) {
  SignatureMatrix sig(4, 3);
  for (int l = 0; l < 4; ++l) {
    sig.SetValue(l, 0, 3 + l);
  }
  // Columns 1 and 2 stay empty (all-sentinel): they must not collide
  // with each other despite identical (sentinel) signatures.
  MinLshConfig config;
  config.rows_per_band = 2;
  config.num_bands = 2;
  MinLshCandidateGenerator generator(config);
  auto candidates = generator.Generate(sig);
  ASSERT_TRUE(candidates.ok());
  EXPECT_TRUE(candidates->empty());
}

TEST(MinLshTest, RecallGrowsWithBandsAndShrinksWithRows) {
  // On generated data with planted pairs at ~0.7 similarity, more
  // bands must not lose pairs and more rows per band must not gain
  // spurious ones — the Fig. 8 monotonicity.
  SyntheticConfig data;
  data.num_rows = 1500;
  data.num_cols = 60;
  data.bands = {{6, 68.0, 72.0}};
  data.spread_pairs = false;
  data.min_density = 0.05;
  data.max_density = 0.1;
  data.seed = 77;
  auto dataset = GenerateSynthetic(data);
  ASSERT_TRUE(dataset.ok());

  MinHashConfig mh;
  mh.num_hashes = 60;
  mh.seed = 10;
  MinHashGenerator generator(mh);
  InMemoryRowStream stream(&dataset->matrix);
  auto sig = generator.Compute(&stream);
  ASSERT_TRUE(sig.ok());

  const auto recall_at = [&](int r, int l) {
    MinLshConfig config;
    config.rows_per_band = r;
    config.num_bands = l;
    config.sampled = true;
    config.seed = 5;
    MinLshCandidateGenerator g(config);
    auto candidates = g.Generate(*sig);
    EXPECT_TRUE(candidates.ok());
    int found = 0;
    for (const PlantedPair& p : dataset->planted) {
      if (candidates->Contains(p.pair)) ++found;
    }
    return static_cast<double>(found) / dataset->planted.size();
  };

  // l sweep at fixed r: recall non-decreasing in expectation; allow
  // tiny slack for sampling noise.
  EXPECT_LE(recall_at(4, 1), recall_at(4, 12) + 0.17);
  EXPECT_GE(recall_at(4, 12), recall_at(4, 1));
  // r sweep at fixed l: recall non-increasing (sharper filter).
  EXPECT_GE(recall_at(2, 4) + 0.17, recall_at(10, 4));
}

TEST(MinLshTest, ParallelGenerateMatchesSequential) {
  // Probing on a pool must reproduce the inline candidate set exactly,
  // counts included, in both banded and sampled modes.
  SyntheticConfig data;
  data.num_rows = 800;
  data.num_cols = 50;
  data.bands = {{5, 55.0, 85.0}};
  data.spread_pairs = false;
  data.min_density = 0.05;
  data.max_density = 0.1;
  data.seed = 31;
  auto dataset = GenerateSynthetic(data);
  ASSERT_TRUE(dataset.ok());

  MinHashConfig mh;
  mh.num_hashes = 24;
  mh.seed = 4;
  MinHashGenerator mh_generator(mh);
  InMemoryRowStream stream(&dataset->matrix);
  auto sig = mh_generator.Compute(&stream);
  ASSERT_TRUE(sig.ok());

  for (bool sampled : {false, true}) {
    MinLshConfig config;
    config.rows_per_band = 4;
    config.num_bands = 6;
    config.sampled = sampled;
    config.seed = 9;
    MinLshCandidateGenerator generator(config);
    auto sequential = generator.Generate(*sig);
    ASSERT_TRUE(sequential.ok());
    for (int threads : {2, 3, 8}) {
      ThreadPool pool(threads);
      auto parallel = generator.Generate(*sig, &pool);
      ASSERT_TRUE(parallel.ok()) << "threads=" << threads;
      EXPECT_EQ(parallel->SortedEntries(), sequential->SortedEntries())
          << "sampled=" << sampled << " threads=" << threads;
    }
  }
}

TEST(MinLshTest, MatchesBruteForceBandCollisionsAtEveryPool) {
  // Definitional reference: a pair of non-empty columns is a candidate
  // when all r values of some band match, with the number of such
  // bands as its count. Two empty columns are appended: they never
  // pair, although their sentinel values agree in every band.
  SyntheticConfig data;
  data.num_rows = 600;
  data.num_cols = 70;
  data.bands = {{6, 50.0, 90.0}};
  data.spread_pairs = false;
  data.min_density = 0.05;
  data.max_density = 0.12;
  data.seed = 17;
  auto dataset = GenerateSynthetic(data);
  ASSERT_TRUE(dataset.ok());
  MinHashConfig mh;
  mh.num_hashes = 12;
  mh.seed = 3;
  MinHashGenerator mh_generator(mh);
  InMemoryRowStream stream(&dataset->matrix);
  auto computed = mh_generator.Compute(&stream);
  ASSERT_TRUE(computed.ok());
  const ColumnId m = computed->num_cols() + 2;
  SignatureMatrix sig(mh.num_hashes, m);
  for (int l = 0; l < mh.num_hashes; ++l) {
    for (ColumnId c = 0; c < computed->num_cols(); ++c) {
      sig.SetValue(l, c, computed->Value(l, c));
    }
  }

  for (bool sampled : {false, true}) {
    MinLshConfig config;
    config.rows_per_band = sampled ? 3 : 2;
    config.num_bands = sampled ? 9 : 6;
    config.sampled = sampled;
    config.seed = 21;
    const MinLshCandidateGenerator generator(config);
    std::vector<std::pair<ColumnPair, uint64_t>> expected;
    for (ColumnId i = 0; i < m; ++i) {
      for (ColumnId j = i + 1; j < m; ++j) {
        if (sig.ColumnEmpty(i) || sig.ColumnEmpty(j)) continue;
        uint64_t bands = 0;
        for (int band = 0; band < config.num_bands; ++band) {
          bool match = true;
          for (int idx : generator.BandIndices(band, mh.num_hashes)) {
            match = match && sig.Value(idx, i) == sig.Value(idx, j);
          }
          bands += match;
        }
        if (bands > 0) expected.emplace_back(ColumnPair(i, j), bands);
      }
    }
    ASSERT_FALSE(expected.empty());

    auto inline_run = generator.Generate(sig);
    ASSERT_TRUE(inline_run.ok());
    EXPECT_EQ(inline_run->SortedEntries(), expected) << "sampled=" << sampled;
    for (int threads : {1, 2, 3, 8}) {
      ThreadPool pool(threads);
      auto pooled = generator.Generate(sig, &pool);
      ASSERT_TRUE(pooled.ok());
      EXPECT_EQ(pooled->SortedEntries(), expected)
          << "sampled=" << sampled << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace sans
