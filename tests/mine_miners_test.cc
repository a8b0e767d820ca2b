// End-to-end behaviour of the four three-phase miners on generated
// data with planted ground truth. The shared contract: output is
// verified, so it never contains false positives; recall of clearly-
// above-threshold pairs is near 1 at sane parameters.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "candgen/hash_count.h"
#include "data/synthetic_generator.h"
#include "matrix/row_stream.h"
#include "mine/brute_force.h"
#include "mine/hlsh_miner.h"
#include "mine/kmh_miner.h"
#include "mine/mh_miner.h"
#include "mine/mlsh_miner.h"
#include "mine/parallel.h"
#include "sketch/estimators.h"

namespace sans {
namespace {

struct MinerCase {
  std::string name;
  std::function<std::unique_ptr<Miner>()> make;
};

SyntheticDataset TestData() {
  SyntheticConfig config;
  config.num_rows = 1500;
  config.num_cols = 120;
  config.bands = {{4, 80.0, 90.0}, {4, 55.0, 65.0}};
  config.spread_pairs = false;
  config.min_density = 0.03;
  config.max_density = 0.08;
  config.seed = 99;
  auto d = GenerateSynthetic(config);
  EXPECT_TRUE(d.ok());
  return std::move(d).value();
}

std::vector<MinerCase> AllMiners() {
  std::vector<MinerCase> cases;
  cases.push_back({"MH", [] {
                     MhMinerConfig config;
                     config.min_hash.num_hashes = 120;
                     config.min_hash.seed = 1;
                     config.delta = 0.3;
                     return std::make_unique<MhMiner>(config);
                   }});
  cases.push_back({"K-MH", [] {
                     KmhMinerConfig config;
                     config.sketch.k = 120;
                     config.sketch.seed = 2;
                     config.hash_count_slack = 0.4;
                     config.delta = 0.3;
                     return std::make_unique<KmhMiner>(config);
                   }});
  cases.push_back({"M-LSH", [] {
                     MlshMinerConfig config;
                     config.lsh.rows_per_band = 4;
                     config.lsh.num_bands = 25;
                     config.seed = 3;
                     return std::make_unique<MlshMiner>(config);
                   }});
  cases.push_back({"H-LSH", [] {
                     HlshMinerConfig config;
                     config.lsh.rows_per_run = 10;
                     config.lsh.num_runs = 8;
                     config.lsh.min_rows = 16;
                     config.lsh.seed = 4;
                     return std::make_unique<HlshMiner>(config);
                   }});
  return cases;
}

TEST(MinersTest, OutputHasNoFalsePositives) {
  const SyntheticDataset data = TestData();
  InMemorySource source(&data.matrix);
  for (const MinerCase& c : AllMiners()) {
    auto miner = c.make();
    auto report = miner->Mine(source, 0.5);
    ASSERT_TRUE(report.ok()) << c.name;
    for (const SimilarPair& p : report->pairs) {
      EXPECT_GE(data.matrix.Similarity(p.pair.first, p.pair.second), 0.5)
          << c.name;
      EXPECT_DOUBLE_EQ(
          p.similarity,
          data.matrix.Similarity(p.pair.first, p.pair.second))
          << c.name;
    }
  }
}

TEST(MinersTest, HighSimilarityPairsAreFound) {
  // Pairs planted at 0.80-0.90 should essentially never be missed at
  // threshold 0.5 by any scheme with the chosen parameters.
  const SyntheticDataset data = TestData();
  InMemorySource source(&data.matrix);
  for (const MinerCase& c : AllMiners()) {
    auto miner = c.make();
    auto report = miner->Mine(source, 0.5);
    ASSERT_TRUE(report.ok()) << c.name;
    int found = 0;
    int high = 0;
    for (const PlantedPair& planted : data.planted) {
      if (planted.target_similarity < 0.75) continue;
      ++high;
      for (const SimilarPair& p : report->pairs) {
        if (p.pair == planted.pair) {
          ++found;
          break;
        }
      }
    }
    EXPECT_EQ(found, high) << c.name << " missed high-similarity pairs";
  }
}

TEST(MinersTest, ReportsArePopulated) {
  const SyntheticDataset data = TestData();
  InMemorySource source(&data.matrix);
  for (const MinerCase& c : AllMiners()) {
    auto miner = c.make();
    auto report = miner->Mine(source, 0.5);
    ASSERT_TRUE(report.ok()) << c.name;
    EXPECT_GE(report->num_candidates, report->pairs.size()) << c.name;
    EXPECT_GT(report->timers.Total(kPhaseSignatures), 0.0) << c.name;
    EXPECT_GT(report->timers.Total(kPhaseCandidates), 0.0) << c.name;
    EXPECT_GT(report->timers.Total(kPhaseVerify), 0.0) << c.name;
    // Output is sorted by descending similarity.
    for (size_t i = 1; i < report->pairs.size(); ++i) {
      EXPECT_GE(report->pairs[i - 1].similarity,
                report->pairs[i].similarity);
    }
  }
}

TEST(MinersTest, RejectsInvalidThreshold) {
  const SyntheticDataset data = TestData();
  InMemorySource source(&data.matrix);
  for (const MinerCase& c : AllMiners()) {
    auto miner = c.make();
    EXPECT_FALSE(miner->Mine(source, 0.0).ok()) << c.name;
    EXPECT_FALSE(miner->Mine(source, 1.5).ok()) << c.name;
  }
}

TEST(MinersTest, MinersAgreeWithBruteForceAtModestThreshold) {
  // With generous parameters every miner should reproduce the exact
  // brute-force answer on this small instance (the Section 5 claim
  // that the probabilistic algorithms report the same pairs as
  // a-priori).
  const SyntheticDataset data = TestData();
  InMemorySource source(&data.matrix);
  auto truth = BruteForceSimilarPairs(data.matrix, 0.5);
  ASSERT_TRUE(truth.ok());

  MhMinerConfig mh_config;
  mh_config.min_hash.num_hashes = 250;
  mh_config.min_hash.seed = 20;
  mh_config.delta = 0.4;
  MhMiner mh(mh_config);
  auto report = mh.Mine(source, 0.5);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->pairs.size(), truth->size());
  for (size_t i = 0; i < truth->size(); ++i) {
    EXPECT_EQ(report->pairs[i].pair, (*truth)[i].pair);
    EXPECT_DOUBLE_EQ(report->pairs[i].similarity, (*truth)[i].similarity);
  }
}

TEST(MlshMinerTest, FromDistributionDerivesParameters) {
  SimilarityDistribution distr;
  distr.similarity = {0.05, 0.15, 0.85};
  distr.count = {1e5, 1e4, 40.0};
  LshOptimizerOptions options;
  options.s0 = 0.5;
  options.max_false_negatives = 2.0;
  options.max_false_positives = 500.0;
  auto miner = MlshMiner::FromDistribution(distr, options,
                                           HashFamily::kSplitMix64, 1);
  ASSERT_TRUE(miner.ok());
  ASSERT_TRUE(miner->optimized_parameters().has_value());
  EXPECT_EQ(miner->config().lsh.rows_per_band,
            miner->optimized_parameters()->r);
  EXPECT_EQ(miner->config().lsh.num_bands,
            miner->optimized_parameters()->l);
}

TEST(MlshMinerTest, FromDistributionReportsInfeasibility) {
  SimilarityDistribution distr;
  distr.similarity = {0.49, 0.51};
  distr.count = {1e9, 1e9};
  LshOptimizerOptions options;
  options.s0 = 0.5;
  options.max_false_negatives = 0.0001;
  options.max_false_positives = 0.0001;
  options.max_r = 5;
  options.max_l = 8;
  auto miner = MlshMiner::FromDistribution(distr, options,
                                           HashFamily::kSplitMix64, 1);
  EXPECT_FALSE(miner.ok());
  EXPECT_EQ(miner.status().code(), StatusCode::kNotFound);
}

TEST(HlshMinerTest, ExposesLevelStats) {
  const SyntheticDataset data = TestData();
  InMemorySource source(&data.matrix);
  HlshMinerConfig config;
  config.lsh.rows_per_run = 8;
  config.lsh.num_runs = 2;
  config.lsh.min_rows = 32;
  HlshMiner miner(config);
  ASSERT_TRUE(miner.Mine(source, 0.5).ok());
  EXPECT_FALSE(miner.last_level_stats().empty());
  EXPECT_EQ(miner.last_level_stats()[0].rows, data.matrix.num_rows());
}

TEST(KmhMinerTest, UnbiasedPruningKeepsExactlyTheEstimatesAboveFloor) {
  const SyntheticDataset data = TestData();
  InMemorySource source(&data.matrix);
  KmhMinerConfig config;
  config.sketch.k = 120;
  config.sketch.seed = 2;
  config.hash_count_slack = 0.1;  // admit pairs the pruning must drop
  config.delta = 0.3;
  constexpr double kThreshold = 0.5;
  const double floor = (1.0 - config.delta) * kThreshold;

  auto sketch = ComputeKMinHashParallel(InMemorySource(&data.matrix),
                                        config.sketch, ExecutionConfig{},
                                        nullptr);
  ASSERT_TRUE(sketch.ok());
  const CandidateSet filtered = HashCountKMinHashAdaptive(
      *sketch, config.hash_count_slack * kThreshold);
  const std::vector<SimilarPair> survivors =
      PruneByUnbiasedEstimate(*sketch, filtered, floor);
  ASSERT_FALSE(survivors.empty());
  ASSERT_LT(survivors.size(), filtered.size());
  std::vector<ColumnPair> kept;
  for (const SimilarPair& survivor : survivors) kept.push_back(survivor.pair);
  EXPECT_TRUE(std::is_sorted(kept.begin(), kept.end()));
  for (const ColumnPair& pair : filtered.SortedPairs()) {
    const double estimate = EstimateSimilarityUnbiased(
        sketch->Signature(pair.first), sketch->Signature(pair.second),
        config.sketch.k);
    const auto it = std::lower_bound(kept.begin(), kept.end(), pair);
    const bool is_kept = it != kept.end() && *it == pair;
    EXPECT_EQ(is_kept, estimate >= floor);
    if (is_kept) {
      EXPECT_EQ(survivors[it - kept.begin()].similarity, estimate);
    }
  }

  // The miner verifies exactly these survivors, or every Hash-Count
  // candidate when pruning is off.
  auto pruned = KmhMiner(config).Mine(source, kThreshold);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned->candidates, kept);
  config.unbiased_pruning = false;
  auto unpruned = KmhMiner(config).Mine(source, kThreshold);
  ASSERT_TRUE(unpruned.ok());
  EXPECT_EQ(unpruned->candidates, filtered.SortedPairs());
}

}  // namespace
}  // namespace sans
