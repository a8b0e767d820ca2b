// Tests of the benchmark's own machinery: its exact truth against the
// library's brute force, and the seed-determinism of its quality
// metrics.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "mine/brute_force.h"
#include "runner.h"
#include "truth.h"
#include "workload.h"

namespace perfbench {
namespace {

Workload Small(TableKind kind, sans::RowId rows, sans::ColumnId cols) {
  Workload workload;
  workload.name = "small";
  workload.kind = kind;
  workload.rows = rows;
  workload.cols = cols;
  return workload;
}

std::vector<Workload> SmallTables() {
  return {Small(TableKind::kSynthetic, 2'000, 1'000),
          Small(TableKind::kWeblog, 5'000, 3'000),
          Small(TableKind::kNews, 3'000, 700)};
}

TEST(TruthTest, SimilarPairsEqualBruteForce) {
  for (const Workload& workload : SmallTables()) {
    auto matrix = GenerateTable(workload, 3);
    ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
    matrix->EnsureColumnMajor();
    for (const double threshold : {0.5, 0.2, 0.05}) {
      auto expected = sans::BruteForceSimilarPairs(*matrix, threshold);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(ExactSimilarPairs(*matrix, threshold), *expected)
          << "kind " << static_cast<int>(workload.kind) << " threshold "
          << threshold;
    }
  }
}

TEST(TruthTest, TopKEqualsBruteForceRanking) {
  constexpr int kK = 8;
  for (const Workload& workload : SmallTables()) {
    auto matrix = GenerateTable(workload, 4);
    ASSERT_TRUE(matrix.ok());
    matrix->EnsureColumnMajor();
    auto all = sans::BruteForceAllNonzeroPairs(*matrix);
    ASSERT_TRUE(all.ok());
    for (sans::ColumnId col = 0; col < matrix->num_cols(); col += 37) {
      std::vector<std::pair<double, sans::ColumnId>> scored;
      for (const sans::SimilarPair& p : *all) {
        if (p.pair.first == col) {
          scored.emplace_back(p.similarity, p.pair.second);
        } else if (p.pair.second == col) {
          scored.emplace_back(p.similarity, p.pair.first);
        }
      }
      std::sort(scored.rbegin(), scored.rend());
      ExactNeighbors expected;
      expected.wanted = std::min<size_t>(kK, scored.size());
      for (const auto& [similarity, other] : scored) {
        if (expected.wanted > 0 &&
            similarity >= scored[expected.wanted - 1].first) {
          expected.hits.push_back(other);
        }
      }
      std::sort(expected.hits.begin(), expected.hits.end());
      const ExactNeighbors got = ExactTopK(*matrix, col, kK);
      EXPECT_EQ(got.wanted, expected.wanted) << "column " << col;
      EXPECT_EQ(got.hits, expected.hits) << "column " << col;
    }
  }
}

TEST(TruthTest, CountersDoNotWrapOnHeavyColumns) {
  // Two columns sharing 70,000 rows: a 16-bit counter would wrap.
  constexpr sans::RowId kRows = 70'000;
  std::vector<std::vector<sans::ColumnId>> rows(kRows, {0, 1});
  rows.push_back({0});
  auto matrix = sans::BinaryMatrix::FromRows(kRows + 1, 2, rows);
  ASSERT_TRUE(matrix.ok());
  matrix->EnsureColumnMajor();
  const auto pairs = ExactSimilarPairs(*matrix, 0.5);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].similarity, static_cast<double>(kRows) / (kRows + 1));
}

TEST(RequestsTest, SameSeedSameList) {
  auto matrix = GenerateTable(Small(TableKind::kNews, 3'000, 700), 5);
  ASSERT_TRUE(matrix.ok());
  auto a = MakeRequests(*matrix, 50, 50, 9);
  auto b = MakeRequests(*matrix, 50, 50, 9);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), 100u);
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].kind, (*b)[i].kind);
    EXPECT_EQ((*a)[i].a, (*b)[i].a);
    EXPECT_EQ((*a)[i].b, (*b)[i].b);
    EXPECT_GT(matrix->ColumnCardinality((*a)[i].a), 0u);
  }
}

class RunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::current_path() /
           ("perfbench_test_" + std::to_string(::getpid()));
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  RunOptions Options(const std::string& sub) const {
    RunOptions options;
    options.seed = 7;
    options.seconds = 0.01;
    options.work_dir = (dir_ / sub).string();
    return options;
  }

  std::filesystem::path dir_;
};

TEST_F(RunTest, QualityMetricsDependOnlyOnSeed) {
  Workload workload = Small(TableKind::kNews, 4'000, 700);
  workload.mine_threads = 2;
  workload.server_workers = 2;
  workload.connections = 2;
  auto first = RunEndToEnd(workload, Options("a"));
  auto second = RunEndToEnd(workload, Options("b"));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first->failed, 0u);
  EXPECT_EQ(second->failed, 0u);
  for (const char* name : {"mine_recall", "topk_recall", "index_mb"}) {
    EXPECT_EQ(first->Value(name), second->Value(name)) << name;
  }
  EXPECT_EQ(first->metrics.size(), 15u);
}

TEST_F(RunTest, TracedRebuildMatchesMiners) {
  const Workload workload = Small(TableKind::kWeblog, 20'000, 3'000);
  auto traced = RunTraced(workload, Options("t"));
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  EXPECT_EQ(traced->failed, 0u);
  EXPECT_GT(traced->attempted, 0u);
  EXPECT_TRUE(std::filesystem::exists(dir_ / "t" / "trace.json"));
}

}  // namespace
}  // namespace perfbench
