#include "serve/query_engine.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <vector>

#include "data/synthetic_generator.h"
#include "matrix/row_stream.h"
#include "serve/similarity_index.h"
#include "sketch/estimators.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace sans {
namespace {

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sans_serve_engine_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Builds an index over `matrix` and loads it back.
  std::shared_ptr<const SimilarityIndex> BuildIndex(
      const BinaryMatrix& matrix, const SimilarityIndexConfig& config) {
    const std::string path = Path("engine.sidx");
    const Status built =
        IndexBuilder(config).Build(InMemorySource(&matrix), path);
    EXPECT_TRUE(built.ok()) << built.ToString();
    auto index = SimilarityIndex::Load(path);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    return std::make_shared<const SimilarityIndex>(std::move(*index));
  }

  static int counter_;
  std::filesystem::path dir_;
};

int QueryEngineTest::counter_ = 0;

BinaryMatrix PlantedMatrix(uint64_t seed) {
  SyntheticConfig config;
  config.num_rows = 600;
  config.num_cols = 200;
  config.bands = {{4, 80.0, 95.0}, {4, 60.0, 80.0}};
  config.spread_pairs = false;
  config.seed = seed;
  auto d = GenerateSynthetic(config);
  EXPECT_TRUE(d.ok());
  return std::move(d->matrix);
}

SimilarityIndexConfig EngineConfig() {
  SimilarityIndexConfig config;
  config.sketch_k = 128;
  config.seed = 5;
  return config;
}

TEST_F(QueryEngineTest, TopKRanksPlantedPartnerFirst) {
  const BinaryMatrix matrix = PlantedMatrix(13);
  const QueryEngine engine(BuildIndex(matrix, EngineConfig()));
  // Planted pairs occupy consecutive slots from column 0: (0,1),
  // (2,3), ... with similarity >= 0.6 while background pairs sit near
  // 0.02, so each planted column's nearest neighbor is its partner.
  for (ColumnId c = 0; c < 8; ++c) {
    const ColumnId partner = (c % 2 == 0) ? c + 1 : c - 1;
    auto neighbors = engine.TopK(c, 3);
    ASSERT_TRUE(neighbors.ok()) << neighbors.status().ToString();
    ASSERT_FALSE(neighbors->empty());
    EXPECT_EQ(neighbors->front().col, partner)
        << "column " << c << " did not rank its planted partner first";
    EXPECT_GT(neighbors->front().similarity, 0.4);
  }
}

TEST_F(QueryEngineTest, TopKIsSortedAndRespectsKAndThreshold) {
  const BinaryMatrix matrix = PlantedMatrix(29);
  const QueryEngine engine(BuildIndex(matrix, EngineConfig()));
  auto neighbors = engine.TopK(0, 5, 0.01);
  ASSERT_TRUE(neighbors.ok());
  EXPECT_LE(neighbors->size(), 5u);
  for (size_t i = 1; i < neighbors->size(); ++i) {
    EXPECT_GE((*neighbors)[i - 1].similarity, (*neighbors)[i].similarity);
  }
  for (const Neighbor& n : *neighbors) {
    EXPECT_GE(n.similarity, 0.01);
    EXPECT_NE(n.col, 0u);
  }
}

/// The answer of a scan over every column sketch: each non-empty
/// column other than `col` whose estimate passes `min_similarity`,
/// best first, cut at k.
std::vector<Neighbor> FullScanTopK(const SimilarityIndex& index, ColumnId col,
                                   int k, double min_similarity) {
  const KMinHashSketch& sketch = index.sketch();
  std::vector<Neighbor> all;
  for (ColumnId other = 0; other < index.num_cols(); ++other) {
    if (other == col || sketch.ColumnCardinality(other) == 0) continue;
    const double similarity = EstimateSimilarityUnbiased(
        sketch.Signature(col), sketch.Signature(other), sketch.k());
    if (similarity < min_similarity) continue;
    all.push_back(Neighbor{other, similarity});
  }
  std::sort(all.begin(), all.end());
  if (all.size() > static_cast<size_t>(k)) all.resize(k);
  return all;
}

/// 300 rows × 60 columns of varied density, with empty columns 5 and
/// 33 and duplicates of column 3 at 20 and 41.
BinaryMatrix MixedMatrix() {
  Xoshiro256 rng(91);
  std::vector<std::vector<ColumnId>> rows(300);
  for (RowId r = 0; r < 300; ++r) {
    for (ColumnId c = 0; c < 60; ++c) {
      if (c == 5 || c == 33 || c == 20 || c == 41) continue;
      const uint64_t per_mille = 20 + 7 * c;
      if (rng.NextU64() % 1000 < per_mille) rows[r].push_back(c);
    }
    const bool has3 =
        std::find(rows[r].begin(), rows[r].end(), ColumnId{3}) != rows[r].end();
    if (has3) {
      rows[r].push_back(20);
      rows[r].push_back(41);
      std::sort(rows[r].begin(), rows[r].end());
    }
  }
  auto built = BinaryMatrix::FromRows(300, 60, rows);
  EXPECT_TRUE(built.ok());
  return std::move(*built);
}

TEST_F(QueryEngineTest, TopKEqualsFullScan) {
  const BinaryMatrix matrix = MixedMatrix();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // A small sketch_k leaves touched columns whose estimate is 0 (their
  // shared value falls outside the union's k smallest); a large one
  // leaves few zeros among the touched.
  for (const int sketch_k : {8, 128}) {
    SimilarityIndexConfig config = EngineConfig();
    config.sketch_k = sketch_k;
    const QueryEngine engine(BuildIndex(matrix, config));
    const SimilarityIndex& index = engine.index();
    const int num_cols = static_cast<int>(index.num_cols());
    size_t touched_zeros = 0;
    for (ColumnId col = 0; col < index.num_cols(); ++col) {
      index.ForEachPostingMate(col, [&](ColumnId j) {
        if (EstimateSimilarityUnbiased(index.sketch().Signature(col),
                                       index.sketch().Signature(j),
                                       sketch_k) == 0.0) {
          ++touched_zeros;
        }
      });
      for (const int k : {1, 8, 50, num_cols}) {
        for (const double min_similarity : {nan, -1.0, 0.0, 0.05, 0.5}) {
          TopKInfo info;
          auto answer = engine.TopK(col, k, min_similarity, &info);
          ASSERT_TRUE(answer.ok()) << answer.status().ToString();
          EXPECT_EQ(*answer, FullScanTopK(index, col, k, min_similarity))
              << "sketch_k " << sketch_k << " col " << col << " k " << k
              << " min_similarity " << min_similarity;
        }
      }
    }
    if (sketch_k == 8) {
      EXPECT_GT(touched_zeros, 0u);
    }
  }
}

TEST_F(QueryEngineTest, FallbackScanFillsSmallDatasets) {
  // 6 columns, k=5: the postings cannot supply 5 candidates, so the
  // engine must fill with zeros and return every non-empty other column.
  std::vector<std::vector<ColumnId>> rows(40);
  for (RowId r = 0; r < 40; ++r) {
    for (ColumnId c = 0; c < 6; ++c) {
      if ((r * 7 + c * 3) % 4 == 0) rows[r].push_back(c);
    }
  }
  auto built = BinaryMatrix::FromRows(40, 6, rows);
  ASSERT_TRUE(built.ok());
  SimilarityIndexConfig config = EngineConfig();
  config.sketch_k = 64;
  const QueryEngine engine(BuildIndex(*built, config));
  TopKInfo info;
  auto neighbors = engine.TopK(0, 5, 0.0, &info);
  ASSERT_TRUE(neighbors.ok());
  // Column 4 is column 0's only touched column (they are identical;
  // the rest are disjoint from it), so the zero-fill supplies the
  // other four in id order.
  EXPECT_EQ(info.bucket_candidates, 1u);
  EXPECT_TRUE(info.fallback_scan);
  EXPECT_EQ(*neighbors, (std::vector<Neighbor>{
                            {4, 1.0}, {1, 0.0}, {2, 0.0}, {3, 0.0}, {5, 0.0}}));
  // A positive threshold has nothing to fill with.
  auto positive = engine.TopK(0, 5, 0.5, &info);
  ASSERT_TRUE(positive.ok());
  EXPECT_FALSE(info.fallback_scan);
  EXPECT_EQ(*positive, (std::vector<Neighbor>{{4, 1.0}}));
}

TEST_F(QueryEngineTest, ExactWhenSketchCoversUnion) {
  // sketch_k >= |C_i ∪ C_j| for every pair makes the Theorem 2
  // estimator exact, so PairSimilarity must equal the true Jaccard.
  const BinaryMatrix matrix = PlantedMatrix(61);
  SimilarityIndexConfig config = EngineConfig();
  config.sketch_k = 2048;  // far above any union size at 600 rows
  const QueryEngine engine(BuildIndex(matrix, config));
  for (ColumnId a = 0; a < 10; ++a) {
    for (ColumnId b = a + 1; b < 10; ++b) {
      auto estimate = engine.PairSimilarity(a, b);
      ASSERT_TRUE(estimate.ok());
      BinaryMatrix copy = matrix;
      copy.EnsureColumnMajor();
      EXPECT_NEAR(*estimate, copy.Similarity(a, b), 1e-12);
    }
  }
}

TEST_F(QueryEngineTest, PairSimilarityHandlesEdgeCases) {
  const BinaryMatrix matrix = PlantedMatrix(71);
  const QueryEngine engine(BuildIndex(matrix, EngineConfig()));
  auto self = engine.PairSimilarity(3, 3);
  ASSERT_TRUE(self.ok());
  EXPECT_DOUBLE_EQ(*self, 1.0);

  auto out_of_range = engine.PairSimilarity(0, matrix.num_cols());
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);

  auto bad_query = engine.TopK(matrix.num_cols(), 3);
  ASSERT_FALSE(bad_query.ok());
  auto bad_k = engine.TopK(0, 0);
  ASSERT_FALSE(bad_k.ok());
}

TEST_F(QueryEngineTest, BatchMatchesSequentialOnAnyPool) {
  const BinaryMatrix matrix = PlantedMatrix(83);
  const QueryEngine engine(BuildIndex(matrix, EngineConfig()));
  std::vector<ColumnId> cols;
  for (ColumnId c = 0; c < matrix.num_cols(); c += 7) cols.push_back(c);

  auto sequential = engine.BatchTopK(cols, 4, 0.0, nullptr);
  ASSERT_TRUE(sequential.ok());
  ASSERT_EQ(sequential->size(), cols.size());

  ThreadPool pool(4);
  auto parallel = engine.BatchTopK(cols, 4, 0.0, &pool);
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(parallel->size(), cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    EXPECT_EQ((*sequential)[i], (*parallel)[i]) << "query " << cols[i];
  }
}

}  // namespace
}  // namespace sans
