#include "serve/similarity_index.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <vector>

#include "data/synthetic_generator.h"
#include "matrix/row_stream.h"
#include "serve/query_engine.h"
#include "sketch/estimators.h"
#include "util/crc32c.h"
#include "util/endian.h"
#include "util/hashing.h"

namespace sans {
namespace {

class SimilarityIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sans_serve_index_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static int counter_;
  std::filesystem::path dir_;
};

int SimilarityIndexTest::counter_ = 0;

BinaryMatrix TestMatrix(uint64_t seed = 9) {
  SyntheticConfig config;
  config.num_rows = 400;
  config.num_cols = 50;
  config.bands = {{3, 70.0, 90.0}};
  config.spread_pairs = false;
  config.seed = seed;
  auto d = GenerateSynthetic(config);
  EXPECT_TRUE(d.ok());
  return std::move(d->matrix);
}

SimilarityIndexConfig SmallConfig() {
  SimilarityIndexConfig config;
  config.sketch_k = 48;
  config.seed = 21;
  return config;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Each posting mate of `col` with the number of times it was visited.
std::map<ColumnId, uint64_t> MateCounts(const SimilarityIndex& index,
                                        ColumnId col) {
  std::map<ColumnId, uint64_t> counts;
  index.ForEachPostingMate(col, [&](ColumnId j) { ++counts[j]; });
  return counts;
}

/// Brute force: every other column with the number of sketch values it
/// shares with `col`.
std::map<ColumnId, uint64_t> SharedValueCounts(const SimilarityIndex& index,
                                               ColumnId col) {
  std::map<ColumnId, uint64_t> counts;
  for (ColumnId j = 0; j < index.num_cols(); ++j) {
    if (j == col) continue;
    const uint64_t shared =
        SignatureIntersectionSize(index.sketch().Signature(col),
                                  index.sketch().Signature(j));
    if (shared > 0) counts[j] = shared;
  }
  return counts;
}

/// A hand-written version 1 file holding `index`'s sketches: the
/// band-era header fields and band arrays (arbitrary contents, as the
/// loader drops them) with a valid checksum trailer.
std::vector<char> V1Bytes(const SimilarityIndex& index) {
  constexpr uint32_t kRowsPerBand = 3;
  constexpr uint32_t kNumBands = 4;
  std::vector<char> bytes;
  const auto put32 = [&bytes](uint32_t v) {
    unsigned char b[4];
    EncodeLE32(v, b);
    bytes.insert(bytes.end(), b, b + 4);
  };
  const auto put64 = [&bytes](uint64_t v) {
    unsigned char b[8];
    EncodeLE64(v, b);
    bytes.insert(bytes.end(), b, b + 8);
  };
  const ColumnId m = index.num_cols();
  put32(kSimilarityIndexFormat.magic);
  put32(1);
  put32(static_cast<uint32_t>(index.sketch_k()));
  put32(kRowsPerBand);
  put32(kNumBands);
  put32(m);
  put32(index.num_rows());
  put32(static_cast<uint32_t>(index.family()));
  put64(index.seed());
  for (uint32_t band = 0; band < kNumBands; ++band) {
    for (ColumnId c = 0; c < m; ++c) put64(Mix64(band * m + c));
  }
  for (uint32_t band = 0; band < kNumBands; ++band) {
    for (ColumnId c = 0; c < m; ++c) put32(c);
  }
  for (ColumnId c = 0; c < m; ++c) {
    put64(index.sketch().ColumnCardinality(c));
    put32(static_cast<uint32_t>(index.sketch().Signature(c).size()));
    for (uint64_t value : index.sketch().Signature(c)) put64(value);
  }
  put32(Crc32cMask(Crc32cExtend(0, bytes.data(), bytes.size())));
  return bytes;
}

TEST_F(SimilarityIndexTest, BuildLoadRoundTrip) {
  const BinaryMatrix matrix = TestMatrix();
  const SimilarityIndexConfig config = SmallConfig();
  const std::string path = Path("t.sidx");
  ASSERT_TRUE(IndexBuilder(config)
                  .Build(InMemorySource(&matrix), path)
                  .ok());

  auto index = SimilarityIndex::Load(path);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->num_cols(), matrix.num_cols());
  EXPECT_EQ(index->num_rows(), matrix.num_rows());
  EXPECT_EQ(index->sketch_k(), config.sketch_k);
  EXPECT_EQ(index->seed(), config.seed);

  for (ColumnId c = 0; c < index->num_cols(); ++c) {
    EXPECT_EQ(index->sketch().ColumnCardinality(c),
              matrix.ColumnCardinality(c));
    const auto sketch = index->sketch().Signature(c);
    EXPECT_LE(sketch.size(), static_cast<size_t>(config.sketch_k));
    EXPECT_TRUE(std::is_sorted(sketch.begin(), sketch.end()));
  }
}

TEST_F(SimilarityIndexTest, LoadedIndexIsReusable) {
  const BinaryMatrix matrix = TestMatrix();
  const std::string path = Path("t.sidx");
  ASSERT_TRUE(IndexBuilder(SmallConfig())
                  .Build(InMemorySource(&matrix), path)
                  .ok());
  auto first = SimilarityIndex::Load(path);
  auto second = SimilarityIndex::Load(path);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  for (ColumnId c = 0; c < first->num_cols(); ++c) {
    const auto a = first->sketch().Signature(c);
    const auto b = second->sketch().Signature(c);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
}

TEST_F(SimilarityIndexTest, EmptyColumnsHaveNoPostingMates) {
  // Columns 3 and 7 are all-zero: no sketch values, so no mates, and
  // no other column counts them as a mate.
  std::vector<std::vector<ColumnId>> rows(20);
  for (RowId r = 0; r < 20; ++r) {
    for (ColumnId c = 0; c < 10; ++c) {
      if (c == 3 || c == 7) continue;
      if ((r + c) % 3 == 0) rows[r].push_back(c);
    }
  }
  auto built = BinaryMatrix::FromRows(20, 10, rows);
  ASSERT_TRUE(built.ok());
  const BinaryMatrix& matrix = *built;
  const std::string path = Path("empty.sidx");
  ASSERT_TRUE(IndexBuilder(SmallConfig())
                  .Build(InMemorySource(&matrix), path)
                  .ok());
  auto index = SimilarityIndex::Load(path);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->sketch().ColumnCardinality(3), 0u);
  EXPECT_EQ(index->sketch().Signature(3).size(), 0u);
  EXPECT_TRUE(MateCounts(*index, 3).empty());
  EXPECT_TRUE(MateCounts(*index, 7).empty());
  for (ColumnId c = 0; c < index->num_cols(); ++c) {
    const auto mates = MateCounts(*index, c);
    EXPECT_EQ(mates.count(3), 0u) << "column " << c;
    EXPECT_EQ(mates.count(7), 0u) << "column " << c;
  }
}

TEST_F(SimilarityIndexTest, PostingMatesShareASketchValue) {
  // Each column's mates are exactly the columns sharing at least one
  // of its sketch values, each visited once per shared value — on a
  // planted table and on one with identical columns (1 and 4), which
  // share every value.
  std::vector<std::vector<ColumnId>> rows(60);
  for (RowId r = 0; r < 60; ++r) {
    if (r % 5 == 0) rows[r].push_back(0);
    if (r % 2 == 0) rows[r].push_back(1);
    if (r % 3 == 0) rows[r].push_back(2);
    if (r % 2 == 0) rows[r].push_back(4);
  }
  auto built = BinaryMatrix::FromRows(60, 6, rows);
  ASSERT_TRUE(built.ok());
  const BinaryMatrix& duplicates = *built;
  const BinaryMatrix planted = TestMatrix();
  for (const BinaryMatrix* matrix : {&duplicates, &planted}) {
    const std::string path = Path("mates.sidx");
    ASSERT_TRUE(IndexBuilder(SmallConfig())
                    .Build(InMemorySource(matrix), path)
                    .ok());
    auto index = SimilarityIndex::Load(path);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    for (ColumnId c = 0; c < index->num_cols(); ++c) {
      EXPECT_EQ(MateCounts(*index, c), SharedValueCounts(*index, c))
          << "column " << c;
    }
    if (matrix == &duplicates) {
      EXPECT_EQ(MateCounts(*index, 1)[4],
                index->sketch().Signature(1).size());
    }
    // A posting per distinct sketch value; the longest holds the most
    // columns carrying one value.
    std::map<uint64_t, uint64_t> columns_per_value;
    uint64_t longest = 0;
    for (ColumnId c = 0; c < index->num_cols(); ++c) {
      for (uint64_t value : index->sketch().Signature(c)) {
        longest = std::max(longest, ++columns_per_value[value]);
      }
    }
    EXPECT_EQ(index->posting_stats().runs, columns_per_value.size());
    EXPECT_EQ(index->posting_stats().longest, longest);
  }
}

TEST_F(SimilarityIndexTest, HandWrittenV1FileAnswersLikeV2) {
  const BinaryMatrix matrix = TestMatrix();
  const std::string v2_path = Path("v2.sidx");
  ASSERT_TRUE(IndexBuilder(SmallConfig())
                  .Build(InMemorySource(&matrix), v2_path)
                  .ok());
  auto v2 = SimilarityIndex::Load(v2_path);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  const std::string v1_path = Path("v1.sidx");
  WriteAll(v1_path, V1Bytes(*v2));
  auto v1 = SimilarityIndex::Load(v1_path);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();

  EXPECT_EQ(v1->num_cols(), v2->num_cols());
  EXPECT_EQ(v1->num_rows(), v2->num_rows());
  EXPECT_EQ(v1->sketch_k(), v2->sketch_k());
  EXPECT_EQ(v1->family(), v2->family());
  EXPECT_EQ(v1->seed(), v2->seed());
  EXPECT_EQ(v1->posting_stats().runs, v2->posting_stats().runs);
  const QueryEngine v1_engine(
      std::make_shared<const SimilarityIndex>(std::move(*v1)));
  const QueryEngine v2_engine(
      std::make_shared<const SimilarityIndex>(std::move(*v2)));
  for (ColumnId c = 0; c < matrix.num_cols(); ++c) {
    const auto a = v1_engine.index().sketch().Signature(c);
    const auto b = v2_engine.index().sketch().Signature(c);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    EXPECT_EQ(v1_engine.index().sketch().ColumnCardinality(c),
              v2_engine.index().sketch().ColumnCardinality(c));
    auto v1_answer = v1_engine.TopK(c, 6);
    auto v2_answer = v2_engine.TopK(c, 6);
    ASSERT_TRUE(v1_answer.ok());
    ASSERT_TRUE(v2_answer.ok());
    EXPECT_EQ(*v1_answer, *v2_answer) << "column " << c;
  }

  // The dropped band arrays are still under the checksum.
  std::vector<char> flipped = ReadAll(v1_path);
  flipped[48] = static_cast<char>(flipped[48] ^ 0x01);
  WriteAll(v1_path, flipped);
  auto corrupted = SimilarityIndex::Load(v1_path);
  ASSERT_FALSE(corrupted.ok());
  EXPECT_EQ(corrupted.status().code(), StatusCode::kCorruption);
}

TEST_F(SimilarityIndexTest, MissingFileIsIOError) {
  auto index = SimilarityIndex::Load(Path("nope.sidx"));
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kIOError);
}

TEST_F(SimilarityIndexTest, BadMagicRejected) {
  const std::string path = Path("garbage.sidx");
  WriteAll(path, std::vector<char>(256, 'x'));
  auto index = SimilarityIndex::Load(path);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kCorruption);
}

TEST_F(SimilarityIndexTest, BitFlipsRejectedByChecksum) {
  const BinaryMatrix matrix = TestMatrix();
  const std::string path = Path("full.sidx");
  ASSERT_TRUE(IndexBuilder(SmallConfig())
                  .Build(InMemorySource(&matrix), path)
                  .ok());
  const std::vector<char> bytes = ReadAll(path);
  for (const size_t offset :
       {bytes.size() / 3, bytes.size() / 2, bytes.size() - 5}) {
    std::vector<char> corrupted = bytes;
    corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x40);
    const std::string flipped = Path("flip.sidx");
    WriteAll(flipped, corrupted);
    auto index = SimilarityIndex::Load(flipped);
    ASSERT_FALSE(index.ok()) << "flip at " << offset << " loaded";
    EXPECT_EQ(index.status().code(), StatusCode::kCorruption);
  }
}

TEST_F(SimilarityIndexTest, ConfigValidateRejectsBadShapes) {
  SimilarityIndexConfig config = SmallConfig();
  config.sketch_k = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.sketch_k = (1 << 24) + 1;
  EXPECT_FALSE(config.Validate().ok());
  EXPECT_TRUE(SmallConfig().Validate().ok());
}

}  // namespace
}  // namespace sans
