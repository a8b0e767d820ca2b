#include "sketch/sketch_io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "data/synthetic_generator.h"
#include "matrix/row_stream.h"
#include "mine/parallel.h"
#include "sketch/min_hash.h"

namespace sans {
namespace {

class SketchIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sans_sketch_io_" + std::to_string(::getpid()) + "_" +
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

int SketchIoTest::counter_ = 0;

BinaryMatrix TestMatrix() {
  SyntheticConfig config;
  config.num_rows = 300;
  config.num_cols = 40;
  config.bands = {{2, 70.0, 90.0}};
  config.spread_pairs = false;
  config.seed = 9;
  auto d = GenerateSynthetic(config);
  EXPECT_TRUE(d.ok());
  return std::move(d->matrix);
}

TEST_F(SketchIoTest, SignatureMatrixRoundTrips) {
  const BinaryMatrix m = TestMatrix();
  MinHashConfig config;
  config.num_hashes = 12;
  config.seed = 5;
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto signatures = generator.Compute(&stream);
  ASSERT_TRUE(signatures.ok());

  const std::string path = Path("sig.sans");
  ASSERT_TRUE(WriteSignatureMatrix(*signatures, path).ok());
  auto loaded = ReadSignatureMatrix(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_hashes(), 12);
  ASSERT_EQ(loaded->num_cols(), 40u);
  for (int l = 0; l < 12; ++l) {
    for (ColumnId c = 0; c < 40; ++c) {
      EXPECT_EQ(loaded->Value(l, c), signatures->Value(l, c));
    }
  }
}

TEST_F(SketchIoTest, SketchRoundTrips) {
  const BinaryMatrix m = TestMatrix();
  KMinHashConfig config;
  config.k = 8;
  config.seed = 7;
  auto sketch = ComputeKMinHashParallel(
      InMemorySource(&m), config, ExecutionConfig{}, nullptr);
  ASSERT_TRUE(sketch.ok());

  const std::string path = Path("sketch.sans");
  ASSERT_TRUE(WriteKMinHashSketch(*sketch, path).ok());
  auto loaded = ReadKMinHashSketch(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->k(), 8);
  ASSERT_EQ(loaded->num_cols(), 40u);
  for (ColumnId c = 0; c < 40; ++c) {
    const auto a = sketch->Signature(c);
    const auto b = loaded->Signature(c);
    EXPECT_EQ(std::vector<uint64_t>(a.begin(), a.end()),
              std::vector<uint64_t>(b.begin(), b.end()));
    EXPECT_EQ(loaded->ColumnCardinality(c),
              sketch->ColumnCardinality(c));
  }
}

TEST_F(SketchIoTest, WrongMagicRejected) {
  // A signature file is not a sketch file and vice versa.
  const BinaryMatrix m = TestMatrix();
  MinHashConfig config;
  config.num_hashes = 4;
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto signatures = generator.Compute(&stream);
  ASSERT_TRUE(signatures.ok());
  const std::string path = Path("sig.sans");
  ASSERT_TRUE(WriteSignatureMatrix(*signatures, path).ok());
  auto as_sketch = ReadKMinHashSketch(path);
  EXPECT_FALSE(as_sketch.ok());
  EXPECT_EQ(as_sketch.status().code(), StatusCode::kCorruption);
}

void FlipByte(const std::string& path, long offset, char mask) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(offset);
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(offset);
  byte = static_cast<char>(byte ^ mask);
  f.write(&byte, 1);
}

/// Rewrites the version field (offset 4) to 1 and drops the 4-byte
/// trailer, producing exactly what a pre-checksum writer emitted.
void DowngradeToV1(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  const uint32_t v1 = 1;
  f.seekp(4);
  f.write(reinterpret_cast<const char*>(&v1), sizeof(v1));
  f.close();
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 4);
}

TEST_F(SketchIoTest, SignatureBitFlipCaughtByChecksum) {
  const BinaryMatrix m = TestMatrix();
  MinHashConfig config;
  config.num_hashes = 6;
  config.seed = 5;
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto signatures = generator.Compute(&stream);
  ASSERT_TRUE(signatures.ok());
  const std::string path = Path("sig.sans");
  ASSERT_TRUE(WriteSignatureMatrix(*signatures, path).ok());
  // Offset 16 is the first hash value: any value parses as valid
  // payload, so only the checksum can notice the flip.
  FlipByte(path, 16, 0x01);
  auto loaded = ReadSignatureMatrix(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(SketchIoTest, SketchBitFlipCaughtByChecksum) {
  const BinaryMatrix m = TestMatrix();
  KMinHashConfig config;
  config.k = 8;
  config.seed = 7;
  auto sketch = ComputeKMinHashParallel(
      InMemorySource(&m), config, ExecutionConfig{}, nullptr);
  ASSERT_TRUE(sketch.ok());
  const std::string path = Path("sketch.sans");
  ASSERT_TRUE(WriteKMinHashSketch(*sketch, path).ok());
  // High byte of column 0's cardinality (u64 at offset 16): the
  // corrupted value still satisfies every structural check.
  FlipByte(path, 22, 0x01);
  auto loaded = ReadKMinHashSketch(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(SketchIoTest, VersionOneSignatureFileStillLoads) {
  const BinaryMatrix m = TestMatrix();
  MinHashConfig config;
  config.num_hashes = 6;
  config.seed = 5;
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto signatures = generator.Compute(&stream);
  ASSERT_TRUE(signatures.ok());
  const std::string path = Path("sig_v1.sans");
  ASSERT_TRUE(WriteSignatureMatrix(*signatures, path).ok());
  DowngradeToV1(path);
  auto loaded = ReadSignatureMatrix(path);
  ASSERT_TRUE(loaded.ok());
  for (int l = 0; l < 6; ++l) {
    for (ColumnId c = 0; c < loaded->num_cols(); ++c) {
      EXPECT_EQ(loaded->Value(l, c), signatures->Value(l, c));
    }
  }
}

TEST_F(SketchIoTest, VersionOneSketchFileStillLoads) {
  const BinaryMatrix m = TestMatrix();
  KMinHashConfig config;
  config.k = 8;
  config.seed = 7;
  auto sketch = ComputeKMinHashParallel(
      InMemorySource(&m), config, ExecutionConfig{}, nullptr);
  ASSERT_TRUE(sketch.ok());
  const std::string path = Path("sketch_v1.sans");
  ASSERT_TRUE(WriteKMinHashSketch(*sketch, path).ok());
  DowngradeToV1(path);
  auto loaded = ReadKMinHashSketch(path);
  ASSERT_TRUE(loaded.ok());
  for (ColumnId c = 0; c < loaded->num_cols(); ++c) {
    const auto a = sketch->Signature(c);
    const auto b = loaded->Signature(c);
    EXPECT_EQ(std::vector<uint64_t>(a.begin(), a.end()),
              std::vector<uint64_t>(b.begin(), b.end()));
  }
}

TEST_F(SketchIoTest, MissingFileIsIOError) {
  EXPECT_EQ(ReadSignatureMatrix(Path("nope")).status().code(),
            StatusCode::kIOError);
  EXPECT_EQ(ReadKMinHashSketch(Path("nope")).status().code(),
            StatusCode::kIOError);
}

TEST(KMinHashSketchSetColumnTest, ValidatesInput) {
  using Values = std::vector<uint64_t>;
  const auto set = [](ColumnId col, const Values& values,
                      uint64_t cardinality) {
    KMinHashSketch sketch(4, 3);
    return sketch.SetColumn(col, values, cardinality).ok();
  };
  EXPECT_TRUE(set(0, {1, 2, 3}, 3));
  EXPECT_TRUE(set(2, {}, 0));
  EXPECT_FALSE(set(5, {1}, 1));              // range
  EXPECT_FALSE(set(0, {1, 2, 3, 4, 5}, 9));  // > k
  EXPECT_FALSE(set(0, {3, 2}, 2));           // unsorted
  EXPECT_FALSE(set(0, {2, 2}, 2));           // duplicate
  EXPECT_FALSE(set(0, {1, 2}, 1));           // card < size
  EXPECT_FALSE(set(0, {}, 4));               // empty, card > 0
}

TEST(KMinHashSketchSetColumnTest, ColumnsInstallInAscendingOrder) {
  KMinHashSketch sketch(4, 3);
  ASSERT_TRUE(sketch.SetColumn(1, std::vector<uint64_t>{5, 9}, 2).ok());
  EXPECT_FALSE(sketch.SetColumn(1, std::vector<uint64_t>{1}, 1).ok());
  EXPECT_FALSE(sketch.SetColumn(0, std::vector<uint64_t>{1}, 1).ok());
  ASSERT_TRUE(sketch.SetColumn(2, std::vector<uint64_t>{7}, 6).ok());
  // Column 0 was skipped: it stays empty.
  EXPECT_TRUE(sketch.Signature(0).empty());
  EXPECT_EQ(sketch.ColumnCardinality(0), 0u);
  EXPECT_EQ(std::vector<uint64_t>(sketch.Signature(1).begin(),
                                  sketch.Signature(1).end()),
            (std::vector<uint64_t>{5, 9}));
  EXPECT_EQ(sketch.Signature(2).front(), 7u);
  EXPECT_EQ(sketch.ColumnCardinality(2), 6u);
  EXPECT_EQ(sketch.TotalSignatureSize(), 3u);
}

}  // namespace
}  // namespace sans
