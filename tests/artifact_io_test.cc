// The checksummed artifact container and the bottom-k sketch codec,
// over all five readers: signature matrix, bottom-k sketch, candidate
// set, verified pairs and the .sidx index (v1 and v2). Every corruption
// must come back as kCorruption from the reader, never as an abort or
// an allocation sized by a forged header.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "candgen/candidate_io.h"
#include "matrix/binary_matrix.h"
#include "matrix/row_stream.h"
#include "mine/parallel.h"
#include "serve/similarity_index.h"
#include "sketch/sketch_io.h"
#include "sketch/sketch_kernels.h"
#include "util/crc32c.h"
#include "util/endian.h"
#include "util/hashing.h"

namespace sans {
namespace {

using Bytes = std::vector<char>;

class ArtifactIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sans_artifact_io_" + std::to_string(::getpid()) + "_" +
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

int ArtifactIoTest::counter_ = 0;

Bytes ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteAll(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void Put32(Bytes* bytes, uint32_t v) {
  unsigned char b[4];
  EncodeLE32(v, b);
  bytes->insert(bytes->end(), b, b + 4);
}

void Put64(Bytes* bytes, uint64_t v) {
  unsigned char b[8];
  EncodeLE64(v, b);
  bytes->insert(bytes->end(), b, b + 8);
}

uint32_t Get32(const Bytes& bytes, size_t at) {
  return DecodeLE32(reinterpret_cast<const unsigned char*>(&bytes[at]));
}

void Set32(Bytes* bytes, size_t at, uint32_t v) {
  EncodeLE32(v, reinterpret_cast<unsigned char*>(&(*bytes)[at]));
}

void Set64(Bytes* bytes, size_t at, uint64_t v) {
  EncodeLE64(v, reinterpret_cast<unsigned char*>(&(*bytes)[at]));
}

/// Appends the masked CRC32C of everything before it.
void PutTrailer(Bytes* bytes) {
  Put32(bytes, Crc32cMask(Crc32cExtend(0, bytes->data(), bytes->size())));
}

/// Recomputes the trailer after an edit, so only the reader's
/// structural checks can catch the edit.
void Reseal(Bytes* bytes) {
  bytes->resize(bytes->size() - 4);
  PutTrailer(bytes);
}

/// Rewrites the version to 1 and drops the trailer: what a writer
/// before the trailer emitted.
Bytes DowngradeToV1(Bytes bytes) {
  Set32(&bytes, 4, 1);
  bytes.resize(bytes.size() - 4);
  return bytes;
}

// A 12-row table with an empty column and sketches that hold several
// values per column (k = 4).
BinaryMatrix TestMatrix() {
  std::vector<std::vector<ColumnId>> rows(12);
  for (RowId r = 0; r < 12; ++r) {
    if (r % 2 == 0) rows[r].push_back(0);
    if (r % 3 == 0) rows[r].push_back(1);
    if (r % 4 != 3) rows[r].push_back(3);
  }
  auto matrix = BinaryMatrix::FromRows(12, 4, rows);
  EXPECT_TRUE(matrix.ok());
  return std::move(matrix).value();
}

KMinHashSketch TestSketch(const BinaryMatrix& matrix) {
  KMinHashConfig config;
  config.k = 4;
  config.seed = 3;
  return ComputeKMinHashParallel(InMemorySource(&matrix), config,
                                 ExecutionConfig{}, nullptr)
      .value();
}

/// The .sidx v1 layout of `sketch`: band-era header fields and band
/// arrays (the loader drops them) with a valid trailer.
Bytes SidxV1Bytes(const KMinHashSketch& sketch) {
  constexpr uint32_t kNumBands = 2;
  Bytes bytes;
  Put32(&bytes, kSimilarityIndexFormat.magic);
  Put32(&bytes, 1);
  Put32(&bytes, static_cast<uint32_t>(sketch.k()));
  Put32(&bytes, 3);  // rows_per_band
  Put32(&bytes, kNumBands);
  Put32(&bytes, sketch.num_cols());
  Put32(&bytes, 12);  // num_rows
  Put32(&bytes, 0);   // family
  Put64(&bytes, 5);   // seed
  for (uint32_t i = 0; i < kNumBands * sketch.num_cols(); ++i) Put64(&bytes, i);
  for (uint32_t i = 0; i < kNumBands * sketch.num_cols(); ++i) Put32(&bytes, i);
  for (ColumnId c = 0; c < sketch.num_cols(); ++c) {
    Put64(&bytes, sketch.ColumnCardinality(c));
    Put32(&bytes, static_cast<uint32_t>(sketch.Signature(c).size()));
    for (uint64_t value : sketch.Signature(c)) Put64(&bytes, value);
  }
  PutTrailer(&bytes);
  return bytes;
}

/// One artifact as its writer emitted it, with what the table needs to
/// know of its layout.
struct Artifact {
  std::string name;
  Bytes bytes;
  std::function<Status(const std::string&)> read;
  bool has_trailer;
  /// Offsets of the u32 / u64 header counts.
  std::vector<size_t> counts32;
  std::vector<size_t> counts64;
  /// Offset of the first sketch column, or 0 for no sketch section.
  size_t sketch_columns = 0;
};

template <typename ReadFn>
std::function<Status(const std::string&)> StatusOf(ReadFn read) {
  return [read](const std::string& path) { return read(path).status(); };
}

std::vector<Artifact> AllArtifacts(const std::string& scratch) {
  const BinaryMatrix matrix = TestMatrix();
  const KMinHashSketch sketch = TestSketch(matrix);
  std::vector<Artifact> artifacts;

  MinHashConfig mh;
  mh.num_hashes = 3;
  const SignatureMatrix signatures =
      ComputeMinHashParallel(InMemorySource(&matrix), mh, ExecutionConfig{},
                             nullptr)
          .value();
  EXPECT_TRUE(WriteSignatureMatrix(signatures, scratch).ok());
  const auto read_signatures = StatusOf(ReadSignatureMatrix);
  artifacts.push_back({"signature v2", ReadAll(scratch), read_signatures, true,
                       {8, 12}, {}});
  artifacts.push_back({"signature v1", DowngradeToV1(ReadAll(scratch)),
                       read_signatures, false, {8, 12}, {}});

  EXPECT_TRUE(WriteKMinHashSketch(sketch, scratch).ok());
  const auto read_sketch = StatusOf(ReadKMinHashSketch);
  // Column 0's size follows its cardinality at 16.
  artifacts.push_back({"sketch v2", ReadAll(scratch), read_sketch, true,
                       {8, 12, 24}, {}, 16});
  artifacts.push_back({"sketch v1", DowngradeToV1(ReadAll(scratch)),
                       read_sketch, false, {8, 12, 24}, {}, 16});

  EXPECT_TRUE(WriteCandidateSet(CandidateSet({{ColumnPair(0, 2), 7},
                                              {ColumnPair(1, 3), 2}}),
                                scratch)
                  .ok());
  artifacts.push_back({"candidate set", ReadAll(scratch),
                       StatusOf(ReadCandidateSet), true, {}, {8}});

  EXPECT_TRUE(WriteSimilarPairs({{ColumnPair(0, 2), 0.75},
                                 {ColumnPair(1, 3), 0.5}},
                                scratch)
                  .ok());
  artifacts.push_back({"verified pairs", ReadAll(scratch),
                       StatusOf(ReadSimilarPairs), true, {}, {8}});

  SimilarityIndexConfig index;
  index.sketch_k = 4;
  EXPECT_TRUE(IndexBuilder(index).Build(InMemorySource(&matrix), scratch).ok());
  const auto read_index = StatusOf(SimilarityIndex::Load);
  artifacts.push_back({".sidx v2", ReadAll(scratch), read_index, true,
                       {8, 12, 40}, {}, 32});
  const size_t v1_columns = 40 + 2 * 4 * 12;
  artifacts.push_back({".sidx v1", SidxV1Bytes(sketch), read_index, true,
                       {8, 12, 16, 20, v1_columns + 8}, {}, v1_columns});
  return artifacts;
}

Status ReadBytes(const Artifact& artifact, const Bytes& bytes,
                 const std::string& path) {
  WriteAll(path, bytes);
  return artifact.read(path);
}

TEST_F(ArtifactIoTest, EveryReaderRejectsCorruptionAsCorruption) {
  const std::string path = Path("artifact");
  for (const Artifact& artifact : AllArtifacts(Path("scratch"))) {
    SCOPED_TRACE(artifact.name);
    ASSERT_TRUE(ReadBytes(artifact, artifact.bytes, path).ok());

    // Truncation at every prefix.
    for (size_t cut = 0; cut < artifact.bytes.size(); ++cut) {
      const Bytes prefix(artifact.bytes.begin(), artifact.bytes.begin() + cut);
      EXPECT_EQ(ReadBytes(artifact, prefix, path).code(),
                StatusCode::kCorruption)
          << "prefix of " << cut << " bytes";
    }

    // Each header count at its type's maximum, resealed so that only
    // the size bound can catch it.
    for (const size_t at : artifact.counts32) {
      Bytes inflated = artifact.bytes;
      Set32(&inflated, at, UINT32_MAX);
      if (artifact.has_trailer) Reseal(&inflated);
      EXPECT_EQ(ReadBytes(artifact, inflated, path).code(),
                StatusCode::kCorruption)
          << "u32 count at " << at;
    }
    for (const size_t at : artifact.counts64) {
      Bytes inflated = artifact.bytes;
      Set64(&inflated, at, UINT64_MAX);
      if (artifact.has_trailer) Reseal(&inflated);
      EXPECT_EQ(ReadBytes(artifact, inflated, path).code(),
                StatusCode::kCorruption)
          << "u64 count at " << at;
    }

    // An out-of-order sketch value: swap the first two values of the
    // first column holding two.
    if (artifact.sketch_columns > 0) {
      size_t at = artifact.sketch_columns;
      while (Get32(artifact.bytes, at + 8) < 2) {
        at += 12 + 8 * size_t{Get32(artifact.bytes, at + 8)};
      }
      Bytes swapped = artifact.bytes;
      std::swap_ranges(swapped.begin() + at + 12, swapped.begin() + at + 20,
                       swapped.begin() + at + 20);
      if (artifact.has_trailer) Reseal(&swapped);
      EXPECT_EQ(ReadBytes(artifact, swapped, path).code(),
                StatusCode::kCorruption);
    }

    // A flip of any single byte fails the checksum, if nothing before.
    if (artifact.has_trailer) {
      for (size_t at = 0; at < artifact.bytes.size(); ++at) {
        Bytes flipped = artifact.bytes;
        flipped[at] = static_cast<char>(flipped[at] ^ 0x40);
        EXPECT_EQ(ReadBytes(artifact, flipped, path).code(),
                  StatusCode::kCorruption)
            << "flip at " << at;
      }
    }
  }

  // 16-byte headers whose counts would each ask for tens of gigabytes.
  Bytes sketch_header;
  Put32(&sketch_header, kSketchFileFormat.magic);
  Put32(&sketch_header, 2);
  Put32(&sketch_header, 4);            // k
  Put32(&sketch_header, 0xF0000000u);  // m
  WriteAll(path, sketch_header);
  EXPECT_EQ(ReadKMinHashSketch(path).status().code(), StatusCode::kCorruption);
  Bytes signature_header;
  Put32(&signature_header, kSignatureFileFormat.magic);
  Put32(&signature_header, 2);
  Put32(&signature_header, 65536);    // k
  Put32(&signature_header, 1u << 20);  // m
  WriteAll(path, signature_header);
  EXPECT_EQ(ReadSignatureMatrix(path).status().code(),
            StatusCode::kCorruption);
}

// The sketch codec's bytes, assembled by hand: 3 columns, one of them
// empty.
Bytes SketchColumnBytes(const std::vector<std::vector<uint64_t>>& columns,
                        const std::vector<uint64_t>& cardinalities) {
  Bytes bytes;
  for (size_t c = 0; c < columns.size(); ++c) {
    Put64(&bytes, cardinalities[c]);
    Put32(&bytes, static_cast<uint32_t>(columns[c].size()));
    for (uint64_t value : columns[c]) Put64(&bytes, value);
  }
  return bytes;
}

TEST_F(ArtifactIoTest, SketchFileWriterEmitsTheDocumentedBytes) {
  const std::vector<std::vector<uint64_t>> columns = {{3, 7}, {}, {2, 9, 40}};
  const std::vector<uint64_t> cardinalities = {2, 0, 11};
  KMinHashSketch sketch(3, 3);
  for (ColumnId c = 0; c < 3; ++c) {
    ASSERT_TRUE(sketch.SetColumn(c, columns[c], cardinalities[c]).ok());
  }

  Bytes expected;
  Put32(&expected, 0x48434b53u);  // "SKCH"
  Put32(&expected, 2);            // version
  Put32(&expected, 3);            // k
  Put32(&expected, 3);            // m
  const Bytes body = SketchColumnBytes(columns, cardinalities);
  expected.insert(expected.end(), body.begin(), body.end());
  PutTrailer(&expected);

  const std::string path = Path("three.sketch");
  ASSERT_TRUE(WriteKMinHashSketch(sketch, path).ok());
  EXPECT_EQ(ReadAll(path), expected);
}

TEST_F(ArtifactIoTest, IndexWriterEmitsTheDocumentedBytes) {
  // Column 0 holds rows {0, 2}, column 1 none, column 2 rows {1, 2, 3};
  // with k = 2 column 2 keeps the two smallest of its three hashes.
  auto matrix = BinaryMatrix::FromRows(4, 3, {{0}, {2}, {0, 2}, {2}});
  ASSERT_TRUE(matrix.ok());
  SimilarityIndexConfig config;
  config.sketch_k = 2;
  config.seed = 17;
  // The sketch hash is keyed by a mix of the index seed.
  const RowHasher hasher(HashFamily::kSplitMix64,
                         Mix64(config.seed ^ 0x736b6574636869ULL));
  const auto bottom = [&](std::vector<RowId> rows) {
    std::vector<uint64_t> values;
    for (RowId r : rows) values.push_back(HashRowClamped(hasher, r));
    std::sort(values.begin(), values.end());
    values.resize(std::min<size_t>(values.size(), 2));
    return values;
  };

  Bytes expected;
  Put32(&expected, 0x58444953u);  // "SIDX"
  Put32(&expected, 2);            // version
  Put32(&expected, 2);            // sketch_k
  Put32(&expected, 3);            // num_cols
  Put32(&expected, 4);            // num_rows
  Put32(&expected, 0);            // family: splitmix64
  Put64(&expected, 17);           // seed
  const Bytes body =
      SketchColumnBytes({bottom({0, 2}), {}, bottom({1, 2, 3})}, {2, 0, 3});
  expected.insert(expected.end(), body.begin(), body.end());
  PutTrailer(&expected);

  const std::string path = Path("three.sidx");
  ASSERT_TRUE(IndexBuilder(config).Build(InMemorySource(&*matrix), path).ok());
  EXPECT_EQ(ReadAll(path), expected);
}

}  // namespace
}  // namespace sans
