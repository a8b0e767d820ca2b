#include "serve/similarity_index.h"

#include <algorithm>
#include <cstdio>

#include "candgen/hash_count.h"
#include "mine/parallel.h"
#include "sketch/k_min_hash.h"
#include "util/checksum_io.h"

namespace sans {
namespace {

// The band-era format, still loadable (see the header).
constexpr uint32_t kSimilarityIndexVersionWithBands = 1;

// Hard caps on header-declared dimensions, checked before any
// dimension-sized allocation so a corrupted header cannot drive an
// out-of-memory instead of a clean kCorruption.
constexpr uint32_t kMaxSketchK = 1u << 24;
constexpr uint32_t kMaxRowsPerBand = 1u << 10;
constexpr uint32_t kMaxBands = 1u << 16;
constexpr uint32_t kMaxCols = 1u << 28;

// Reads `size` bytes through the checksum and drops them.
Status SkipBytes(CrcFile* f, uint64_t size) {
  std::vector<unsigned char> buffer(std::min<uint64_t>(size, 1 << 16));
  while (size > 0) {
    const size_t n = std::min<uint64_t>(size, buffer.size());
    SANS_RETURN_IF_ERROR(f->Read(buffer.data(), n));
    size -= n;
  }
  return Status::OK();
}

}  // namespace

Status SimilarityIndexConfig::Validate() const {
  if (sketch_k <= 0 || static_cast<uint32_t>(sketch_k) > kMaxSketchK) {
    return Status::InvalidArgument("sketch_k out of range");
  }
  SANS_RETURN_IF_ERROR(execution.Validate());
  return Status::OK();
}

IndexBuilder::IndexBuilder(const SimilarityIndexConfig& config)
    : config_(config) {
  SANS_CHECK(config.Validate().ok());
}

Status IndexBuilder::Build(const RowStreamSource& source,
                           const std::string& out_path) const {
  // A null pool (the default single-thread config) runs one inline
  // worker, and the output is bit-identical for any thread count, so
  // the index bytes do not depend on config_.execution.
  const std::unique_ptr<ThreadPool> pool = MaybeCreatePool(config_.execution);

  // The sketch seed is a mix of config_.seed, the same one v1 builds
  // used, so a v2 index of a table answers exactly as its v1 index did.
  KMinHashConfig kmh;
  kmh.k = config_.sketch_k;
  kmh.family = config_.family;
  kmh.seed = Mix64(config_.seed ^ 0x736b6574636869ULL);
  SANS_ASSIGN_OR_RETURN(
      KMinHashSketch sketch,
      ComputeKMinHashParallel(source, kmh, config_.execution, pool.get()));

  const ColumnId m = source.num_cols();
  if (m > kMaxCols) {
    return Status::InvalidArgument("too many columns for the index format");
  }

  File file(std::fopen(out_path.c_str(), "wb"));
  if (file == nullptr) {
    return Status::IOError("cannot open for writing: " + out_path);
  }
  CrcFile f{file.get()};
  SANS_RETURN_IF_ERROR(f.WriteScalar(kSimilarityIndexMagic));
  SANS_RETURN_IF_ERROR(f.WriteScalar(kSimilarityIndexVersion));
  SANS_RETURN_IF_ERROR(f.WriteScalar(static_cast<uint32_t>(config_.sketch_k)));
  SANS_RETURN_IF_ERROR(f.WriteScalar(m));
  SANS_RETURN_IF_ERROR(f.WriteScalar(source.num_rows()));
  SANS_RETURN_IF_ERROR(f.WriteScalar(static_cast<uint32_t>(config_.family)));
  SANS_RETURN_IF_ERROR(f.WriteScalar(config_.seed));

  // Sketches.
  for (ColumnId c = 0; c < m; ++c) {
    SANS_RETURN_IF_ERROR(f.WriteScalar(sketch.ColumnCardinality(c)));
    const auto sig = sketch.Signature(c);
    SANS_RETURN_IF_ERROR(f.WriteScalar(static_cast<uint32_t>(sig.size())));
    SANS_RETURN_IF_ERROR(f.Write(sig.data(), sig.size() * sizeof(uint64_t)));
  }
  return f.WriteTrailer();
}

Result<SimilarityIndex> SimilarityIndex::Load(const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::IOError("cannot open for reading: " + path);
  }
  // File size bounds every header-declared dimension below.
  if (std::fseek(file.get(), 0, SEEK_END) != 0) {
    return Status::IOError("cannot seek: " + path);
  }
  const long file_size = std::ftell(file.get());
  if (file_size < 0) {
    return Status::IOError("cannot tell: " + path);
  }
  if (std::fseek(file.get(), 0, SEEK_SET) != 0) {
    return Status::IOError("cannot seek: " + path);
  }

  CrcFile f{file.get()};
  uint32_t magic = 0;
  uint32_t version = 0;
  SANS_RETURN_IF_ERROR(f.ReadScalar(&magic));
  if (magic != kSimilarityIndexMagic) {
    return Status::Corruption("bad magic: not a similarity index file");
  }
  SANS_RETURN_IF_ERROR(f.ReadScalar(&version));
  if (version != kSimilarityIndexVersion &&
      version != kSimilarityIndexVersionWithBands) {
    return Status::Corruption("unsupported similarity index version");
  }
  const bool with_bands = version == kSimilarityIndexVersionWithBands;

  SimilarityIndex index;
  uint32_t sketch_k = 0;
  uint32_t rows_per_band = 0;
  uint32_t num_bands = 0;
  uint32_t family = 0;
  SANS_RETURN_IF_ERROR(f.ReadScalar(&sketch_k));
  if (with_bands) {
    SANS_RETURN_IF_ERROR(f.ReadScalar(&rows_per_band));
    SANS_RETURN_IF_ERROR(f.ReadScalar(&num_bands));
    if (rows_per_band == 0 || rows_per_band > kMaxRowsPerBand ||
        num_bands == 0 || num_bands > kMaxBands) {
      return Status::Corruption("similarity index header out of range");
    }
  }
  SANS_RETURN_IF_ERROR(f.ReadScalar(&index.num_cols_));
  SANS_RETURN_IF_ERROR(f.ReadScalar(&index.num_rows_));
  SANS_RETURN_IF_ERROR(f.ReadScalar(&family));
  SANS_RETURN_IF_ERROR(f.ReadScalar(&index.seed_));
  if (sketch_k == 0 || sketch_k > kMaxSketchK || index.num_cols_ > kMaxCols ||
      family > static_cast<uint32_t>(HashFamily::kTabulation)) {
    return Status::Corruption("similarity index header out of range");
  }
  index.sketch_k_ = static_cast<int>(sketch_k);
  index.family_ = static_cast<HashFamily>(family);

  const uint64_t m = index.num_cols_;
  // v1's band keys (u64) and bucket arrays (u32), one per band and
  // column.
  const uint64_t band_bytes = uint64_t{num_bands} * m * 12;
  // Minimum bytes the header implies; a header inflated by corruption
  // fails here instead of allocating.
  const uint64_t header_bytes = with_bands ? 40 : 32;
  const uint64_t min_bytes = header_bytes + band_bytes + m * 12 + 4;
  if (static_cast<uint64_t>(file_size) < min_bytes) {
    return Status::Corruption("similarity index truncated");
  }
  SANS_RETURN_IF_ERROR(SkipBytes(&f, band_bytes));

  index.sketch_offsets_.reserve(m + 1);
  index.sketch_offsets_.push_back(0);
  index.cardinalities_.reserve(m);
  for (uint64_t c = 0; c < m; ++c) {
    uint64_t cardinality = 0;
    uint32_t size = 0;
    SANS_RETURN_IF_ERROR(f.ReadScalar(&cardinality));
    SANS_RETURN_IF_ERROR(f.ReadScalar(&size));
    if (size > sketch_k) {
      return Status::Corruption("sketch signature larger than k");
    }
    if (cardinality < size) {
      return Status::Corruption("sketch cardinality below signature size");
    }
    if ((size == 0) != (cardinality == 0)) {
      return Status::Corruption("empty sketch with nonzero cardinality");
    }
    const size_t begin = index.sketch_values_.size();
    index.sketch_values_.resize(begin + size);
    SANS_RETURN_IF_ERROR(
        f.Read(index.sketch_values_.data() + begin, size * sizeof(uint64_t)));
    for (size_t i = begin + 1; i < begin + size; ++i) {
      if (index.sketch_values_[i] <= index.sketch_values_[i - 1]) {
        return Status::Corruption("sketch signature not strictly ascending");
      }
    }
    index.sketch_offsets_.push_back(index.sketch_values_.size());
    index.cardinalities_.push_back(cardinality);
  }
  SANS_RETURN_IF_ERROR(f.VerifyTrailer("similarity index"));

  index.postings_.emplace(KMinHashBuckets(
      index.num_cols_, index.sketch_values_.size(),
      [&index](ColumnId c) { return index.Sketch(c); }));
  return index;
}

}  // namespace sans
