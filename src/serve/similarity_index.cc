#include "serve/similarity_index.h"

#include <utility>
#include <vector>

#include "candgen/hash_count.h"
#include "mine/parallel.h"
#include "sketch/sketch_io.h"

namespace sans {
namespace {

// The band-era format, still loadable (see the header).
constexpr uint32_t kSimilarityIndexVersionWithBands = 1;
constexpr uint32_t kMaxRowsPerBand = 1u << 10;
constexpr uint32_t kMaxBands = 1u << 16;

}  // namespace

Status SimilarityIndexConfig::Validate() const {
  if (sketch_k <= 0 || sketch_k > kMaxSketchK) {
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
      const KMinHashSketch sketch,
      ComputeKMinHashParallel(source, kmh, config_.execution, pool.get()));

  SANS_ASSIGN_OR_RETURN(
      ArtifactWriter out,
      ArtifactWriter::Create(out_path, kSimilarityIndexFormat));
  SANS_RETURN_IF_ERROR(out.WriteScalar(static_cast<uint32_t>(sketch.k())));
  SANS_RETURN_IF_ERROR(out.WriteScalar(sketch.num_cols()));
  SANS_RETURN_IF_ERROR(out.WriteScalar(source.num_rows()));
  SANS_RETURN_IF_ERROR(out.WriteScalar(static_cast<uint32_t>(config_.family)));
  SANS_RETURN_IF_ERROR(out.WriteScalar(config_.seed));
  SANS_RETURN_IF_ERROR(WriteSketchColumns(sketch, &out));
  return out.Finish();
}

SimilarityIndex::SimilarityIndex(KMinHashSketch sketch, RowId num_rows,
                                 HashFamily family, uint64_t seed)
    : sketch_(std::move(sketch)),
      num_rows_(num_rows),
      family_(family),
      seed_(seed),
      postings_(KMinHashBuckets(sketch_)) {}

Result<SimilarityIndex> SimilarityIndex::Load(const std::string& path) {
  SANS_ASSIGN_OR_RETURN(ArtifactReader in,
                        ArtifactReader::Open(path, kSimilarityIndexFormat));
  const bool with_bands = in.version() == kSimilarityIndexVersionWithBands;
  uint32_t sketch_k = 0;
  uint32_t rows_per_band = 0;
  uint32_t num_bands = 0;
  uint32_t num_cols = 0;
  uint32_t num_rows = 0;
  uint32_t family = 0;
  uint64_t seed = 0;
  SANS_RETURN_IF_ERROR(in.ReadScalar(&sketch_k));
  if (with_bands) {
    SANS_RETURN_IF_ERROR(in.ReadScalar(&rows_per_band));
    SANS_RETURN_IF_ERROR(in.ReadScalar(&num_bands));
    if (rows_per_band == 0 || rows_per_band > kMaxRowsPerBand ||
        num_bands == 0 || num_bands > kMaxBands) {
      return Status::Corruption("similarity index header out of range");
    }
  }
  SANS_RETURN_IF_ERROR(in.ReadScalar(&num_cols));
  SANS_RETURN_IF_ERROR(in.ReadScalar(&num_rows));
  SANS_RETURN_IF_ERROR(in.ReadScalar(&family));
  SANS_RETURN_IF_ERROR(in.ReadScalar(&seed));
  if (family > static_cast<uint32_t>(HashFamily::kTabulation)) {
    return Status::Corruption("similarity index header out of range");
  }

  // v1's band keys (u64) and bucket arrays (u32), one per band and
  // column, read through the checksum and dropped.
  constexpr uint64_t kBandEntryBytes = sizeof(uint64_t) + sizeof(uint32_t);
  const uint64_t band_entries = uint64_t{num_bands} * num_cols;
  SANS_RETURN_IF_ERROR(in.CheckCount(band_entries, kBandEntryBytes));
  std::vector<unsigned char> bands(band_entries * kBandEntryBytes);
  SANS_RETURN_IF_ERROR(in.Read(bands.data(), bands.size()));

  SANS_ASSIGN_OR_RETURN(KMinHashSketch sketch,
                        ReadSketchColumns(&in, sketch_k, num_cols));
  SANS_RETURN_IF_ERROR(in.Finish());
  return SimilarityIndex(std::move(sketch), num_rows,
                         static_cast<HashFamily>(family), seed);
}

}  // namespace sans
