// Immutable on-disk similarity index — the artifact the serving path
// (sans index / sans serve) is built on. One build pass over the
// table persists, per column, a bottom-k sketch (Section 3.2) and the
// exact column cardinality. Queries never touch the original table.
//
// At Load the index also builds, in memory, the value postings of the
// sketches: K-MH's single per-value bucket table (Section 3.1) on the
// flat-bucket engine, whose runs list the columns carrying each sketch
// value. The Theorem 2 estimate of two columns is 0 unless their
// sketches share a value, so a column's posting mates are the only
// columns that can rank above 0 against it. The postings are not
// persisted: on disk they would add 12 B per distinct value plus 4 B
// per sketch value, while rebuilding them is one radix sort.
//
// File format v2: a body in the checksummed artifact container
// (util/checksum_io.h), little-endian:
//
//   [sketch_k u32][num_cols u32][num_rows u32][family u32][seed u64]
//   the sketch columns, in the one bottom-k sketch codec of
//   sketch/sketch_io.h: per column [cardinality u64][size u32][size × u64]
//
// Version 1 files also carry [rows_per_band u32][num_bands u32] after
// sketch_k and, before the sketches, num_bands × num_cols u64 Min-LSH
// band keys plus num_bands × num_cols u32 bucket arrays. They still
// load: the band fields are range-checked and the band arrays are read
// through the checksum and dropped.
//
// The loaded index holds the sketches as one KMinHashSketch and is
// read-only and position-independent: a column's sketch is an O(1)
// lookup, and its posting mates are a walk over its runs. A server can
// therefore share one index across request threads with no locking and
// reload by swapping a shared_ptr.

#ifndef SANS_SERVE_SIMILARITY_INDEX_H_
#define SANS_SERVE_SIMILARITY_INDEX_H_

#include <cstdint>
#include <string>

#include "candgen/flat_buckets.h"
#include "matrix/row_stream.h"
#include "sketch/k_min_hash.h"
#include "util/checksum_io.h"
#include "util/hashing.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sans {

inline constexpr ArtifactFormat kSimilarityIndexFormat{
    0x58444953u, /*version=*/2, /*min_version=*/1, /*trailer_since=*/1,
    "similarity index"};

/// Parameters of an index build.
struct SimilarityIndexConfig {
  /// Bottom-k sketch size per column (reranking accuracy; exact for
  /// column pairs whose union has at most k rows).
  int sketch_k = 128;
  /// Inert since .sidx v2; kept only while perfbench/runner.cc assigns it.
  int rows_per_band = 5;
  /// Inert since .sidx v2; kept only while perfbench/runner.cc assigns it.
  int num_bands = 20;
  /// Row-hash family of the sketches.
  HashFamily family = HashFamily::kSplitMix64;
  uint64_t seed = 0;
  /// Build-time parallelism. num_threads <= 1 runs the build pass
  /// inline on one thread; more threads fan it out on the block
  /// pipeline (bit-identical output for any thread count).
  ExecutionConfig execution;

  Status Validate() const;
};

/// Read-only similarity index loaded from disk.
class SimilarityIndex {
 public:
  /// Loads and validates an index file (v2, or v1 with its bands
  /// dropped) and builds the sketches' value postings. Any truncation,
  /// bit-rot, or structural inconsistency is rejected as kCorruption —
  /// never a crash — so a serving process can safely point at
  /// untrusted paths.
  static Result<SimilarityIndex> Load(const std::string& path);

  ColumnId num_cols() const { return sketch_.num_cols(); }
  RowId num_rows() const { return num_rows_; }
  int sketch_k() const { return sketch_.k(); }
  HashFamily family() const { return family_; }
  uint64_t seed() const { return seed_; }

  /// Every column's bottom-k signature (ascending distinct hash
  /// values) and the exact |C_col| recorded at build time.
  const KMinHashSketch& sketch() const { return sketch_; }

  /// Calls visit(j) for every column j != col that shares a sketch
  /// value with `col`, once per shared value. An empty column has no
  /// mates.
  template <typename VisitFn>
  void ForEachPostingMate(ColumnId col, const VisitFn& visit) const {
    postings_.ForEachMate(col, visit);
  }

  /// Shape of the postings: `runs` distinct sketch values, the longest
  /// posting's column count in `longest`.
  const BucketRunStats& posting_stats() const {
    return postings_.run_stats().front();
  }

 private:
  SimilarityIndex(KMinHashSketch sketch, RowId num_rows, HashFamily family,
                  uint64_t seed);

  KMinHashSketch sketch_;
  RowId num_rows_;
  HashFamily family_;
  uint64_t seed_;
  // Built from sketch_ at construction.
  FlatBuckets postings_;
};

/// Builds an index file from a table: one bottom-k pass over the
/// source, fanned out on the block pipeline when config.execution asks
/// for threads. The build is offline and the output immutable, so a
/// rebuilt index goes live via Server::Reload, not in place.
class IndexBuilder {
 public:
  explicit IndexBuilder(const SimilarityIndexConfig& config);

  Status Build(const RowStreamSource& source,
               const std::string& out_path) const;

  const SimilarityIndexConfig& config() const { return config_; }

 private:
  SimilarityIndexConfig config_;
};

}  // namespace sans

#endif  // SANS_SERVE_SIMILARITY_INDEX_H_
