// Incremental and mergeable bottom-k sketching. The paper's data
// sources are growing logs (nine days of web hits, a news feed);
// bottom-k sketches absorb new rows in O(log k) per 1-entry and merge
// across disjoint row partitions (the combined bottom-k is the k
// smallest of the union, cardinalities add) — so sketches can be
// maintained online or built distributed and combined, without ever
// rescanning history.

#ifndef SANS_SKETCH_INCREMENTAL_H_
#define SANS_SKETCH_INCREMENTAL_H_

#include <span>
#include <vector>

#include "core/types.h"
#include "matrix/row_stream.h"
#include "sketch/k_min_hash.h"
#include "util/bounded_heap.h"
#include "util/status.h"

namespace sans {

class RowBlock;  // matrix/block_reader.h

/// Maintains per-column bottom-k heaps over an append-only row
/// stream. Thread-compatible (external synchronization required for
/// concurrent AddRow calls). This is the one bottom-k accumulator:
/// KMinHashGenerator and ComputeKMinHashParallel run one builder per
/// worker and combine them with Merge.
class IncrementalKMinHashBuilder {
 public:
  /// The config's seed defines the row-hash function; builders that
  /// will be merged MUST share the same config (checked by Merge).
  IncrementalKMinHashBuilder(const KMinHashConfig& config,
                             ColumnId num_cols);

  IncrementalKMinHashBuilder(const IncrementalKMinHashBuilder&) = delete;
  IncrementalKMinHashBuilder& operator=(const IncrementalKMinHashBuilder&) =
      delete;
  IncrementalKMinHashBuilder(IncrementalKMinHashBuilder&&) = default;
  IncrementalKMinHashBuilder& operator=(IncrementalKMinHashBuilder&&) =
      default;

  ColumnId num_cols() const { return static_cast<ColumnId>(heaps_.size()); }
  const KMinHashConfig& config() const { return config_; }
  /// Rows ingested so far (directly or via merges).
  uint64_t rows_ingested() const { return rows_ingested_; }

  /// Ingests one row. Row ids must be unique across the builder's
  /// lifetime (and across all builders later merged together) — the
  /// id is the hash key, so a repeated id silently double-counts
  /// cardinalities. Column ids must be < num_cols(); a row with an
  /// out-of-range id is rejected whole, leaving the builder unchanged.
  Status AddRow(RowId row, std::span<const ColumnId> columns);

  /// Ingests a block of rows, hashing its row ids as one clamped batch
  /// (sketch_kernels.h). Same contract as AddRow for every row; a
  /// block holding an out-of-range id is rejected whole.
  Status AddBlock(const RowBlock& block);

  /// Ingests an entire stream (rewound first) through the counted
  /// block loop of matrix/block_reader.h.
  Status AddAll(RowStream* rows);

  /// Folds another builder (over a disjoint row set) into this one.
  /// Requires identical k, hash family, seed, and width.
  Status Merge(const IncrementalKMinHashBuilder& other);

  /// Materializes the current state as an immutable sketch. The
  /// builder remains usable; snapshots are O(m·k).
  KMinHashSketch Snapshot() const;

 private:
  /// Offers one row's hash to each of its columns (ids already
  /// checked).
  void Absorb(uint64_t value, std::span<const ColumnId> columns);

  KMinHashConfig config_;
  RowHasher hasher_;
  // One bounded max-heap per column: once full it admits only values
  // below its max, the paper's O(log k) insert / O(1) reject structure.
  std::vector<BoundedMaxHeap<uint64_t>> heaps_;
  std::vector<uint64_t> cardinalities_;
  uint64_t rows_ingested_ = 0;
  // AddBlock scratch: a block's row ids and their clamped hashes.
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> values_;
};

}  // namespace sans

#endif  // SANS_SKETCH_INCREMENTAL_H_
