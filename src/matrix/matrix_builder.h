// Incremental construction of a BinaryMatrix from unordered
// (row, column) observations — the ingest path for the generators and
// the text loader. Duplicates are tolerated and deduplicated. Rows
// that arrive in order (table files, streams, OR-folds) go straight
// through RowAppender instead, with no sort.

#ifndef SANS_MATRIX_MATRIX_BUILDER_H_
#define SANS_MATRIX_MATRIX_BUILDER_H_

#include <vector>

#include "core/types.h"
#include "matrix/binary_matrix.h"
#include "util/status.h"

namespace sans {

/// Accumulates 1-entries and produces an immutable BinaryMatrix.
/// Usage:
///   MatrixBuilder b(num_rows, num_cols);
///   b.Set(row, col); ...            // any order, duplicates fine
///   Result<BinaryMatrix> m = std::move(b).Build();
class MatrixBuilder {
 public:
  MatrixBuilder(RowId num_rows, ColumnId num_cols);

  MatrixBuilder(const MatrixBuilder&) = delete;
  MatrixBuilder& operator=(const MatrixBuilder&) = delete;
  MatrixBuilder(MatrixBuilder&&) = default;
  MatrixBuilder& operator=(MatrixBuilder&&) = default;

  RowId num_rows() const { return num_rows_; }
  ColumnId num_cols() const { return num_cols_; }

  /// Records M[row][col] = 1. Returns InvalidArgument on out-of-range
  /// coordinates.
  Status Set(RowId row, ColumnId col);

  /// Records a whole row's worth of entries (any order, duplicates
  /// fine).
  Status SetRow(RowId row, const std::vector<ColumnId>& cols);

  /// Number of Set() calls accepted so far (before deduplication).
  uint64_t num_entries() const { return entries_.size(); }

  /// Finalizes into an immutable matrix with the column-major view
  /// prebuilt. The builder is consumed.
  Result<BinaryMatrix> Build() &&;

 private:
  RowId num_rows_;
  ColumnId num_cols_;
  // Entries packed as (row << 32 | col) so a single sort orders them
  // row-major and makes duplicates adjacent.
  std::vector<uint64_t> entries_;
};

}  // namespace sans

#endif  // SANS_MATRIX_MATRIX_BUILDER_H_
