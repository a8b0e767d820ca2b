// In-memory sparse 0/1 matrix in CSR (row-major) layout, plus an
// optional column-major view. The row-major layout matches the
// paper's access pattern: every signature scheme makes a single
// sequential pass over rows. The column-major view serves brute-force
// ground truth, exact similarities and the §6/§7 miners; column
// cardinalities (all H-LSH needs for its density bands) are always
// present.
//
// Every matrix with entries is built by one row-append path,
// RowAppender, which writes rows in ascending order straight into the
// CSR arrays. Which constructors also build the column-major view:
//   - FromRows and MatrixBuilder::Build (and so the generators and
//     LoadTransactions): yes;
//   - ReadTableFile: yes (its callers read columns);
//   - MaterializeStream, OrFold and RowAppender::Finish: no. Call
//     EnsureColumnMajor before reading columns from their results.

#ifndef SANS_MATRIX_BINARY_MATRIX_H_
#define SANS_MATRIX_BINARY_MATRIX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"
#include "util/status.h"

namespace sans {

/// Immutable sparse binary matrix. Construct via RowAppender (rows in
/// order), MatrixBuilder (unordered entries) or the FromRows factory.
/// Rows hold strictly increasing column ids; duplicate entries are
/// impossible by construction.
class BinaryMatrix {
 public:
  /// Empty matrix with the given shape and no 1-entries.
  BinaryMatrix(RowId num_rows, ColumnId num_cols);

  /// Builds from explicit per-row column lists. Each row must be
  /// strictly increasing and within [0, num_cols). Used by tests and
  /// small callers; the result has its column-major view built.
  static Result<BinaryMatrix> FromRows(
      RowId num_rows, ColumnId num_cols,
      const std::vector<std::vector<ColumnId>>& rows);

  BinaryMatrix(const BinaryMatrix&) = default;
  BinaryMatrix& operator=(const BinaryMatrix&) = default;
  BinaryMatrix(BinaryMatrix&&) = default;
  BinaryMatrix& operator=(BinaryMatrix&&) = default;

  RowId num_rows() const { return num_rows_; }
  ColumnId num_cols() const { return num_cols_; }

  /// Total number of 1-entries (|M| in the paper's cost analyses).
  uint64_t num_ones() const { return col_ids_.size(); }

  /// Column ids with a 1 in row `row`, strictly increasing.
  std::span<const ColumnId> Row(RowId row) const {
    SANS_CHECK_LT(row, num_rows_);
    return {col_ids_.data() + row_offsets_[row],
            col_ids_.data() + row_offsets_[row + 1]};
  }

  /// Number of 1s in row `row` (r in the paper's sparsity model).
  size_t RowSize(RowId row) const {
    return row_offsets_[row + 1] - row_offsets_[row];
  }

  /// |C_j|: number of rows with a 1 in column `col`. O(1); maintained
  /// at construction.
  uint64_t ColumnCardinality(ColumnId col) const {
    SANS_CHECK_LT(col, num_cols_);
    return col_cardinalities_[col];
  }

  /// Density d_j = |C_j| / n.
  double ColumnDensity(ColumnId col) const {
    return num_rows_ == 0
               ? 0.0
               : static_cast<double>(ColumnCardinality(col)) / num_rows_;
  }

  /// Membership test; O(log RowSize(row)).
  bool Get(RowId row, ColumnId col) const;

  /// Exact Jaccard similarity of two columns. O(|C_i| + |C_j|);
  /// requires the column-major view (built by EnsureColumnMajor, or
  /// eagerly by FromRows, MatrixBuilder and ReadTableFile).
  double Similarity(ColumnId a, ColumnId b) const;

  /// Exact confidence Conf(a ⇒ b) = |C_a ∩ C_b| / |C_a|; 0 when C_a is
  /// empty. Requires the column-major view.
  double Confidence(ColumnId a, ColumnId b) const;

  /// |C_a ∩ C_b| via sorted-list intersection. Requires the
  /// column-major view.
  uint64_t IntersectionSize(ColumnId a, ColumnId b) const;

  /// Hamming distance between two columns, |C_a Δ C_b| — the quantity
  /// H-LSH searches on. Lemma 3 ties it to similarity:
  /// S = (|C_a| + |C_b| - d_H) / (|C_a| + |C_b| + d_H). Requires the
  /// column-major view.
  uint64_t HammingDistance(ColumnId a, ColumnId b) const;

  /// The row set C_j, strictly increasing. Requires the column-major
  /// view.
  std::span<const RowId> Column(ColumnId col) const;

  /// Materializes the column-major view if absent. Idempotent.
  void EnsureColumnMajor();
  bool has_column_major() const { return column_major_built_; }

  /// Average pairwise similarity S̄ = Σ S(c_i,c_j) / m² over ordered
  /// pairs including i==j terms as in the paper's running-time
  /// analyses. O(m²·cost(Similarity)) — intended for small test
  /// matrices and documentation of the cost model, not hot paths.
  double AveragePairwiseSimilarity() const;

 private:
  friend class RowAppender;

  RowId num_rows_;
  ColumnId num_cols_;

  // CSR row-major storage.
  std::vector<uint64_t> row_offsets_;  // size num_rows_ + 1
  std::vector<ColumnId> col_ids_;      // size num_ones()

  // Column cardinalities, always present.
  std::vector<uint64_t> col_cardinalities_;

  // Column-major (CSC) view, built on demand.
  bool column_major_built_ = false;
  std::vector<uint64_t> col_offsets_;  // size num_cols_ + 1
  std::vector<RowId> row_ids_;         // size num_ones()
};

/// Builds a BinaryMatrix from rows given in ascending row order,
/// appending each straight to the CSR arrays and counting column
/// cardinalities as it goes: no sort and no column-major view. Rows
/// never appended stay empty. Sizes the row offsets from num_rows up
/// front, so callers bound a header-declared row count first.
/// Usage:
///   RowAppender a(num_rows, num_cols);
///   a.Append(row, columns); ...     // rows strictly increasing
///   BinaryMatrix m = std::move(a).Finish();
class RowAppender {
 public:
  RowAppender(RowId num_rows, ColumnId num_cols);

  /// Reserves room for `num_ones` entries in total.
  void Reserve(uint64_t num_ones) { matrix_.col_ids_.reserve(num_ones); }

  /// Appends `columns` as row `row`. Returns OutOfRange for a row or
  /// column id outside the shape and InvalidArgument for a row not
  /// after the previous one or columns not strictly increasing; on
  /// error nothing is appended.
  Status Append(RowId row, std::span<const ColumnId> columns);

  /// The finished matrix, without the column-major view. Consumes the
  /// appender.
  BinaryMatrix Finish() &&;

 private:
  /// Ends every row before `row` (rows not appended are empty).
  void CloseRowsBefore(RowId row);

  BinaryMatrix matrix_;
  RowId next_row_ = 0;
};

}  // namespace sans

#endif  // SANS_MATRIX_BINARY_MATRIX_H_
