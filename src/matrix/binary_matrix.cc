#include "matrix/binary_matrix.h"

#include <algorithm>
#include <string>

namespace sans {

BinaryMatrix::BinaryMatrix(RowId num_rows, ColumnId num_cols)
    : num_rows_(num_rows),
      num_cols_(num_cols),
      row_offsets_(static_cast<size_t>(num_rows) + 1, 0),
      col_cardinalities_(num_cols, 0) {}

Result<BinaryMatrix> BinaryMatrix::FromRows(
    RowId num_rows, ColumnId num_cols,
    const std::vector<std::vector<ColumnId>>& rows) {
  if (rows.size() != num_rows) {
    return Status::InvalidArgument("row list size does not match num_rows");
  }
  RowAppender appender(num_rows, num_cols);
  uint64_t total = 0;
  for (const auto& row : rows) total += row.size();
  appender.Reserve(total);
  for (RowId r = 0; r < num_rows; ++r) {
    SANS_RETURN_IF_ERROR(appender.Append(r, rows[r]));
  }
  BinaryMatrix m = std::move(appender).Finish();
  m.EnsureColumnMajor();
  return m;
}

bool BinaryMatrix::Get(RowId row, ColumnId col) const {
  const auto r = Row(row);
  return std::binary_search(r.begin(), r.end(), col);
}

std::span<const RowId> BinaryMatrix::Column(ColumnId col) const {
  SANS_CHECK(column_major_built_);
  SANS_CHECK_LT(col, num_cols_);
  return {row_ids_.data() + col_offsets_[col],
          row_ids_.data() + col_offsets_[col + 1]};
}

uint64_t BinaryMatrix::IntersectionSize(ColumnId a, ColumnId b) const {
  const auto ca = Column(a);
  const auto cb = Column(b);
  uint64_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < ca.size() && j < cb.size()) {
    if (ca[i] < cb[j]) {
      ++i;
    } else if (cb[j] < ca[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

uint64_t BinaryMatrix::HammingDistance(ColumnId a, ColumnId b) const {
  return ColumnCardinality(a) + ColumnCardinality(b) -
         2 * IntersectionSize(a, b);
}

double BinaryMatrix::Similarity(ColumnId a, ColumnId b) const {
  const uint64_t inter = IntersectionSize(a, b);
  const uint64_t uni =
      ColumnCardinality(a) + ColumnCardinality(b) - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / uni;
}

double BinaryMatrix::Confidence(ColumnId a, ColumnId b) const {
  const uint64_t ca = ColumnCardinality(a);
  if (ca == 0) return 0.0;
  return static_cast<double>(IntersectionSize(a, b)) / ca;
}

void BinaryMatrix::EnsureColumnMajor() {
  if (column_major_built_) return;
  col_offsets_.assign(static_cast<size_t>(num_cols_) + 1, 0);
  for (ColumnId c = 0; c < num_cols_; ++c) {
    col_offsets_[c + 1] = col_offsets_[c] + col_cardinalities_[c];
  }
  row_ids_.resize(col_ids_.size());
  std::vector<uint64_t> cursor(col_offsets_.begin(), col_offsets_.end() - 1);
  for (RowId r = 0; r < num_rows_; ++r) {
    for (ColumnId c : Row(r)) {
      row_ids_[cursor[c]++] = r;
    }
  }
  column_major_built_ = true;
}

double BinaryMatrix::AveragePairwiseSimilarity() const {
  SANS_CHECK(column_major_built_);
  if (num_cols_ == 0) return 0.0;
  double sum = 0.0;
  for (ColumnId i = 0; i < num_cols_; ++i) {
    // Diagonal term: S(c_i, c_i) = 1 for nonempty columns.
    if (ColumnCardinality(i) > 0) sum += 1.0;
    for (ColumnId j = i + 1; j < num_cols_; ++j) {
      sum += 2.0 * Similarity(i, j);
    }
  }
  return sum / (static_cast<double>(num_cols_) * num_cols_);
}

RowAppender::RowAppender(RowId num_rows, ColumnId num_cols)
    : matrix_(num_rows, num_cols) {}

Status RowAppender::Append(RowId row, std::span<const ColumnId> columns) {
  if (row >= matrix_.num_rows_) {
    return Status::OutOfRange("row id " + std::to_string(row) +
                              " exceeds num_rows");
  }
  if (row < next_row_) {
    return Status::InvalidArgument("row " + std::to_string(row) +
                                   " does not follow the previous row");
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] >= matrix_.num_cols_) {
      return Status::OutOfRange("column id exceeds num_cols in row " +
                                std::to_string(row));
    }
    if (i > 0 && columns[i] <= columns[i - 1]) {
      return Status::InvalidArgument(
          "row entries must be strictly increasing in row " +
          std::to_string(row));
    }
  }
  CloseRowsBefore(row);
  matrix_.col_ids_.insert(matrix_.col_ids_.end(), columns.begin(),
                          columns.end());
  for (ColumnId c : columns) ++matrix_.col_cardinalities_[c];
  matrix_.row_offsets_[row + 1] = matrix_.col_ids_.size();
  next_row_ = row + 1;
  return Status::OK();
}

void RowAppender::CloseRowsBefore(RowId row) {
  for (; next_row_ < row; ++next_row_) {
    matrix_.row_offsets_[next_row_ + 1] = matrix_.col_ids_.size();
  }
}

BinaryMatrix RowAppender::Finish() && {
  CloseRowsBefore(matrix_.num_rows_);
  return std::move(matrix_);
}

}  // namespace sans
