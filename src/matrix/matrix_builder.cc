#include "matrix/matrix_builder.h"

#include <algorithm>

namespace sans {

MatrixBuilder::MatrixBuilder(RowId num_rows, ColumnId num_cols)
    : num_rows_(num_rows), num_cols_(num_cols) {}

Status MatrixBuilder::Set(RowId row, ColumnId col) {
  if (row >= num_rows_) {
    return Status::OutOfRange("row id exceeds num_rows");
  }
  if (col >= num_cols_) {
    return Status::OutOfRange("column id exceeds num_cols");
  }
  entries_.push_back((static_cast<uint64_t>(row) << 32) | col);
  return Status::OK();
}

Status MatrixBuilder::SetRow(RowId row, const std::vector<ColumnId>& cols) {
  for (ColumnId c : cols) SANS_RETURN_IF_ERROR(Set(row, c));
  return Status::OK();
}

Result<BinaryMatrix> MatrixBuilder::Build() && {
  std::sort(entries_.begin(), entries_.end());
  entries_.erase(std::unique(entries_.begin(), entries_.end()),
                 entries_.end());

  RowAppender appender(num_rows_, num_cols_);
  appender.Reserve(entries_.size());
  std::vector<ColumnId> row;
  for (size_t idx = 0; idx < entries_.size();) {
    const RowId r = static_cast<RowId>(entries_[idx] >> 32);
    row.clear();
    for (; idx < entries_.size() && (entries_[idx] >> 32) == r; ++idx) {
      row.push_back(static_cast<ColumnId>(entries_[idx] & 0xffffffffu));
    }
    SANS_RETURN_IF_ERROR(appender.Append(r, row));
  }
  entries_.clear();
  BinaryMatrix m = std::move(appender).Finish();
  m.EnsureColumnMajor();
  return m;
}

}  // namespace sans
