// Single-pass row access, the abstraction behind the paper's
// "disk-resident table" setting. Every signature scheme consumes a
// RowStream so it is oblivious to whether rows come from memory or a
// table file; the three-phase pipeline re-opens the stream for the
// verification pass.

#ifndef SANS_MATRIX_ROW_STREAM_H_
#define SANS_MATRIX_ROW_STREAM_H_

#include <memory>
#include <span>
#include <vector>

#include "core/types.h"
#include "matrix/binary_matrix.h"
#include "util/status.h"

namespace sans {

/// One row of the table during a scan: its id and the (strictly
/// increasing) column ids holding a 1. The span is valid until the
/// next call to Next() on the producing stream.
struct RowView {
  RowId row = 0;
  std::span<const ColumnId> columns;
};

/// Forward-only scan over the rows of a table.
class RowStream {
 public:
  virtual ~RowStream() = default;

  /// Total rows the stream will produce.
  virtual RowId num_rows() const = 0;
  /// Number of columns of the underlying table.
  virtual ColumnId num_cols() const = 0;

  /// Advances to the next row. Returns false at end of stream; `out`
  /// is untouched in that case. A false return is only a clean end of
  /// table when stream_status() is OK — consumers must check it, or a
  /// truncated file silently ends the scan early.
  virtual bool Next(RowView* out) = 0;

  /// Error state after Next() returns false: OK for a genuine end of
  /// stream, kCorruption / kIOError when the scan stopped early. After
  /// an error that left the stream positioned on the following row
  /// (e.g. a corrupt payload inside intact framing), calling Next()
  /// again may resume the scan past the bad row; streams that cannot
  /// resume keep returning false with the same status.
  virtual Status stream_status() const { return Status::OK(); }

  /// Rewinds to the first row so the table can be scanned again
  /// (phase 3 verification re-reads the table).
  virtual Status Reset() = 0;
};

/// A factory for streams over the same table, letting pipeline phases
/// own independent scans.
class RowStreamSource {
 public:
  virtual ~RowStreamSource() = default;
  virtual RowId num_rows() const = 0;
  virtual ColumnId num_cols() const = 0;
  virtual Result<std::unique_ptr<RowStream>> Open() const = 0;
};

/// RowStream over an in-memory BinaryMatrix (not owned; must outlive
/// the stream).
class InMemoryRowStream final : public RowStream {
 public:
  explicit InMemoryRowStream(const BinaryMatrix* matrix)
      : matrix_(matrix), next_row_(0) {}

  RowId num_rows() const override { return matrix_->num_rows(); }
  ColumnId num_cols() const override { return matrix_->num_cols(); }

  bool Next(RowView* out) override {
    if (next_row_ >= matrix_->num_rows()) return false;
    out->row = next_row_;
    out->columns = matrix_->Row(next_row_);
    ++next_row_;
    return true;
  }

  Status Reset() override {
    next_row_ = 0;
    return Status::OK();
  }

 private:
  const BinaryMatrix* matrix_;
  RowId next_row_;
};

/// Source producing InMemoryRowStreams over a borrowed matrix.
class InMemorySource final : public RowStreamSource {
 public:
  explicit InMemorySource(const BinaryMatrix* matrix) : matrix_(matrix) {}

  RowId num_rows() const override { return matrix_->num_rows(); }
  ColumnId num_cols() const override { return matrix_->num_cols(); }

  Result<std::unique_ptr<RowStream>> Open() const override {
    return std::unique_ptr<RowStream>(
        std::make_unique<InMemoryRowStream>(matrix_));
  }

 private:
  const BinaryMatrix* matrix_;
};

/// Drains a stream back into a BinaryMatrix (H-LSH's phase 1 and a
/// round-trip helper). Runs on the counted block loop of
/// matrix/block_reader.h, so it counts as one table scan. Rows append
/// in scan order through RowAppender: no sort, and no column-major
/// view (call EnsureColumnMajor to read columns). A row id the stream
/// skips (a row a ResilientRowStream dropped) stays an empty row. A
/// row out of order or out of range, or with column ids not strictly
/// increasing or out of range, fails the call with kCorruption.
Result<BinaryMatrix> MaterializeStream(RowStream* stream);

}  // namespace sans

#endif  // SANS_MATRIX_ROW_STREAM_H_
