// On-disk table format and its streaming reader — the "large table
// sitting in secondary memory" of the paper's Section 1. The format is
// a row-major sparse dump:
//
//   [magic u32]["SANS"][version u32][num_rows u32][num_cols u32]
//   repeated num_rows times: [count u32][count * column id u32]
//   v2 only: [masked CRC32C u32 over all preceding bytes]
//
// All integers little-endian. The reader streams one row at a time in
// O(max row size) memory, so signature computation over a table much
// larger than RAM is a genuine single pass.
//
// Integrity: writers emit format v2, whose trailer checksums the
// whole file; the checksum is folded incrementally while streaming
// and verified when the scan reaches the end, so truncation and
// bit-rot surface as kCorruption instead of silently wrong
// similarities. v1 files (no trailer) still load.

#ifndef SANS_MATRIX_TABLE_FILE_H_
#define SANS_MATRIX_TABLE_FILE_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "matrix/binary_matrix.h"
#include "matrix/row_stream.h"
#include "util/status.h"

namespace sans {

/// Magic number at the head of every table file ("SANS" read as LE).
inline constexpr uint32_t kTableFileMagic = 0x534e4153u;
/// Format version writers emit (v2 = CRC32C trailer).
inline constexpr uint32_t kTableFileVersion = 2;
/// Oldest version readers still accept.
inline constexpr uint32_t kTableFileMinVersion = 1;

/// Writes a BinaryMatrix to `path` in the table-file format.
Status WriteTableFile(const BinaryMatrix& matrix, const std::string& path);

/// Streams rows from a table file. One buffered pass; Reset() seeks
/// back to the first row for the verification re-scan.
class TableFileReader final : public RowStream {
 public:
  /// Opens `path`, validating the header: kCorruption for a bad magic
  /// or version, or for a row count that the bytes after the header
  /// (less the v2 trailer) cannot hold at 4 bytes per row.
  static Result<std::unique_ptr<TableFileReader>> Open(
      const std::string& path);

  ~TableFileReader() override;

  TableFileReader(const TableFileReader&) = delete;
  TableFileReader& operator=(const TableFileReader&) = delete;

  RowId num_rows() const override { return num_rows_; }
  ColumnId num_cols() const override { return num_cols_; }

  bool Next(RowView* out) override;
  Status Reset() override;

  /// Set after Next() returns false: distinguishes clean end-of-table
  /// from a truncated or corrupt file. After a payload-level error
  /// (intact framing), the reader is positioned on the following row
  /// and a further Next() resumes the scan — the degraded-mode hook
  /// ResilientRowStream uses to skip unreadable rows. Framing errors
  /// (truncation) are fatal: nothing after the tear is decodable.
  Status stream_status() const override { return stream_status_; }

  /// Format version of the open file (1 or 2).
  uint32_t version() const { return version_; }

 private:
  TableFileReader(std::FILE* file, uint32_t version, RowId num_rows,
                  ColumnId num_cols, long data_offset, uint32_t header_crc);

  /// At end of table, reads and checks the v2 trailer (once). No-op
  /// for v1 files and for scans that already saw a row-level error.
  void VerifyTrailer();

  std::FILE* file_;
  uint32_t version_;
  RowId num_rows_;
  ColumnId num_cols_;
  long data_offset_;
  RowId next_row_;
  std::vector<ColumnId> row_buffer_;
  Status stream_status_;
  uint32_t header_crc_;    // CRC32C of the header bytes
  uint32_t running_crc_;   // folded incrementally during the scan
  bool fatal_ = false;     // framing destroyed; Next() can not resume
  bool row_error_seen_ = false;
  bool trailer_checked_ = false;
};

/// Source that opens a fresh TableFileReader per scan.
class TableFileSource final : public RowStreamSource {
 public:
  /// Validates the file once (header read) and caches its shape.
  static Result<TableFileSource> Create(const std::string& path);

  RowId num_rows() const override { return num_rows_; }
  ColumnId num_cols() const override { return num_cols_; }

  Result<std::unique_ptr<RowStream>> Open() const override;

  const std::string& path() const { return path_; }

 private:
  TableFileSource(std::string path, RowId num_rows, ColumnId num_cols)
      : path_(std::move(path)), num_rows_(num_rows), num_cols_(num_cols) {}

  std::string path_;
  RowId num_rows_;
  ColumnId num_cols_;
};

/// Loads an entire table file into memory, rows appended in file
/// order, with the column-major view built.
Result<BinaryMatrix> ReadTableFile(const std::string& path);

}  // namespace sans

#endif  // SANS_MATRIX_TABLE_FILE_H_
