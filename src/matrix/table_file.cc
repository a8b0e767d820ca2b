#include "matrix/table_file.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>

#include "util/crc32c.h"

namespace sans {
namespace {

/// Writes a u32 and folds its bytes into `crc` (little-endian hosts;
/// the format is LE as documented).
Status WriteU32(std::FILE* f, uint32_t value, uint32_t* crc) {
  if (std::fwrite(&value, sizeof(value), 1, f) != 1) {
    return Status::IOError("short write");
  }
  if (crc != nullptr) *crc = Crc32cExtend(*crc, &value, sizeof(value));
  return Status::OK();
}

Status ReadU32(std::FILE* f, uint32_t* value, uint32_t* crc = nullptr) {
  if (std::fread(value, sizeof(*value), 1, f) != 1) {
    return Status::IOError("short read");
  }
  if (crc != nullptr) *crc = Crc32cExtend(*crc, value, sizeof(*value));
  return Status::OK();
}

}  // namespace

Status WriteTableFile(const BinaryMatrix& matrix, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open for writing: " + path);
  }
  Status s = Status::OK();
  auto write_all = [&]() -> Status {
    uint32_t crc = 0;
    SANS_RETURN_IF_ERROR(WriteU32(f, kTableFileMagic, &crc));
    SANS_RETURN_IF_ERROR(WriteU32(f, kTableFileVersion, &crc));
    SANS_RETURN_IF_ERROR(WriteU32(f, matrix.num_rows(), &crc));
    SANS_RETURN_IF_ERROR(WriteU32(f, matrix.num_cols(), &crc));
    for (RowId r = 0; r < matrix.num_rows(); ++r) {
      const auto row = matrix.Row(r);
      SANS_RETURN_IF_ERROR(
          WriteU32(f, static_cast<uint32_t>(row.size()), &crc));
      if (!row.empty()) {
        if (std::fwrite(row.data(), sizeof(ColumnId), row.size(), f) !=
            row.size()) {
          return Status::IOError("short write of row data");
        }
        crc = Crc32cExtend(crc, row.data(), row.size() * sizeof(ColumnId));
      }
    }
    SANS_RETURN_IF_ERROR(WriteU32(f, Crc32cMask(crc), nullptr));
    return Status::OK();
  };
  s = write_all();
  if (std::fclose(f) != 0 && s.ok()) {
    s = Status::IOError("close failed: " + path);
  }
  return s;
}

TableFileReader::TableFileReader(std::FILE* file, uint32_t version,
                                 RowId num_rows, ColumnId num_cols,
                                 long data_offset, uint32_t header_crc)
    : file_(file),
      version_(version),
      num_rows_(num_rows),
      num_cols_(num_cols),
      data_offset_(data_offset),
      next_row_(0),
      header_crc_(header_crc),
      running_crc_(header_crc) {}

TableFileReader::~TableFileReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<TableFileReader>> TableFileReader::Open(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open for reading: " + path);
  }
  uint32_t header[4] = {0, 0, 0, 0};  // magic, version, rows, cols
  auto read_header = [&]() -> Status {
    for (uint32_t& field : header) {
      SANS_RETURN_IF_ERROR(ReadU32(f, &field));
    }
    if (header[0] != kTableFileMagic) {
      return Status::Corruption("bad magic in " + path);
    }
    if (header[1] < kTableFileMinVersion || header[1] > kTableFileVersion) {
      return Status::Corruption("unsupported table file version " +
                                std::to_string(header[1]) + " in " + path);
    }
    // Every row takes at least its u32 count, so the row count is
    // bounded by the bytes after the header (less the v2 trailer)
    // before any caller sizes per-row state from it. The column count
    // has no such bound: empty columns take no bytes.
    std::error_code error;
    const uint64_t file_size = std::filesystem::file_size(path, error);
    if (error) return Status::IOError("cannot stat: " + path);
    const uint64_t trailer = header[1] >= 2 ? sizeof(uint32_t) : 0;
    const uint64_t body = file_size - std::min<uint64_t>(
                                          file_size, sizeof(header) + trailer);
    if (header[2] > body / sizeof(uint32_t)) {
      return Status::Corruption(
          "table header declares " + std::to_string(header[2]) +
          " rows, more than the " + std::to_string(body) +
          " bytes after it hold, in " + path);
    }
    return Status::OK();
  };
  const Status s = read_header();
  if (!s.ok()) {
    std::fclose(f);
    return s;
  }
  const long data_offset = std::ftell(f);
  if (data_offset < 0) {
    std::fclose(f);
    return Status::IOError("ftell failed on " + path);
  }
  const uint32_t header_crc = Crc32c(header, sizeof(header));
  return std::unique_ptr<TableFileReader>(
      new TableFileReader(f, header[1], header[2], header[3], data_offset,
                          header_crc));
}

void TableFileReader::VerifyTrailer() {
  if (version_ < 2 || trailer_checked_) return;
  trailer_checked_ = true;
  // A scan that skipped past corrupt payloads cannot match the file
  // checksum; the per-row errors were already reported.
  if (row_error_seen_) return;
  uint32_t masked = 0;
  if (!ReadU32(file_, &masked).ok()) {
    fatal_ = true;
    stream_status_ = Status::Corruption("missing crc trailer");
    return;
  }
  if (Crc32cUnmask(masked) != running_crc_) {
    fatal_ = true;
    stream_status_ = Status::Corruption("crc mismatch: table file bytes "
                                        "do not match their checksum");
  }
}

bool TableFileReader::Next(RowView* out) {
  if (fatal_) return false;
  if (next_row_ >= num_rows_) {
    VerifyTrailer();
    return false;
  }
  stream_status_ = Status::OK();  // fresh attempt (resume after skip)
  const RowId row = next_row_;
  uint32_t count = 0;
  if (!ReadU32(file_, &count, &running_crc_).ok()) {
    fatal_ = true;
    stream_status_ = Status::Corruption(
        "truncated row header at row " + std::to_string(row));
    return false;
  }
  row_buffer_.resize(count);
  if (count > 0) {
    if (std::fread(row_buffer_.data(), sizeof(ColumnId), count, file_) !=
        count) {
      fatal_ = true;
      stream_status_ = Status::Corruption(
          "truncated row data at row " + std::to_string(row));
      return false;
    }
    running_crc_ = Crc32cExtend(running_crc_, row_buffer_.data(),
                                count * sizeof(ColumnId));
  }
  for (uint32_t i = 0; i < count; ++i) {
    if (row_buffer_[i] >= num_cols_ ||
        (i > 0 && row_buffer_[i] <= row_buffer_[i - 1])) {
      // Framing is intact: the reader is already positioned on the
      // next row, so a further Next() resumes the scan (degraded
      // mode); strict callers stop here and fail on stream_status().
      row_error_seen_ = true;
      stream_status_ = Status::Corruption(
          "invalid row entries at row " + std::to_string(row));
      ++next_row_;
      return false;
    }
  }
  out->row = row;
  out->columns = {row_buffer_.data(), row_buffer_.size()};
  ++next_row_;
  return true;
}

Status TableFileReader::Reset() {
  if (std::fseek(file_, data_offset_, SEEK_SET) != 0) {
    return Status::IOError("seek failed");
  }
  next_row_ = 0;
  stream_status_ = Status::OK();
  running_crc_ = header_crc_;
  fatal_ = false;
  row_error_seen_ = false;
  trailer_checked_ = false;
  return Status::OK();
}

Result<TableFileSource> TableFileSource::Create(const std::string& path) {
  SANS_ASSIGN_OR_RETURN(std::unique_ptr<TableFileReader> probe,
                        TableFileReader::Open(path));
  return TableFileSource(path, probe->num_rows(), probe->num_cols());
}

Result<std::unique_ptr<RowStream>> TableFileSource::Open() const {
  SANS_ASSIGN_OR_RETURN(std::unique_ptr<TableFileReader> reader,
                        TableFileReader::Open(path_));
  return std::unique_ptr<RowStream>(std::move(reader));
}

Result<BinaryMatrix> ReadTableFile(const std::string& path) {
  SANS_ASSIGN_OR_RETURN(std::unique_ptr<TableFileReader> reader,
                        TableFileReader::Open(path));
  RowAppender appender(reader->num_rows(), reader->num_cols());
  RowView view;
  while (reader->Next(&view)) {
    SANS_RETURN_IF_ERROR(appender.Append(view.row, view.columns));
  }
  SANS_RETURN_IF_ERROR(reader->stream_status());
  BinaryMatrix matrix = std::move(appender).Finish();
  matrix.EnsureColumnMajor();
  return matrix;
}

}  // namespace sans
