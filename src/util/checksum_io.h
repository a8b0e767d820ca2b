// The checksummed artifact container, the one place that knows it.
// Every persistent artifact except the table file (whose streaming
// reader is the scan hot path, matrix/table_file.h) is laid out as
//
//   [magic u32][version u32] body [masked CRC32C u32]
//
// with the CRC32C folded over every preceding byte; versions older
// than the format's `trailer_since` carry no trailer. The body codecs
// (sketch/sketch_io, candgen/candidate_io, serve/similarity_index) only
// move their own fields through an ArtifactWriter / ArtifactReader.
//
// ArtifactWriter opens the file, writes the magic and version, and
// Finish appends the trailer. ArtifactReader checks the magic against
// the format and the version against its accepted range, and knows the
// file size: every Read, and every header-declared count a codec passes
// to CheckCount before it allocates for that count, is bounded by the
// body bytes left, so a truncated or inflated header fails as
// kCorruption instead of driving an allocation. Finish verifies the
// trailer and that no bytes follow the body.
//
// Scalars go through the explicit little-endian helpers in
// util/endian.h; bulk arrays use Write/Read directly (host order,
// guarded by the endian.h static_assert).

#ifndef SANS_UTIL_CHECKSUM_IO_H_
#define SANS_UTIL_CHECKSUM_IO_H_

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>

#include "util/crc32c.h"
#include "util/endian.h"
#include "util/status.h"

namespace sans {

/// RAII FILE handle.
struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

/// One artifact format's container parameters.
struct ArtifactFormat {
  uint32_t magic;
  /// Version writers emit; readers accept [min_version, version].
  uint32_t version;
  uint32_t min_version;
  /// Oldest version carrying the CRC32C trailer.
  uint32_t trailer_since;
  /// Names the artifact in error messages.
  const char* name;
};

/// The scalar types the formats persist; doubles travel as their
/// IEEE-754 bits.
template <typename T>
inline constexpr bool kPersistedScalar =
    std::is_same_v<T, uint32_t> || std::is_same_v<T, uint64_t> ||
    std::is_same_v<T, double>;

/// Writes one artifact: the header on Create, the trailer on Finish.
class ArtifactWriter {
 public:
  static Result<ArtifactWriter> Create(const std::string& path,
                                       const ArtifactFormat& format) {
    ArtifactWriter writer(File(std::fopen(path.c_str(), "wb")));
    if (writer.file_ == nullptr) {
      return Status::IOError("cannot open for writing: " + path);
    }
    SANS_RETURN_IF_ERROR(writer.WriteScalar(format.magic));
    SANS_RETURN_IF_ERROR(writer.WriteScalar(format.version));
    return writer;
  }

  // An empty array may have a null data(), which fwrite must not
  // receive, so a zero size returns early.
  Status Write(const void* data, size_t size) {
    if (size == 0) return Status::OK();
    if (std::fwrite(data, 1, size, file_.get()) != size) {
      return Status::IOError("short write");
    }
    crc_ = Crc32cExtend(crc_, data, size);
    return Status::OK();
  }

  template <typename T>
  Status WriteScalar(T value) {
    static_assert(kPersistedScalar<T>,
                  "persist scalars as uint32_t, uint64_t, or double");
    unsigned char bytes[sizeof(T)];
    if constexpr (sizeof(T) == 4) {
      EncodeLE32(value, bytes);
    } else {
      EncodeLE64(std::bit_cast<uint64_t>(value), bytes);
    }
    return Write(bytes, sizeof(bytes));
  }

  /// Appends the masked checksum trailer (not folded into itself) and
  /// flushes the file.
  Status Finish() {
    unsigned char bytes[4];
    EncodeLE32(Crc32cMask(crc_), bytes);
    if (std::fwrite(bytes, 1, sizeof(bytes), file_.get()) != sizeof(bytes) ||
        std::fflush(file_.get()) != 0) {
      return Status::IOError("short write of crc trailer");
    }
    return Status::OK();
  }

 private:
  explicit ArtifactWriter(File file) : file_(std::move(file)) {}

  File file_;
  uint32_t crc_ = 0;
};

/// Reads one artifact whose header matched its format.
class ArtifactReader {
 public:
  /// Opens `path` (kIOError if it cannot) and checks its magic and
  /// version (kCorruption if they do not match `format`).
  static Result<ArtifactReader> Open(const std::string& path,
                                     const ArtifactFormat& format) {
    ArtifactReader reader(File(std::fopen(path.c_str(), "rb")), format);
    if (reader.file_ == nullptr) {
      return Status::IOError("cannot open for reading: " + path);
    }
    std::error_code error;
    reader.remaining_ = std::filesystem::file_size(path, error);
    if (error) return Status::IOError("cannot stat: " + path);
    uint32_t magic = 0;
    SANS_RETURN_IF_ERROR(reader.ReadScalar(&magic));
    if (magic != format.magic) {
      return Status::Corruption(std::string("bad magic: not a ") + format.name);
    }
    SANS_RETURN_IF_ERROR(reader.ReadScalar(&reader.version_));
    if (reader.version_ < format.min_version ||
        reader.version_ > format.version) {
      return Status::Corruption(std::string("unsupported ") + format.name +
                                " version " + std::to_string(reader.version_));
    }
    if (reader.version_ >= format.trailer_since) {
      if (reader.remaining_ < 4) return reader.Truncated();
      reader.remaining_ -= 4;
    }
    return reader;
  }

  uint32_t version() const { return version_; }

  /// kCorruption, without reading, when fewer than `size` body bytes
  /// are left.
  Status Read(void* data, size_t size) {
    if (size == 0) return Status::OK();
    if (size > remaining_) return Truncated();
    if (std::fread(data, 1, size, file_.get()) != size) {
      return Status::Corruption(std::string("short read of ") + format_.name);
    }
    crc_ = Crc32cExtend(crc_, data, size);
    remaining_ -= size;
    return Status::OK();
  }

  template <typename T>
  Status ReadScalar(T* value) {
    static_assert(kPersistedScalar<T>,
                  "persist scalars as uint32_t, uint64_t, or double");
    unsigned char bytes[sizeof(T)];
    SANS_RETURN_IF_ERROR(Read(bytes, sizeof(bytes)));
    if constexpr (sizeof(T) == 4) {
      *value = DecodeLE32(bytes);
    } else {
      *value = std::bit_cast<T>(DecodeLE64(bytes));
    }
    return Status::OK();
  }

  /// kCorruption unless `count` records of at least `record_bytes`
  /// each fit in the body bytes left. Codecs call it on every
  /// header-declared count before allocating for it.
  Status CheckCount(uint64_t count, uint64_t record_bytes) const {
    if (record_bytes > 0 && count > remaining_ / record_bytes) {
      return Status::Corruption(std::string(format_.name) + " declares " +
                                std::to_string(count) +
                                " records, more than its size holds");
    }
    return Status::OK();
  }

  /// Verifies the trailer (for versions that carry one) and that the
  /// body was consumed exactly.
  Status Finish() {
    if (remaining_ != 0) {
      return Status::Corruption(std::string(format_.name) +
                                " has bytes after its body");
    }
    if (version_ < format_.trailer_since) return Status::OK();
    unsigned char bytes[4];
    if (std::fread(bytes, 1, sizeof(bytes), file_.get()) != sizeof(bytes)) {
      return Truncated();
    }
    if (Crc32cUnmask(DecodeLE32(bytes)) != crc_) {
      return Status::Corruption(std::string("crc mismatch: ") + format_.name +
                                " bytes do not match their checksum");
    }
    return Status::OK();
  }

 private:
  ArtifactReader(File file, const ArtifactFormat& format)
      : file_(std::move(file)), format_(format) {}

  Status Truncated() const {
    return Status::Corruption(std::string(format_.name) + " truncated");
  }

  File file_;
  ArtifactFormat format_;
  uint32_t version_ = 0;
  uint32_t crc_ = 0;
  // Body bytes not yet read: the file size less the header, the
  // trailer, and what Read has consumed.
  uint64_t remaining_ = 0;
};

}  // namespace sans

#endif  // SANS_UTIL_CHECKSUM_IO_H_
