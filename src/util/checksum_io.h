// Checksummed file I/O shared by every persistent format: a RAII FILE
// handle plus a CrcFile wrapper that folds a CRC32C over every byte
// moved, so the masked trailer of the v2-style formats (table_file,
// sketch_io, candidate_io, serve/similarity_index) is computed and
// verified in the same single pass as the data. Scalars go through the
// explicit little-endian helpers in util/endian.h; bulk arrays use
// Write/Read directly (host order, guarded by the endian.h
// static_assert) — the one place on-disk portability is checked.

#ifndef SANS_UTIL_CHECKSUM_IO_H_
#define SANS_UTIL_CHECKSUM_IO_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <type_traits>

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

/// FILE plus a running CRC32C folded over every byte moved.
struct CrcFile {
  std::FILE* f = nullptr;
  uint32_t crc = 0;

  // An empty array may have a null data(), which fwrite/fread must not
  // receive, so zero sizes return early.
  Status Write(const void* data, size_t size) {
    if (size == 0) return Status::OK();
    if (std::fwrite(data, 1, size, f) != size) {
      return Status::IOError("short write");
    }
    crc = Crc32cExtend(crc, data, size);
    return Status::OK();
  }

  Status Read(void* data, size_t size) {
    if (size == 0) return Status::OK();
    if (std::fread(data, 1, size, f) != size) {
      return Status::Corruption("short read");
    }
    crc = Crc32cExtend(crc, data, size);
    return Status::OK();
  }

  /// Scalar writes/reads in explicit little-endian encoding. Only the
  /// widths the formats actually persist are accepted.
  template <typename T>
  Status WriteScalar(T value) {
    static_assert(std::is_same_v<T, uint32_t> || std::is_same_v<T, uint64_t> ||
                      std::is_same_v<T, double>,
                  "persist scalars as uint32_t, uint64_t, or double");
    unsigned char bytes[sizeof(T)];
    if constexpr (std::is_same_v<T, uint32_t>) {
      EncodeLE32(value, bytes);
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      EncodeLE64(value, bytes);
    } else {
      EncodeLEDouble(value, bytes);
    }
    return Write(bytes, sizeof(bytes));
  }

  template <typename T>
  Status ReadScalar(T* value) {
    static_assert(std::is_same_v<T, uint32_t> || std::is_same_v<T, uint64_t> ||
                      std::is_same_v<T, double>,
                  "persist scalars as uint32_t, uint64_t, or double");
    unsigned char bytes[sizeof(T)];
    SANS_RETURN_IF_ERROR(Read(bytes, sizeof(bytes)));
    if constexpr (std::is_same_v<T, uint32_t>) {
      *value = DecodeLE32(bytes);
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      *value = DecodeLE64(bytes);
    } else {
      *value = DecodeLEDouble(bytes);
    }
    return Status::OK();
  }

  /// Appends the masked checksum trailer (not folded into itself).
  Status WriteTrailer() {
    unsigned char bytes[4];
    EncodeLE32(Crc32cMask(crc), bytes);
    if (std::fwrite(bytes, 1, sizeof(bytes), f) != sizeof(bytes)) {
      return Status::IOError("short write of crc trailer");
    }
    return Status::OK();
  }

  /// Reads the trailer and checks it against the bytes consumed so
  /// far. `what` names the artifact in the error message.
  Status VerifyTrailer(const char* what) {
    const uint32_t expected = crc;
    unsigned char bytes[4];
    if (std::fread(bytes, 1, sizeof(bytes), f) != sizeof(bytes)) {
      return Status::Corruption(std::string("missing crc trailer in ") + what);
    }
    if (Crc32cUnmask(DecodeLE32(bytes)) != expected) {
      return Status::Corruption(std::string("crc mismatch: ") + what +
                                " bytes do not match their checksum");
    }
    return Status::OK();
  }
};

}  // namespace sans

#endif  // SANS_UTIL_CHECKSUM_IO_H_
