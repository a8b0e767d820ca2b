// Persistence for signature matrices and bottom-k sketches. The paper
// frames M̂ as "a compact representation of the matrix M" — persisting
// it lets phase 2 (candidate generation) rerun with different
// parameters without rescanning the table.
//
// Both files are bodies in the checksummed artifact container
// (util/checksum_io.h). Bodies (little-endian):
//   signature file "SGNS": [k u32][m u32][k*m u64 values, row-major]
//   sketch file "SKCH":    [k u32][m u32] then the sketch columns
//
// The sketch columns are the one bottom-k sketch codec, shared with
// the .sidx index (serve/similarity_index.h): per column
//   [cardinality u64][size u32][size × u64 values]
// Its reader bounds the column count and every size by the bytes left
// before allocating, and rejects any column KMinHashSketch::SetColumn
// refuses, all as kCorruption.
//
// Version 2 (current write format) ends in the container's CRC32C
// trailer, so a truncated or bit-rotted artifact is rejected as
// kCorruption instead of yielding silently wrong similarities. v1
// files (no trailer) still load.

#ifndef SANS_SKETCH_SKETCH_IO_H_
#define SANS_SKETCH_SKETCH_IO_H_

#include <string>

#include "sketch/k_min_hash.h"
#include "sketch/signature_matrix.h"
#include "util/checksum_io.h"
#include "util/status.h"

namespace sans {

inline constexpr ArtifactFormat kSignatureFileFormat{
    0x534e4753u, /*version=*/2, /*min_version=*/1, /*trailer_since=*/2,
    "signature file"};
inline constexpr ArtifactFormat kSketchFileFormat{
    0x48434b53u, /*version=*/2, /*min_version=*/1, /*trailer_since=*/2,
    "sketch file"};

/// Writes a signature matrix to `path`.
Status WriteSignatureMatrix(const SignatureMatrix& signatures,
                            const std::string& path);

/// Reads a signature matrix, validating the header.
Result<SignatureMatrix> ReadSignatureMatrix(const std::string& path);

/// Writes a bottom-k sketch to `path`.
Status WriteKMinHashSketch(const KMinHashSketch& sketch,
                           const std::string& path);

/// Reads a bottom-k sketch, validating the header and every column.
Result<KMinHashSketch> ReadKMinHashSketch(const std::string& path);

/// The sketch codec: every column of `sketch`, in column order.
Status WriteSketchColumns(const KMinHashSketch& sketch, ArtifactWriter* out);

/// Reads `num_cols` sketch columns of capacity `k` written by
/// WriteSketchColumns. kCorruption for a k outside [1, kMaxSketchK] or
/// any malformed column.
Result<KMinHashSketch> ReadSketchColumns(ArtifactReader* in, uint32_t k,
                                         uint32_t num_cols);

}  // namespace sans

#endif  // SANS_SKETCH_SKETCH_IO_H_
