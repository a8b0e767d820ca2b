// Persistence for phase-2 candidate sets and phase-3 verified pairs —
// the checkpoint artifacts of the fault-tolerant pipeline runner. Both
// formats carry the v2-style masked CRC32C trailer so a torn or
// bit-rotted checkpoint is rejected as kCorruption and the stage is
// recomputed instead of resumed from garbage.
//
// Formats (little-endian):
//   candidate file: [magic u32 "CNDS"][version u32][count u64]
//                   per entry: [first u32][second u32][count u64]
//                   [masked CRC32C u32]
//   pairs file:     [magic u32 "PRSS"][version u32][count u64]
//                   per entry: [first u32][second u32][similarity f64]
//                   [masked CRC32C u32]
//
// Entries are written in ascending pair order (for candidates) and in
// the miner's output order (for pairs), so a reloaded artifact is
// bit-identical to the freshly computed one.

#ifndef SANS_CANDGEN_CANDIDATE_IO_H_
#define SANS_CANDGEN_CANDIDATE_IO_H_

#include <string>
#include <vector>

#include "candgen/candidate_set.h"
#include "core/types.h"
#include "util/status.h"

namespace sans {

inline constexpr uint32_t kCandidateFileMagic = 0x53444e43u;  // "CNDS"
inline constexpr uint32_t kPairsFileMagic = 0x53535250u;      // "PRSS"
inline constexpr uint32_t kCandidateIoVersion = 1;

/// Writes a candidate set (pairs + evidence counts, ascending order).
Status WriteCandidateSet(const CandidateSet& candidates,
                         const std::string& path);

/// Reads a candidate set, validating the trailer checksum and the
/// strictly ascending entry order (kCorruption otherwise).
Result<CandidateSet> ReadCandidateSet(const std::string& path);

/// Writes verified similar pairs with their exact similarities.
Status WriteSimilarPairs(const std::vector<SimilarPair>& pairs,
                         const std::string& path);

/// Reads verified similar pairs, validating the trailer checksum.
Result<std::vector<SimilarPair>> ReadSimilarPairs(const std::string& path);

}  // namespace sans

#endif  // SANS_CANDGEN_CANDIDATE_IO_H_
