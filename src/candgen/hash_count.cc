#include "candgen/hash_count.h"

#include <algorithm>

#include "util/status.h"

namespace sans {
namespace {

// K-MH's single bucket table: one key per signature value.
FlatBuckets KMinHashBuckets(const KMinHashSketch& sketch) {
  return FlatBuckets(sketch.num_cols(), 1, sketch.TotalSignatureSize(),
                     [&](uint32_t, const auto& add) {
                       for (ColumnId c = 0; c < sketch.num_cols(); ++c) {
                         for (uint64_t value : sketch.Signature(c)) {
                           add(c, value);
                         }
                       }
                     });
}

}  // namespace

FlatBuckets MinHashBuckets(const SignatureMatrix& signatures) {
  const ColumnId m = signatures.num_cols();
  const int k = signatures.num_hashes();
  // One bucket table per row of M̂ (paper: "we use a different hash
  // table (and set of buckets) for each row").
  return FlatBuckets(m, static_cast<uint32_t>(k), static_cast<size_t>(m) * k,
                     [&](uint32_t l, const auto& add) {
                       const auto row = signatures.HashRow(l);
                       for (ColumnId c = 0; c < m; ++c) {
                         // Uniform empty-column rule.
                         if (!signatures.ColumnEmpty(c)) add(c, row[c]);
                       }
                     });
}

CandidateSet HashCountKMinHash(const KMinHashSketch& sketch,
                               uint64_t min_intersection) {
  return HashCountKMinHashParallel(sketch, min_intersection, nullptr).value();
}

CandidateSet HashCountKMinHashAdaptive(const KMinHashSketch& sketch,
                                       double fraction) {
  return HashCountKMinHashAdaptiveParallel(sketch, fraction, nullptr).value();
}

CandidateSet HashCountMinHash(const SignatureMatrix& signatures,
                              int min_agreements) {
  return HashCountMinHashParallel(signatures, min_agreements, nullptr).value();
}

Result<CandidateSet> HashCountKMinHashParallel(const KMinHashSketch& sketch,
                                               uint64_t min_intersection,
                                               ThreadPool* pool) {
  SANS_CHECK_GE(min_intersection, 1u);
  return KMinHashBuckets(sketch).Count(
      pool, [&](ColumnId, ColumnId, uint64_t count) {
        return count >= min_intersection;
      });
}

Result<CandidateSet> HashCountKMinHashAdaptiveParallel(
    const KMinHashSketch& sketch, double fraction, ThreadPool* pool) {
  SANS_CHECK_GE(fraction, 0.0);
  SANS_CHECK_LE(fraction, 1.0);
  // Per-pair threshold (Lemma 1; see header):
  // max(1, floor(fraction * max(|SIG_i|, |SIG_j|))).
  return KMinHashBuckets(sketch).Count(
      pool, [&](ColumnId j, ColumnId i, uint64_t count) {
        const size_t larger_sig = std::max(sketch.Signature(i).size(),
                                           sketch.Signature(j).size());
        return count >= std::max<uint64_t>(
                            1, static_cast<uint64_t>(
                                   fraction * static_cast<double>(larger_sig)));
      });
}

Result<CandidateSet> HashCountMinHashParallel(
    const SignatureMatrix& signatures, int min_agreements, ThreadPool* pool) {
  SANS_CHECK_GE(min_agreements, 1);
  return MinHashBuckets(signatures).Count(
      pool, [&](ColumnId, ColumnId, uint64_t count) {
        return count >= static_cast<uint64_t>(min_agreements);
      });
}

}  // namespace sans
