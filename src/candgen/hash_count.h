// Hash-Count candidate generation (paper Section 3.1): buckets keyed
// by min-hash value store the columns seen so far that carry the
// value; columns are processed in order, and for column c_i each
// bucket visit increments a reused counter for every earlier column
// sharing the value. Costs O(k·S̄·m²) expected counter increments.
//
// Two variants, as in the paper:
//  * K-Min-Hash: one bucket table over all signature values; the
//    per-pair count is |SIG_i ∩ SIG_j|.
//  * Min-Hash: one bucket table per row of M̂; the per-pair count is
//    the number of rows on which the columns agree (same quantity
//    row-sorting computes).
//
// Every variant is a key and threshold function over the flat
// sorted-bucket engine (candgen/flat_buckets.h), which counts each
// pair exactly at any thread count.
//
// Uniform empty-column rule: a column that contributes no bucket keys
// — an empty K-MH signature, or an all-sentinel min-hash column — is
// skipped entirely and never becomes a candidate. (Without the
// min-hash skip, two empty columns would "agree" on the sentinel in
// every row of M̂.)

#ifndef SANS_CANDGEN_HASH_COUNT_H_
#define SANS_CANDGEN_HASH_COUNT_H_

#include <cstdint>

#include "candgen/candidate_set.h"
#include "candgen/flat_buckets.h"
#include "sketch/k_min_hash.h"
#include "sketch/signature_matrix.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sans {

/// Pairs with |SIG_i ∩ SIG_j| >= min_intersection, evidence = the
/// intersection size. min_intersection must be >= 1.
CandidateSet HashCountKMinHash(const KMinHashSketch& sketch,
                               uint64_t min_intersection);

/// Adaptive-threshold variant for sparse data, following Lemma 1: a
/// pair with similarity >= s* has E[|SIG_i ∩ SIG_j|] >=
/// s*·min(k, |C_i ∪ C_j|), and min(k, |C_i ∪ C_j|) >=
/// max(|SIG_i|, |SIG_j|). A pair is kept when
///   |SIG_i ∩ SIG_j| >= max(1, floor(fraction · max(|SIG_i|, |SIG_j|)))
/// so columns far sparser than k (whose intersections can never reach
/// an absolute k-based cut) are filtered proportionally instead.
CandidateSet HashCountKMinHashAdaptive(const KMinHashSketch& sketch,
                                       double fraction);

/// Pairs agreeing on at least `min_agreements` of the k min-hash rows,
/// evidence = the agreement count (the quantity row-sorting computes;
/// RowSorter::Candidates is this function).
CandidateSet HashCountMinHash(const SignatureMatrix& signatures,
                              int min_agreements);

/// Parallel variants: the engine's chunks of probing columns are spread
/// over `pool`; a null pool probes them inline on the calling thread,
/// which is exactly the sequential variant. Output is identical for
/// any pool.
Result<CandidateSet> HashCountKMinHashParallel(const KMinHashSketch& sketch,
                                               uint64_t min_intersection,
                                               ThreadPool* pool);

Result<CandidateSet> HashCountKMinHashAdaptiveParallel(
    const KMinHashSketch& sketch, double fraction, ThreadPool* pool);

Result<CandidateSet> HashCountMinHashParallel(
    const SignatureMatrix& signatures, int min_agreements, ThreadPool* pool);

/// The Min-Hash bucket index: table l holds each non-empty column's
/// value in row l of M̂. Its run statistics give row-sorting's cost.
FlatBuckets MinHashBuckets(const SignatureMatrix& signatures);

/// The K-Min-Hash bucket index: a single table with one key per
/// signature value, so each run is the posting of one value. An empty
/// signature contributes no keys.
FlatBuckets KMinHashBuckets(const KMinHashSketch& sketch);

}  // namespace sans

#endif  // SANS_CANDGEN_HASH_COUNT_H_
