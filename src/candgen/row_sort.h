// Row-Sorting candidate generation (paper Section 3.1): sort each row
// of the signature matrix M̂ by min-hash value so identical values form
// runs; for each column, walk its run in every row and increment a
// reused counter per co-resident column. Expected cost
// O(k·m·log m + k·S̄·m²) — near-linear when the average pairwise
// similarity S̄ is small.
//
// Row-sorting and Min-Hash Hash-Count compute the same agreement
// counts; both run on the flat sorted-bucket engine
// (candgen/flat_buckets.h), whose radix-sorted runs are exactly the
// sorted rows, so RowSorter::Candidates is HashCountMinHash.

#ifndef SANS_CANDGEN_ROW_SORT_H_
#define SANS_CANDGEN_ROW_SORT_H_

#include <cstdint>

#include "candgen/candidate_set.h"
#include "core/types.h"
#include "sketch/signature_matrix.h"

namespace sans {

/// Answers agreement-count queries over a signature matrix. The
/// SignatureMatrix must outlive the sorter.
class RowSorter {
 public:
  explicit RowSorter(const SignatureMatrix* signatures)
      : signatures_(signatures) {}

  /// All pairs whose min-hash signatures agree on at least
  /// `min_agreements` of the k rows, with the agreement count as the
  /// pair's evidence. Empty columns never pair.
  CandidateSet Candidates(int min_agreements) const;

  /// Agreement count for one pair (the number of rows l with
  /// h_l(a) = h_l(b)); exact, O(k). The brute-force reference the
  /// tests check the engine against.
  int AgreementCount(ColumnId a, ColumnId b) const;

  /// Σ len·(len−1) over the runs of non-empty columns' values in every
  /// row — the counter-increment cost the paper's analysis bounds by
  /// k·S̄·m². Exposed for the cost-model tests.
  uint64_t TotalRunIncrements() const;

 private:
  const SignatureMatrix* signatures_;
};

/// Convenience wrapper: return candidates that agree on at least
/// ceil(min_fraction * k) rows (at least 1).
CandidateSet RowSortCandidates(const SignatureMatrix& signatures,
                               double min_fraction);

}  // namespace sans

#endif  // SANS_CANDGEN_ROW_SORT_H_
