#include "candgen/row_sort.h"

#include <algorithm>
#include <cmath>

#include "candgen/hash_count.h"
#include "util/status.h"

namespace sans {

CandidateSet RowSorter::Candidates(int min_agreements) const {
  return HashCountMinHash(*signatures_, min_agreements);
}

int RowSorter::AgreementCount(ColumnId a, ColumnId b) const {
  int count = 0;
  for (int l = 0; l < signatures_->num_hashes(); ++l) {
    if (signatures_->Value(l, a) == signatures_->Value(l, b)) ++count;
  }
  return count;
}

uint64_t RowSorter::TotalRunIncrements() const {
  const FlatBuckets buckets = MinHashBuckets(*signatures_);
  uint64_t total = 0;
  // Each column in a run of length L increments L-1 counters.
  for (const BucketRunStats& row : buckets.run_stats()) total += 2 * row.pairs;
  return total;
}

CandidateSet RowSortCandidates(const SignatureMatrix& signatures,
                               double min_fraction) {
  SANS_CHECK_GE(min_fraction, 0.0);
  SANS_CHECK_LE(min_fraction, 1.0);
  const int k = signatures.num_hashes();
  const int min_agreements =
      std::max(1, static_cast<int>(std::ceil(min_fraction * k)));
  return HashCountMinHash(signatures, min_agreements);
}

}  // namespace sans
