// OR-folding for the Hamming-LSH scheme (paper Section 4.2): the
// matrix M_{i+1} is obtained from M_i "by randomly pairing all rows of
// M_i, and placing in M_{i+1} the OR of each pair", halving the row
// count and roughly doubling column densities at each level. The
// paper's footnote observes this is equivalent to hashing each column
// into increasingly smaller tables.
//
// Each level needs only its rows and its column densities, and is used
// by its own runs and then never again, so H-LSH folds one level at a
// time (candgen/hamming_lsh.cc) and never holds the whole pyramid.

#ifndef SANS_MATRIX_OR_FOLD_H_
#define SANS_MATRIX_OR_FOLD_H_

#include "matrix/binary_matrix.h"
#include "util/random.h"

namespace sans {

/// Produces the OR-fold of `matrix`: rows are randomly paired (via
/// `rng`) and each output row is the union of its pair. With an odd
/// row count the leftover row passes through unchanged. The result
/// has ceil(num_rows/2) rows and the same columns. The union rows
/// append straight into the result's CSR arrays, so it has column
/// cardinalities but no column-major view.
BinaryMatrix OrFold(const BinaryMatrix& matrix, Xoshiro256* rng);

/// The height of the OR-fold pyramid M_0 = M, M_1 = OrFold(M_0), ...
/// over a `num_rows`-row matrix: levels are added until either
/// `max_levels` exist or the top level has at most `min_rows` rows.
/// Depends on the row counts alone (level i has ceil(n / 2^i) rows).
int NumOrFoldLevels(RowId num_rows, int max_levels, RowId min_rows);

}  // namespace sans

#endif  // SANS_MATRIX_OR_FOLD_H_
