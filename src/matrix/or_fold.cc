#include "matrix/or_fold.h"

#include <algorithm>
#include <iterator>
#include <vector>

namespace sans {

BinaryMatrix OrFold(const BinaryMatrix& matrix, Xoshiro256* rng) {
  const RowId n = matrix.num_rows();
  std::vector<RowId> order(n);
  for (RowId r = 0; r < n; ++r) order[r] = r;
  rng->Shuffle(&order);

  const RowId out_rows = n / 2 + n % 2;
  RowAppender appender(out_rows, matrix.num_cols());
  appender.Reserve(matrix.num_ones());
  std::vector<ColumnId> merged;
  for (RowId out = 0; out < out_rows; ++out) {
    const auto a = matrix.Row(order[2 * out]);
    if (2 * out + 1 == n) {
      SANS_CHECK(appender.Append(out, a).ok());
      continue;
    }
    const auto b = matrix.Row(order[2 * out + 1]);
    merged.clear();
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(merged));
    SANS_CHECK(appender.Append(out, merged).ok());
  }
  return std::move(appender).Finish();
}

int NumOrFoldLevels(RowId num_rows, int max_levels, RowId min_rows) {
  SANS_CHECK_GE(max_levels, 1);
  int levels = 1;
  for (RowId rows = num_rows; levels < max_levels && rows > min_rows;
       ++levels) {
    rows = rows / 2 + rows % 2;
  }
  return levels;
}

}  // namespace sans
