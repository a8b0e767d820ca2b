#include "matrix/row_stream.h"

#include "matrix/block_reader.h"
#include "matrix/matrix_builder.h"

namespace sans {

Result<BinaryMatrix> MaterializeStream(RowStream* stream) {
  SANS_RETURN_IF_ERROR(stream->Reset());
  MatrixBuilder builder(stream->num_rows(), stream->num_cols());
  // The counted block loop fails a truncated scan, so a truncated file
  // cannot materialize as a shorter table.
  SANS_RETURN_IF_ERROR(ForEachStreamBlock(
      stream, [&builder](int, const RowBlock& block) -> Status {
        for (size_t i = 0; i < block.size(); ++i) {
          for (ColumnId c : block.columns(i)) {
            SANS_RETURN_IF_ERROR(builder.Set(block.row(i), c));
          }
        }
        return Status::OK();
      }));
  return std::move(builder).Build();
}

}  // namespace sans
