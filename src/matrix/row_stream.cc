#include "matrix/row_stream.h"

#include "matrix/block_reader.h"

namespace sans {

Result<BinaryMatrix> MaterializeStream(RowStream* stream) {
  SANS_RETURN_IF_ERROR(stream->Reset());
  RowAppender appender(stream->num_rows(), stream->num_cols());
  // The counted block loop fails a truncated scan, so a truncated file
  // cannot materialize as a shorter table. Blocks arrive in scan order,
  // so each row appends in place; a row the stream contract forbids
  // (out of order or out of range) is corrupt input.
  SANS_RETURN_IF_ERROR(ForEachStreamBlock(
      stream, [&appender](int, const RowBlock& block) -> Status {
        for (size_t i = 0; i < block.size(); ++i) {
          if (Status s = appender.Append(block.row(i), block.columns(i));
              !s.ok()) {
            return Status::Corruption("row stream broke its contract: " +
                                      s.message());
          }
        }
        return Status::OK();
      }));
  return std::move(appender).Finish();
}

}  // namespace sans
