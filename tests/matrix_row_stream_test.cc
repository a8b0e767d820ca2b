#include "matrix/row_stream.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "matrix/resilient_row_stream.h"

namespace sans {
namespace {

BinaryMatrix SmallMatrix() {
  auto m = BinaryMatrix::FromRows(3, 4, {{0, 2}, {}, {1, 2, 3}});
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

TEST(InMemoryRowStreamTest, YieldsAllRowsInOrder) {
  const BinaryMatrix m = SmallMatrix();
  InMemoryRowStream stream(&m);
  EXPECT_EQ(stream.num_rows(), 3u);
  EXPECT_EQ(stream.num_cols(), 4u);

  RowView view;
  ASSERT_TRUE(stream.Next(&view));
  EXPECT_EQ(view.row, 0u);
  ASSERT_EQ(view.columns.size(), 2u);
  EXPECT_EQ(view.columns[0], 0u);
  EXPECT_EQ(view.columns[1], 2u);

  ASSERT_TRUE(stream.Next(&view));
  EXPECT_EQ(view.row, 1u);
  EXPECT_TRUE(view.columns.empty());

  ASSERT_TRUE(stream.Next(&view));
  EXPECT_EQ(view.row, 2u);
  EXPECT_EQ(view.columns.size(), 3u);

  EXPECT_FALSE(stream.Next(&view));
  EXPECT_FALSE(stream.Next(&view));  // stays exhausted
}

TEST(InMemoryRowStreamTest, ResetRewinds) {
  const BinaryMatrix m = SmallMatrix();
  InMemoryRowStream stream(&m);
  RowView view;
  while (stream.Next(&view)) {
  }
  ASSERT_TRUE(stream.Reset().ok());
  int rows = 0;
  while (stream.Next(&view)) ++rows;
  EXPECT_EQ(rows, 3);
}

TEST(InMemorySourceTest, OpensIndependentStreams) {
  const BinaryMatrix m = SmallMatrix();
  InMemorySource source(&m);
  EXPECT_EQ(source.num_rows(), 3u);
  EXPECT_EQ(source.num_cols(), 4u);

  auto s1 = source.Open();
  auto s2 = source.Open();
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  RowView v1;
  RowView v2;
  ASSERT_TRUE(s1.value()->Next(&v1));
  // Advancing s1 must not advance s2.
  ASSERT_TRUE(s2.value()->Next(&v2));
  EXPECT_EQ(v2.row, 0u);
}

TEST(MaterializeStreamTest, RoundTripsMatrix) {
  const BinaryMatrix m = SmallMatrix();
  InMemoryRowStream stream(&m);
  auto copy = MaterializeStream(&stream);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->num_rows(), m.num_rows());
  EXPECT_EQ(copy->num_cols(), m.num_cols());
  EXPECT_EQ(copy->num_ones(), m.num_ones());
  for (RowId r = 0; r < m.num_rows(); ++r) {
    const auto a = m.Row(r);
    const auto b = copy->Row(r);
    ASSERT_EQ(std::vector<ColumnId>(a.begin(), a.end()),
              std::vector<ColumnId>(b.begin(), b.end()));
  }
}

TEST(MaterializeStreamTest, WorksOnPartiallyConsumedStream) {
  const BinaryMatrix m = SmallMatrix();
  InMemoryRowStream stream(&m);
  RowView view;
  ASSERT_TRUE(stream.Next(&view));  // consume one row first
  auto copy = MaterializeStream(&stream);  // resets internally
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->num_ones(), m.num_ones());
}

/// A stream that yields scripted (row id, columns) pairs as given, so a
/// test can break the stream contract. A row listed in `bad_rows` is a
/// resumable read error: Next() fails with kCorruption positioned past
/// it, as a table file does on a corrupt payload.
class ScriptedStream final : public RowStream {
 public:
  using ScriptedRow = std::pair<RowId, std::vector<ColumnId>>;

  ScriptedStream(RowId num_rows, ColumnId num_cols,
                 std::vector<ScriptedRow> rows, std::vector<RowId> bad_rows)
      : num_rows_(num_rows),
        num_cols_(num_cols),
        rows_(std::move(rows)),
        bad_rows_(std::move(bad_rows)) {}

  RowId num_rows() const override { return num_rows_; }
  ColumnId num_cols() const override { return num_cols_; }

  bool Next(RowView* out) override {
    status_ = Status::OK();
    if (next_ >= rows_.size()) return false;
    const ScriptedRow& row = rows_[next_++];
    for (RowId bad : bad_rows_) {
      if (bad == row.first) {
        status_ = Status::Corruption("unreadable row " +
                                     std::to_string(row.first));
        return false;
      }
    }
    out->row = row.first;
    out->columns = row.second;
    return true;
  }
  Status stream_status() const override { return status_; }
  Status Reset() override {
    next_ = 0;
    status_ = Status::OK();
    return Status::OK();
  }

 private:
  RowId num_rows_;
  ColumnId num_cols_;
  std::vector<ScriptedRow> rows_;
  std::vector<RowId> bad_rows_;
  size_t next_ = 0;
  Status status_;
};

TEST(MaterializeStreamTest, ContractBreakingRowsAreCorruption) {
  struct Case {
    const char* what;
    std::vector<ScriptedStream::ScriptedRow> rows;
  };
  const std::vector<Case> cases = {
      {"unsorted columns", {{0, {0, 2}}, {1, {3, 1}}}},
      {"duplicate column", {{0, {2, 2}}}},
      {"column out of range", {{0, {1, 4}}}},
      {"row out of range", {{0, {1}}, {3, {2}}}},
      {"row out of order", {{1, {1}}, {0, {2}}}},
      {"row repeated", {{1, {1}}, {1, {2}}}},
  };
  for (const Case& c : cases) {
    ScriptedStream stream(3, 4, c.rows, {});
    const auto m = MaterializeStream(&stream);
    ASSERT_FALSE(m.ok()) << c.what;
    EXPECT_EQ(m.status().code(), StatusCode::kCorruption) << c.what;
  }
}

TEST(MaterializeStreamTest, BuildsNoColumnMajorView) {
  const BinaryMatrix m = SmallMatrix();
  InMemoryRowStream stream(&m);
  auto copy = MaterializeStream(&stream);
  ASSERT_TRUE(copy.ok());
  EXPECT_FALSE(copy->has_column_major());
  EXPECT_EQ(copy->ColumnCardinality(2), 2u);
  copy->EnsureColumnMajor();
  EXPECT_EQ(copy->IntersectionSize(0, 2), 1u);
}

TEST(MaterializeStreamTest, RowSkippedInDegradedModeStaysEmpty) {
  // Row 2 is unreadable; degraded mode drops it, and the materialized
  // table keeps every other row under its own id.
  class Source final : public RowStreamSource {
   public:
    RowId num_rows() const override { return 5; }
    ColumnId num_cols() const override { return 4; }
    Result<std::unique_ptr<RowStream>> Open() const override {
      return std::unique_ptr<RowStream>(std::make_unique<ScriptedStream>(
          5, 4,
          std::vector<ScriptedStream::ScriptedRow>{
              {0, {0, 3}}, {1, {}}, {2, {1, 2}}, {3, {2}}, {4, {0, 1, 3}}},
          std::vector<RowId>{2}));
    }
  } inner;
  ResilienceOptions options;
  options.retry.max_attempts = 1;
  options.retry.base_backoff_ms = 0.0;
  options.retry.max_backoff_ms = 0.0;
  options.degraded_mode = true;
  options.max_skipped_rows = 1;
  ResilienceStats stats;
  ResilientSource source(&inner, options, &stats);
  auto stream = source.Open();
  ASSERT_TRUE(stream.ok());

  auto m = MaterializeStream(stream->get());
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(stats.rows_skipped.load(), 1u);
  ASSERT_EQ(m->num_rows(), 5u);
  const std::vector<std::vector<ColumnId>> expected = {
      {0, 3}, {}, {}, {2}, {0, 1, 3}};
  for (RowId r = 0; r < 5; ++r) {
    EXPECT_EQ(std::vector<ColumnId>(m->Row(r).begin(), m->Row(r).end()),
              expected[r])
        << "row " << r;
  }
  EXPECT_EQ(m->ColumnCardinality(1), 1u);
  EXPECT_EQ(m->ColumnCardinality(2), 1u);
}

}  // namespace
}  // namespace sans
