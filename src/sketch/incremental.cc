#include "sketch/incremental.h"

#include <algorithm>

#include "matrix/block_reader.h"
#include "sketch/signature_matrix.h"
#include "sketch/sketch_kernels.h"

namespace sans {

IncrementalKMinHashBuilder::IncrementalKMinHashBuilder(
    const KMinHashConfig& config, ColumnId num_cols)
    : config_(config), hasher_(config.family, config.seed) {
  SANS_CHECK(config.Validate().ok());
  heaps_.reserve(num_cols);
  for (ColumnId c = 0; c < num_cols; ++c) {
    heaps_.emplace_back(static_cast<size_t>(config.k));
  }
  cardinalities_.assign(num_cols, 0);
}

namespace {

Status CheckWidth(std::span<const ColumnId> columns, ColumnId num_cols) {
  for (ColumnId c : columns) {
    if (c >= num_cols) {
      return Status::OutOfRange("column id exceeds builder width");
    }
  }
  return Status::OK();
}

}  // namespace

void IncrementalKMinHashBuilder::Absorb(uint64_t value,
                                        std::span<const ColumnId> columns) {
  for (ColumnId c : columns) {
    heaps_[c].Offer(value);
    ++cardinalities_[c];
  }
}

Status IncrementalKMinHashBuilder::AddRow(
    RowId row, std::span<const ColumnId> columns) {
  SANS_RETURN_IF_ERROR(CheckWidth(columns, num_cols()));
  if (!columns.empty()) {
    // Shared clamp keeps the empty-column sentinel unreachable, exactly
    // as on the batch path.
    Absorb(HashRowClamped(hasher_, row), columns);
  }
  ++rows_ingested_;
  return Status::OK();
}

Status IncrementalKMinHashBuilder::AddBlock(const RowBlock& block) {
  for (size_t i = 0; i < block.size(); ++i) {
    SANS_RETURN_IF_ERROR(CheckWidth(block.columns(i), num_cols()));
  }
  keys_.clear();
  for (size_t i = 0; i < block.size(); ++i) keys_.push_back(block.row(i));
  HashBlockClamped(hasher_, keys_, &values_);
  for (size_t i = 0; i < block.size(); ++i) {
    Absorb(values_[i], block.columns(i));
  }
  rows_ingested_ += block.size();
  return Status::OK();
}

Status IncrementalKMinHashBuilder::AddAll(RowStream* rows) {
  SANS_RETURN_IF_ERROR(rows->Reset());
  return ForEachStreamBlock(rows, [this](int, const RowBlock& block) {
    return AddBlock(block);
  });
}

Status IncrementalKMinHashBuilder::Merge(
    const IncrementalKMinHashBuilder& other) {
  if (other.config_.k != config_.k ||
      other.config_.family != config_.family ||
      other.config_.seed != config_.seed) {
    return Status::InvalidArgument(
        "builders must share k, hash family, and seed to merge");
  }
  if (other.num_cols() != num_cols()) {
    return Status::InvalidArgument("builders must share the column width");
  }
  for (ColumnId c = 0; c < num_cols(); ++c) {
    for (uint64_t value : other.heaps_[c].SortedValues()) {
      heaps_[c].Offer(value);
    }
    cardinalities_[c] += other.cardinalities_[c];
  }
  rows_ingested_ += other.rows_ingested_;
  return Status::OK();
}

KMinHashSketch IncrementalKMinHashBuilder::Snapshot() const {
  KMinHashSketch sketch(config_.k, num_cols());
  for (ColumnId c = 0; c < num_cols(); ++c) {
    std::vector<uint64_t> signature = heaps_[c].SortedValues();
    // Distinct rows hash to distinct values for the bijective families
    // (splitmix64, multiply-shift); tabulation can collide, so the
    // heaps keep duplicates (merging them as multisets keeps merged
    // builders equal to one builder over all rows) and only the
    // snapshot deduplicates, preserving the "sample of distinct rows"
    // semantics of Proposition 2.
    signature.erase(std::unique(signature.begin(), signature.end()),
                    signature.end());
    SANS_CHECK(
        sketch.SetColumn(c, std::move(signature), cardinalities_[c])
            .ok());
  }
  return sketch;
}

}  // namespace sans
