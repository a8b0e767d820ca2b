#include "sketch/k_min_hash.h"

#include <algorithm>

namespace sans {

Status KMinHashConfig::Validate() const {
  if (k <= 0 || k > kMaxSketchK) {
    return Status::InvalidArgument("k must lie in [1, 2^24]");
  }
  return Status::OK();
}

KMinHashSketch::KMinHashSketch(int k, ColumnId num_cols)
    : k_(k), offsets_(num_cols, 0), sizes_(num_cols, 0),
      cardinalities_(num_cols, 0) {
  SANS_CHECK_GT(k, 0);
}

Status KMinHashSketch::SetColumn(ColumnId col,
                                 std::span<const uint64_t> signature,
                                 uint64_t cardinality) {
  if (col >= num_cols()) {
    return Status::OutOfRange("column id exceeds sketch width");
  }
  if (col < next_col_) {
    return Status::InvalidArgument(
        "columns must be installed in ascending order, each once");
  }
  if (signature.size() > static_cast<size_t>(k_)) {
    return Status::InvalidArgument("signature larger than k");
  }
  for (size_t i = 1; i < signature.size(); ++i) {
    if (signature[i] <= signature[i - 1]) {
      return Status::InvalidArgument(
          "signature values must be strictly ascending");
    }
  }
  if (cardinality < signature.size()) {
    return Status::InvalidArgument(
        "cardinality smaller than signature size");
  }
  if (signature.empty() != (cardinality == 0)) {
    return Status::InvalidArgument(
        "empty signature with nonzero cardinality");
  }
  offsets_[col] = values_.size();
  sizes_[col] = static_cast<uint32_t>(signature.size());
  values_.insert(values_.end(), signature.begin(), signature.end());
  cardinalities_[col] = cardinality;
  next_col_ = col + 1;
  return Status::OK();
}

std::vector<uint64_t> MergeSignatures(std::span<const uint64_t> sig_a,
                                      std::span<const uint64_t> sig_b,
                                      int k) {
  std::vector<uint64_t> merged;
  merged.reserve(std::min<size_t>(k, sig_a.size() + sig_b.size()));
  size_t i = 0;
  size_t j = 0;
  while (merged.size() < static_cast<size_t>(k) &&
         (i < sig_a.size() || j < sig_b.size())) {
    uint64_t next;
    if (j >= sig_b.size() || (i < sig_a.size() && sig_a[i] < sig_b[j])) {
      next = sig_a[i++];
    } else if (i >= sig_a.size() || sig_b[j] < sig_a[i]) {
      next = sig_b[j++];
    } else {  // equal: consume both, emit once
      next = sig_a[i];
      ++i;
      ++j;
    }
    merged.push_back(next);
  }
  return merged;
}

}  // namespace sans
