#include "sketch/min_hash.h"

#include <cmath>
#include <vector>

#include "matrix/block_reader.h"
#include "sketch/sketch_kernels.h"

namespace sans {

Status MinHashConfig::Validate() const {
  if (num_hashes <= 0) {
    return Status::InvalidArgument("num_hashes must be positive");
  }
  return Status::OK();
}

int RecommendedNumHashes(double delta, double epsilon, double c) {
  SANS_CHECK_GT(delta, 0.0);
  SANS_CHECK_LT(delta, 1.0);
  SANS_CHECK_GT(epsilon, 0.0);
  SANS_CHECK_LT(epsilon, 1.0);
  SANS_CHECK_GT(c, 0.0);
  const double k = 2.0 / (delta * delta * c) * std::log(1.0 / epsilon);
  return static_cast<int>(std::ceil(k));
}

MinHashGenerator::MinHashGenerator(const MinHashConfig& config)
    : config_(config),
      bank_(config.family, config.num_hashes, config.seed) {
  SANS_CHECK(config.Validate().ok());
}

Result<SignatureMatrix> MinHashGenerator::Compute(
    RowStream* rows, std::vector<uint64_t>* cardinalities) const {
  SANS_RETURN_IF_ERROR(rows->Reset());
  if (cardinalities != nullptr) {
    cardinalities->assign(rows->num_cols(), 0);
  }
  // The blocked kernel batch-hashes each flush's row ids under all k
  // functions and applies the clamp and the column-ordered min-update
  // (see sketch_kernels.h); ComputeMinHashParallel runs the same
  // kernel per worker and the same Finish.
  std::vector<MinHashBlockKernel> kernel;
  kernel.emplace_back(&bank_, rows->num_cols());
  SANS_RETURN_IF_ERROR(ForEachStreamBlock(
      rows, [&](int, const RowBlock& block) -> Status {
        if (cardinalities != nullptr) {
          for (size_t i = 0; i < block.size(); ++i) {
            for (ColumnId c : block.columns(i)) ++(*cardinalities)[c];
          }
        }
        kernel[0].Process(block);
        return Status::OK();
      }));
  return MinHashBlockKernel::Finish(std::move(kernel));
}

}  // namespace sans
