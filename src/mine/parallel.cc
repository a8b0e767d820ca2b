#include "mine/parallel.h"

#include <utility>
#include <vector>

#include "matrix/block_reader.h"
#include "sketch/incremental.h"
#include "sketch/sketch_kernels.h"

namespace sans {

Result<SignatureMatrix> ComputeMinHashParallel(
    const RowStreamSource& source, const MinHashConfig& config,
    const ExecutionConfig& execution, ThreadPool* pool) {
  SANS_RETURN_IF_ERROR(config.Validate());
  SANS_RETURN_IF_ERROR(execution.Validate());
  const int workers = BlockWorkers(execution, pool);
  // The bank is read-only after construction and shared across
  // workers; each worker owns a blocked kernel holding its partial
  // minima.
  HashFunctionBank bank(config.family, config.num_hashes, config.seed);
  std::vector<MinHashBlockKernel> kernels;
  kernels.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    kernels.emplace_back(&bank, source.num_cols());
  }

  SANS_RETURN_IF_ERROR(ForEachRowBlock(
      source, execution, pool,
      [&](int worker, const RowBlock& block) -> Status {
        kernels[worker].Process(block);
        return Status::OK();
      }));
  return MinHashBlockKernel::Finish(std::move(kernels));
}

Result<KMinHashSketch> ComputeKMinHashParallel(
    const RowStreamSource& source, const KMinHashConfig& config,
    const ExecutionConfig& execution, ThreadPool* pool) {
  SANS_RETURN_IF_ERROR(config.Validate());
  SANS_RETURN_IF_ERROR(execution.Validate());
  const int workers = BlockWorkers(execution, pool);
  std::vector<IncrementalKMinHashBuilder> builders;
  builders.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    builders.emplace_back(config, source.num_cols());
  }

  SANS_RETURN_IF_ERROR(ForEachRowBlock(
      source, execution, pool,
      [&](int worker, const RowBlock& block) {
        return builders[worker].AddBlock(block);
      }));

  // Each worker's heaps hold the k smallest values of its row subset
  // (as a multiset); merging offers them into worker 0's heaps, which
  // then hold the k smallest of the union, exactly what one builder
  // over every row would hold.
  for (int w = 1; w < workers; ++w) {
    SANS_RETURN_IF_ERROR(builders[0].Merge(builders[w]));
  }
  return builders[0].Snapshot();
}

}  // namespace sans
