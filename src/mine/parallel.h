// Phase-1 scans on the single-scan block pipeline
// (matrix/block_reader.h): one reader scans the RowStreamSource
// exactly once, packs rows into RowBlocks and hands them to
// BlockWorkers(execution, pool) workers. Each worker runs the same
// accumulator — the blocked Min-Hash kernel (sketch_kernels.h) or an
// IncrementalKMinHashBuilder — into a private partial, and partials
// are merged deterministically in worker-id order (element-wise min
// for min-hash signatures, IncrementalKMinHashBuilder::Merge for
// bottom-k sketches), so every function here returns the same bytes
// for any thread count, block size, or scheduling. With a null pool or
// execution.num_threads <= 1 there is one worker, run inline on the
// calling thread.
//
// The phase-3 counterparts, CountCandidatePairsParallel and
// VerifyCandidatesParallel, live in mine/verifier.h (included here).

#ifndef SANS_MINE_PARALLEL_H_
#define SANS_MINE_PARALLEL_H_

#include "matrix/row_stream.h"
#include "mine/verifier.h"
#include "sketch/k_min_hash.h"
#include "sketch/min_hash.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sans {

/// Computes min-hash signatures over one scan of `source`, fanned out
/// to `execution.num_threads` workers on `pool`.
Result<SignatureMatrix> ComputeMinHashParallel(const RowStreamSource& source,
                                               const MinHashConfig& config,
                                               const ExecutionConfig& execution,
                                               ThreadPool* pool);

/// Computes bottom-k sketches (plus exact cardinalities) over one
/// scan. Each worker owns one IncrementalKMinHashBuilder (one k-bounded
/// heap per column); the builders are merged in worker-id order and
/// snapshotted.
Result<KMinHashSketch> ComputeKMinHashParallel(const RowStreamSource& source,
                                               const KMinHashConfig& config,
                                               const ExecutionConfig& execution,
                                               ThreadPool* pool);

}  // namespace sans

#endif  // SANS_MINE_PARALLEL_H_
