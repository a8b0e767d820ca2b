// The two kinds of benchmark run over one workload.
//
// RunEndToEnd: generate + write the table (setup), compute exact truth,
// then mine it round-robin with all four miners, a checkpointed run and
// an index build (mh, kmh, mlsh, hlsh, ckpt, index, mh, ...) until the
// time budget is spent, replaying slices of the seeded request list
// against a loopback Server between operations. Timings are medians
// over the rounds, scaled to a nominal host speed by a fixed probe
// timed between the operations (runner.cc, HostProbeSeconds).
//
// RunTraced: the same sequence, alternating an untraced round with a
// traced one that rebuilds each miner from the public phase functions
// Miner::Mine calls, wrapped in spans; plus the per-layer probes of the
// serve path. Reports per-layer metrics and the tracing overhead.
//
// Failed output checks are counted as failed operations, never hidden.
// An error Status means the run itself could not proceed (no table
// file, no server socket) and produces no result.

#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"
#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  /// Seeds the table, the miners' hash functions and the request list.
  uint64_t seed = 1;
  /// Time budget of the round-robin mining loop.
  double seconds = 10.0;
  /// Work directory for the table, checkpoints, index and trace.
  std::string work_dir;
};

struct RunResult {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Value of the named metric; aborts if absent.
  double Value(const std::string& name) const;
};

sans::Result<RunResult> RunEndToEnd(const Workload& workload,
                                    const RunOptions& options);

sans::Result<RunResult> RunTraced(const Workload& workload,
                                  const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
