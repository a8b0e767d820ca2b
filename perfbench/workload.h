// The benchmark's workloads: which table each one generates, at what
// size, how many threads mine it and how many connections query it,
// plus the seeded request list the serve phase replays.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "matrix/binary_matrix.h"
#include "util/status.h"

namespace perfbench {

/// Which data/ generator builds the table.
enum class TableKind { kSynthetic, kWeblog, kNews };

struct Workload {
  std::string name;
  TableKind kind = TableKind::kSynthetic;
  sans::RowId rows = 0;
  sans::ColumnId cols = 0;
  /// ExecutionConfig::num_threads for every miner and the index build.
  int mine_threads = 1;
  /// Server worker threads and client connections of the serve phase.
  int server_workers = 1;
  int connections = 1;
};

/// The named benchmark workloads; nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);
const std::vector<Workload>& AllWorkloads();

/// Generates the workload's table with its data/ generator, with the
/// parameters `sans generate` uses for that kind.
sans::Result<sans::BinaryMatrix> GenerateTable(const Workload& workload,
                                               uint64_t seed);

/// One request of the serve phase.
struct Request {
  enum Kind { kTopK, kPair };
  Kind kind = kTopK;
  sans::ColumnId a = 0;
  /// Second column of a kPair request.
  sans::ColumnId b = 0;
};

/// A fixed request list drawn from `seed`: columns are ranked by
/// cardinality (descending, ties by id), empty columns skipped, and
/// each TopK column and each pair member is a Zipf(1) draw over those
/// ranks. TopK and pair requests alternate in runs of 44. Needs at
/// least two non-empty columns.
sans::Result<std::vector<Request>> MakeRequests(
    const sans::BinaryMatrix& matrix, int topk_requests, int pair_requests,
    uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
