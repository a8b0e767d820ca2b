// The unified three-phase mining pipeline (paper Section 1): every
// algorithm (1) computes signatures in one pass over the table,
// (2) generates candidate pairs in main memory, and (3) verifies the
// candidates exactly in a second pass. Miner is the common interface
// the benchmark harness and examples drive. The four core miners
// expose phases 1-2 as two stage methods, Sketch and Candidates, and
// MineInStages runs them followed by the shared phase-3 verifier; the
// checkpointed PipelineRunner calls the same stage methods.

#ifndef SANS_MINE_MINER_H_
#define SANS_MINE_MINER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "matrix/row_stream.h"
#include "mine/verifier.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sans {

/// Canonical phase names used in MiningReport::timers.
inline constexpr char kPhaseSignatures[] = "1-signatures";
inline constexpr char kPhaseCandidates[] = "2-candidates";
inline constexpr char kPhaseVerify[] = "3-verify";

/// Outcome of a mining run.
struct MiningReport {
  /// Verified pairs with exact similarity >= the query threshold,
  /// sorted by descending similarity.
  std::vector<SimilarPair> pairs;
  /// Candidate pairs handed to the verifier, in ascending pair order —
  /// the phase-2 output whose false positives/negatives the paper's
  /// S-curves describe.
  std::vector<ColumnPair> candidates;
  /// |candidates| (kept alongside for reporting convenience).
  uint64_t num_candidates = 0;
  /// Wall-clock per phase.
  PhaseTimer timers;

  double TotalSeconds() const { return timers.GrandTotal(); }
};

/// A similar-pair mining algorithm over a (possibly disk-resident)
/// table.
class Miner {
 public:
  virtual ~Miner() = default;

  /// Short algorithm tag ("MH", "K-MH", "M-LSH", "H-LSH", ...).
  virtual std::string name() const = 0;

  /// Finds all column pairs with similarity >= threshold. The source
  /// is scanned once for signatures and once for verification.
  virtual Result<MiningReport> Mine(const RowStreamSource& source,
                                    double threshold) = 0;
};

/// Sorts pairs by descending similarity (deterministic tie-break) —
/// shared post-processing for all miners.
void SortPairs(std::vector<SimilarPair>* pairs);

/// Miner::Mine of a staged miner (MhMiner, KmhMiner, MlshMiner,
/// HlshMiner): times `miner.Sketch(source, pool)` as phase 1 and
/// `miner.Candidates(artifact, threshold, pool)` as phase 2, then
/// verifies the candidates exactly in a second scan. The three phases
/// share one pool sized by `execution` (none for one thread).
template <typename StagedMiner>
Result<MiningReport> MineInStages(StagedMiner& miner,
                                  const RowStreamSource& source,
                                  double threshold,
                                  const ExecutionConfig& execution) {
  if (threshold <= 0.0 || threshold > 1.0) {
    return Status::InvalidArgument("threshold must lie in (0, 1]");
  }
  MiningReport report;
  const std::unique_ptr<ThreadPool> pool = MaybeCreatePool(execution);
  {
    auto artifact = [&] {
      ScopedPhase phase(&report.timers, kPhaseSignatures);
      return miner.Sketch(source, pool.get());
    }();
    if (!artifact.ok()) return artifact.status();
    auto candidates = [&] {
      ScopedPhase phase(&report.timers, kPhaseCandidates);
      return miner.Candidates(*artifact, threshold, pool.get());
    }();
    if (!candidates.ok()) return candidates.status();
    report.candidates = candidates->SortedPairs();
  }
  report.num_candidates = report.candidates.size();
  {
    ScopedPhase phase(&report.timers, kPhaseVerify);
    SANS_ASSIGN_OR_RETURN(
        report.pairs,
        VerifyCandidatesParallel(source, report.candidates, threshold,
                                 execution, pool.get()));
  }
  return report;
}

}  // namespace sans

#endif  // SANS_MINE_MINER_H_
