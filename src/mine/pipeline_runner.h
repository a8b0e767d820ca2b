// Checkpointed, fault-tolerant driver for the three-phase mining
// pipeline. Each phase (signatures -> candidates -> verify) runs as an
// explicit stage that persists its artifact into a checkpoint
// directory together with a manifest recording the configuration
// fingerprint and a CRC32C per artifact. A run restarted with
// resume = true validates the manifest and reuses every completed
// stage whose artifact still checks out, so a mining job killed after
// the expensive signature scan does not pay for it twice.
//
// The table scans (phase 1 and phase 3) go through ResilientSource,
// so transient I/O faults are retried and — in opt-in degraded mode —
// unreadable rows are skipped against a budget, with all fault
// counters surfaced in the run summary.
//
// Reuse is all-or-nothing per prefix: a stage is only reloaded when
// every stage before it was reloaded too, which keeps a resumed run
// bit-identical to an uninterrupted one (same config, same seeds,
// deterministic phases).

#ifndef SANS_MINE_PIPELINE_RUNNER_H_
#define SANS_MINE_PIPELINE_RUNNER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "matrix/resilient_row_stream.h"
#include "matrix/row_stream.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "mine/hlsh_miner.h"
#include "mine/kmh_miner.h"
#include "mine/mh_miner.h"
#include "mine/miner.h"
#include "mine/mlsh_miner.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sans {

/// Which of the paper's four schemes the pipeline drives.
enum class PipelineAlgorithm { kMh, kKmh, kMlsh, kHlsh };

/// Short lower-case tag ("mh", "kmh", "mlsh", "hlsh").
const char* PipelineAlgorithmName(PipelineAlgorithm algorithm);

/// Configuration of a checkpointed pipeline run. Exactly one of the
/// per-algorithm configs is consulted, selected by `algorithm`.
struct PipelineConfig {
  PipelineAlgorithm algorithm = PipelineAlgorithm::kMlsh;
  /// Similarity threshold s* of the query.
  double threshold = 0.5;

  MhMinerConfig mh;
  KmhMinerConfig kmh;
  MlshMinerConfig mlsh;
  HlshMinerConfig hlsh;

  /// Directory artifacts and the manifest live in (created if absent).
  std::string checkpoint_dir;
  /// When true, completed stages found in checkpoint_dir are validated
  /// and reused; when false, the run starts clean (existing artifacts
  /// are overwritten).
  bool resume = false;

  /// Fault tolerance for the two table scans.
  ResilienceOptions resilience;

  /// Parallel execution knobs shared by all stages. Deliberately
  /// excluded from the checkpoint fingerprint: outputs are
  /// bit-identical for any num_threads, so a run checkpointed at one
  /// thread count may resume at another.
  ExecutionConfig execution;

  /// When non-empty, the structured JSON run report is written here at
  /// the end of a successful run. Observability only — excluded from
  /// the checkpoint fingerprint.
  std::string run_report_path;

  Status Validate() const;
};

/// Calls fn(miner) on the miner `config.algorithm` selects, built from
/// its config with `config.execution`, and returns fn's result. The
/// checkpointed runner and the CLI's plain `sans mine` both dispatch
/// through it.
template <typename Fn>
auto WithSelectedMiner(const PipelineConfig& config, const Fn& fn)
    -> decltype(fn(std::declval<MhMiner&>())) {
  const auto with_execution = [&](auto miner_config) {
    miner_config.execution = config.execution;
    return miner_config;
  };
  switch (config.algorithm) {
    case PipelineAlgorithm::kMh: {
      MhMiner miner(with_execution(config.mh));
      return fn(miner);
    }
    case PipelineAlgorithm::kKmh: {
      KmhMiner miner(with_execution(config.kmh));
      return fn(miner);
    }
    case PipelineAlgorithm::kMlsh: {
      MlshMiner miner(with_execution(config.mlsh));
      return fn(miner);
    }
    case PipelineAlgorithm::kHlsh: {
      HlshMiner miner(with_execution(config.hlsh));
      return fn(miner);
    }
  }
  return Status::InvalidArgument("unknown pipeline algorithm");
}

/// Outcome of a pipeline run: the usual mining report plus checkpoint
/// reuse and fault-tolerance accounting.
struct PipelineRunSummary {
  MiningReport report;

  /// Which stages were reloaded from the checkpoint directory.
  bool reused_signatures = false;
  bool reused_candidates = false;
  bool reused_pairs = false;

  /// Fault counters aggregated over both table scans.
  uint64_t stream_reopens = 0;
  uint64_t open_failures = 0;
  uint64_t rows_skipped = 0;
  /// Row ids dropped in degraded mode (capped listing).
  std::vector<RowId> skipped_rows;

  /// Human-readable event log ("[pipeline] reusing checkpointed
  /// signatures", ...) for the CLI to surface.
  std::vector<std::string> log;

  /// Structured observability report for the run: phase wall times,
  /// scan/candidate/verify counter deltas, and the span trace. Always
  /// populated; also written to config.run_report_path when set.
  RunReport run_report;
};

/// Drives one checkpointed mining run. Stateless apart from the
/// config; Run() may be called repeatedly (e.g. resume attempts).
class PipelineRunner {
 public:
  /// Artifact file names inside checkpoint_dir. The signature artifact
  /// holds whatever phase 1 produces for the configured algorithm: a
  /// signature matrix (mh, mlsh), a bottom-k sketch (kmh), or the
  /// materialized table (hlsh).
  static constexpr const char* kManifestFile = "MANIFEST.json";
  static constexpr const char* kSignaturesFile = "signatures.bin";
  static constexpr const char* kCandidatesFile = "candidates.bin";
  static constexpr const char* kPairsFile = "pairs.bin";

  explicit PipelineRunner(const PipelineConfig& config);

  /// Runs (or resumes) the pipeline over `source`.
  Result<PipelineRunSummary> Run(const RowStreamSource& source) const;

  /// Canonical string covering every output-determining knob plus the
  /// source shape; its hash is the manifest fingerprint. Exposed for
  /// tests.
  std::string FingerprintString(const RowStreamSource& source) const;

  const PipelineConfig& config() const { return config_; }

 private:
  /// Run() for one staged miner: each stage is the miner's Sketch,
  /// Candidates, or the shared verifier, persisted as it completes.
  template <typename StagedMiner>
  Result<PipelineRunSummary> RunStages(StagedMiner& miner,
                                       const RowStreamSource& source) const;

  PipelineConfig config_;
};

/// Assembles the run report of one mining run — the CLI's plain
/// `sans mine` and PipelineRunner both use it: phase wall times from
/// `mining.timers`, headline counts from the counter deltas in the
/// global metrics registry since `before`, and the emitted pair count.
/// `trace_json` is left empty for the caller.
RunReport BuildRunReport(const std::string& algorithm, double threshold,
                         const RowStreamSource& source, int threads,
                         const MiningReport& mining,
                         const MetricsSnapshot& before);

}  // namespace sans

#endif  // SANS_MINE_PIPELINE_RUNNER_H_
