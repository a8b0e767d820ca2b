#include "mine/pipeline_runner.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <type_traits>

#include "candgen/candidate_io.h"
#include "candgen/candidate_set.h"
#include "matrix/table_file.h"
#include "mine/verifier.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sketch/sketch_io.h"
#include "util/crc32c.h"

namespace sans {

const char* PipelineAlgorithmName(PipelineAlgorithm algorithm) {
  switch (algorithm) {
    case PipelineAlgorithm::kMh:
      return "mh";
    case PipelineAlgorithm::kKmh:
      return "kmh";
    case PipelineAlgorithm::kMlsh:
      return "mlsh";
    case PipelineAlgorithm::kHlsh:
      return "hlsh";
  }
  return "unknown";
}

Status PipelineConfig::Validate() const {
  if (threshold <= 0.0 || threshold > 1.0) {
    return Status::InvalidArgument("threshold must lie in (0, 1]");
  }
  if (checkpoint_dir.empty()) {
    return Status::InvalidArgument("checkpoint_dir must not be empty");
  }
  SANS_RETURN_IF_ERROR(resilience.Validate());
  SANS_RETURN_IF_ERROR(execution.Validate());
  switch (algorithm) {
    case PipelineAlgorithm::kMh:
      return mh.Validate();
    case PipelineAlgorithm::kKmh:
      return kmh.Validate();
    case PipelineAlgorithm::kMlsh:
      return mlsh.Validate();
    case PipelineAlgorithm::kHlsh:
      return hlsh.Validate();
  }
  return Status::InvalidArgument("unknown pipeline algorithm");
}

namespace {

/// Pipeline stages in dependency order; manifest entries use these
/// names.
enum StageIndex { kStageSignatures = 0, kStageCandidates, kStagePairs };
constexpr const char* kStageNames[] = {"signatures", "candidates", "pairs"};
constexpr int kNumStages = 3;
// Per stage: artifact file, phase timer name, and what the log calls
// its output.
constexpr const char* kStageFiles[] = {PipelineRunner::kSignaturesFile,
                                       PipelineRunner::kCandidatesFile,
                                       PipelineRunner::kPairsFile};
constexpr const char* kStagePhases[] = {kPhaseSignatures, kPhaseCandidates,
                                        kPhaseVerify};
constexpr const char* kStageOutputs[] = {"signatures", "candidates",
                                         "verified pairs"};

struct ManifestStage {
  std::string file;
  uint32_t crc = 0;
};

struct Manifest {
  std::string fingerprint;
  std::optional<ManifestStage> stages[kNumStages];
};

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string HexU64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string HexU32(uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08lx", static_cast<unsigned long>(v));
  return buf;
}

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Whole-file CRC32C, streamed in chunks.
Result<uint32_t> Crc32cOfFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open for reading: " + path);
  }
  uint32_t crc = 0;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    crc = Crc32cExtend(crc, buf, n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    return Status::IOError("read failed: " + path);
  }
  return crc;
}

/// Extracts the string after `"key": "` starting at `from`; nullopt if
/// the key is absent. Sufficient for the manifests this runner itself
/// writes; anything mangled simply fails to parse and forces a clean
/// recompute.
std::optional<std::string> JsonString(const std::string& text,
                                      const std::string& key,
                                      size_t from = 0) {
  const std::string needle = "\"" + key + "\": \"";
  const size_t pos = text.find(needle, from);
  if (pos == std::string::npos) return std::nullopt;
  const size_t start = pos + needle.size();
  const size_t end = text.find('"', start);
  if (end == std::string::npos) return std::nullopt;
  return text.substr(start, end - start);
}

Result<Manifest> LoadManifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("no manifest at " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  Manifest manifest;
  std::optional<std::string> fingerprint = JsonString(text, "fingerprint");
  if (!fingerprint.has_value()) {
    return Status::Corruption("manifest missing fingerprint: " + path);
  }
  manifest.fingerprint = *fingerprint;
  for (int i = 0; i < kNumStages; ++i) {
    const std::string needle =
        std::string("\"name\": \"") + kStageNames[i] + "\"";
    const size_t pos = text.find(needle);
    if (pos == std::string::npos) continue;
    std::optional<std::string> file = JsonString(text, "file", pos);
    std::optional<std::string> crc = JsonString(text, "crc32c", pos);
    if (!file.has_value() || !crc.has_value()) {
      return Status::Corruption("manifest stage entry malformed: " + path);
    }
    char* end = nullptr;
    const unsigned long value = std::strtoul(crc->c_str(), &end, 16);
    if (end == crc->c_str() || *end != '\0' || value > 0xfffffffful) {
      return Status::Corruption("manifest crc malformed: " + path);
    }
    manifest.stages[i] =
        ManifestStage{*file, static_cast<uint32_t>(value)};
  }
  return manifest;
}

/// Serializes and atomically replaces the manifest (tmp + rename), so
/// a crash mid-write leaves either the old manifest or the new one,
/// never a torn file.
Status WriteManifest(const std::string& path, const std::string& algorithm,
                     const Manifest& manifest) {
  std::string text = "{\n  \"format\": 1,\n  \"algorithm\": \"" + algorithm +
                     "\",\n  \"fingerprint\": \"" + manifest.fingerprint +
                     "\",\n  \"stages\": [\n";
  bool first = true;
  for (int i = 0; i < kNumStages; ++i) {
    if (!manifest.stages[i].has_value()) continue;
    if (!first) text += ",\n";
    first = false;
    text += std::string("    {\"name\": \"") + kStageNames[i] +
            "\", \"file\": \"" + manifest.stages[i]->file +
            "\", \"crc32c\": \"" + HexU32(manifest.stages[i]->crc) + "\"}";
  }
  text += "\n  ]\n}\n";

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open for writing: " + tmp);
  }
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (!wrote || !flushed) {
    std::remove(tmp.c_str());
    return Status::IOError("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("rename failed: " + path);
  }
  return Status::OK();
}

}  // namespace

PipelineRunner::PipelineRunner(const PipelineConfig& config)
    : config_(config) {
  SANS_CHECK(config.Validate().ok());
}

std::string PipelineRunner::FingerprintString(
    const RowStreamSource& source) const {
  // Every knob that can change any stage's output must appear here;
  // source shape stands in for the input identity (the checkpoint dir
  // is expected to be per-dataset). ExecutionConfig is deliberately
  // absent: outputs are bit-identical for any thread count, so a
  // checkpoint taken at one num_threads must resume at another.
  std::string s = "v1;algorithm=";
  s += PipelineAlgorithmName(config_.algorithm);
  s += ";threshold=" + FormatDouble(config_.threshold);
  s += ";rows=" + std::to_string(source.num_rows());
  s += ";cols=" + std::to_string(source.num_cols());
  s += ";degraded=" + std::string(config_.resilience.degraded_mode ? "1" : "0");
  s += ";max_skipped=" + std::to_string(config_.resilience.max_skipped_rows);
  switch (config_.algorithm) {
    case PipelineAlgorithm::kMh:
      s += ";k=" + std::to_string(config_.mh.min_hash.num_hashes);
      s += ";family=" +
           std::to_string(static_cast<int>(config_.mh.min_hash.family));
      s += ";seed=" + std::to_string(config_.mh.min_hash.seed);
      // MH once chose between row-sorting (0) and hash-counting (1);
      // the fixed entry keeps existing checkpoints resumable.
      s += ";candgen=0";
      s += ";delta=" + FormatDouble(config_.mh.delta);
      break;
    case PipelineAlgorithm::kKmh:
      s += ";k=" + std::to_string(config_.kmh.sketch.k);
      s += ";family=" +
           std::to_string(static_cast<int>(config_.kmh.sketch.family));
      s += ";seed=" + std::to_string(config_.kmh.sketch.seed);
      s += ";slack=" + FormatDouble(config_.kmh.hash_count_slack);
      s += ";delta=" + FormatDouble(config_.kmh.delta);
      s += ";unbiased=" + std::string(config_.kmh.unbiased_pruning ? "1" : "0");
      break;
    case PipelineAlgorithm::kMlsh:
      s += ";r=" + std::to_string(config_.mlsh.lsh.rows_per_band);
      s += ";l=" + std::to_string(config_.mlsh.lsh.num_bands);
      s += ";sampled=" + std::string(config_.mlsh.lsh.sampled ? "1" : "0");
      s += ";num_hashes=" + std::to_string(config_.mlsh.num_hashes);
      s += ";family=" +
           std::to_string(static_cast<int>(config_.mlsh.family));
      s += ";seed=" + std::to_string(config_.mlsh.seed);
      break;
    case PipelineAlgorithm::kHlsh:
      s += ";r=" + std::to_string(config_.hlsh.lsh.rows_per_run);
      s += ";runs=" + std::to_string(config_.hlsh.lsh.num_runs);
      s += ";band=" + std::to_string(config_.hlsh.lsh.density_band);
      s += ";min_rows=" + std::to_string(config_.hlsh.lsh.min_rows);
      s += ";max_levels=" + std::to_string(config_.hlsh.lsh.max_levels);
      s += ";skip_zero=" +
           std::string(config_.hlsh.lsh.skip_zero_keys ? "1" : "0");
      s += ";seed=" + std::to_string(config_.hlsh.lsh.seed);
      break;
  }
  return s;
}

namespace {

// Stage artifact I/O, one overload per artifact type: the three
// phase-1 artifacts (signature matrix, bottom-k sketch, materialized
// table), the candidate set, and the verified pairs.
Status WriteArtifact(const SignatureMatrix& signatures,
                     const std::string& path) {
  return WriteSignatureMatrix(signatures, path);
}
Status WriteArtifact(const KMinHashSketch& sketch, const std::string& path) {
  return WriteKMinHashSketch(sketch, path);
}
Status WriteArtifact(const BinaryMatrix& table, const std::string& path) {
  return WriteTableFile(table, path);
}
Status WriteArtifact(const CandidateSet& candidates,
                     const std::string& path) {
  return WriteCandidateSet(candidates, path);
}
Status WriteArtifact(const std::vector<SimilarPair>& pairs,
                     const std::string& path) {
  return WriteSimilarPairs(pairs, path);
}

template <typename Artifact>
Result<Artifact> ReadArtifact(const std::string& path);
template <>
Result<SignatureMatrix> ReadArtifact(const std::string& path) {
  return ReadSignatureMatrix(path);
}
template <>
Result<KMinHashSketch> ReadArtifact(const std::string& path) {
  return ReadKMinHashSketch(path);
}
template <>
Result<BinaryMatrix> ReadArtifact(const std::string& path) {
  return ReadTableFile(path);
}
template <>
Result<CandidateSet> ReadArtifact(const std::string& path) {
  return ReadCandidateSet(path);
}
template <>
Result<std::vector<SimilarPair>> ReadArtifact(const std::string& path) {
  return ReadSimilarPairs(path);
}

}  // namespace

RunReport BuildRunReport(const std::string& algorithm, double threshold,
                         const RowStreamSource& source, int threads,
                         const MiningReport& mining,
                         const MetricsSnapshot& before) {
  RunReport report;
  report.algorithm = algorithm;
  report.threshold = threshold;
  report.table_rows = source.num_rows();
  report.table_cols = source.num_cols();
  report.threads = threads;
  // PhaseTimer keys sort in pipeline order by construction
  // ("1-signatures" < "2-candidates" < "3-verify"); a stage reused
  // from a checkpoint has no timer entry and is absent, which the
  // report reads as "paid nothing".
  for (const auto& [phase, seconds] : mining.timers.totals()) {
    report.phases.push_back(RunReport::Phase{phase, seconds});
  }
  report.metric_deltas =
      CounterDeltas(before, MetricsRegistry::Global().Snapshot());
  const auto delta = [&report](const char* name) -> uint64_t {
    const auto it = report.metric_deltas.find(name);
    return it == report.metric_deltas.end() ? 0 : it->second;
  };
  report.rows_scanned = delta("sans_scan_rows_total");
  report.candidates_generated = delta("sans_candgen_candidates_total");
  report.candidates_verified = delta("sans_verify_candidates_total");
  report.true_positives = delta("sans_verify_true_positives_total");
  report.false_positives = delta("sans_verify_false_positives_total");
  report.pairs_emitted = mining.pairs.size();
  return report;
}

Result<PipelineRunSummary> PipelineRunner::Run(
    const RowStreamSource& source) const {
  SANS_RETURN_IF_ERROR(config_.Validate());
  // Phases 1-2 are the configured miner's own stage methods, run with
  // the pipeline's execution knobs.
  return WithSelectedMiner(
      config_, [&](auto& miner) { return RunStages(miner, source); });
}

template <typename StagedMiner>
Result<PipelineRunSummary> PipelineRunner::RunStages(
    StagedMiner& miner, const RowStreamSource& source) const {
  std::error_code ec;
  std::filesystem::create_directories(config_.checkpoint_dir, ec);
  if (ec) {
    return Status::IOError("cannot create checkpoint dir " +
                           config_.checkpoint_dir + ": " + ec.message());
  }
  const std::string dir = config_.checkpoint_dir + "/";
  const std::string manifest_path = dir + kManifestFile;

  PipelineRunSummary summary;
  ResilienceStats stats;
  const ResilientSource resilient(&source, config_.resilience, &stats);
  // One pool shared by all stages (null => one inline worker).
  const std::unique_ptr<ThreadPool> pool = MaybeCreatePool(config_.execution);

  // Observability: counter deltas over this run against the global
  // registry, and a span tree rooted at "run". The root span stays
  // open across the stage scopes, so stage spans link to it by id.
  const MetricsSnapshot metrics_before = MetricsRegistry::Global().Snapshot();
  Trace trace;
  const int root_span = trace.StartSpan("run", -1);

  Manifest out;
  out.fingerprint = HexU64(Fnv1a64(FingerprintString(source)));

  // Checkpoints recorded by a previous run, if any are trustworthy.
  Manifest prior;
  // Breaks at the first stage that fails validation: later artifacts
  // may exist but were derived from state this run will recompute.
  bool reuse_chain = false;
  if (config_.resume) {
    Result<Manifest> loaded = LoadManifest(manifest_path);
    if (!loaded.ok()) {
      summary.log.push_back("[pipeline] starting clean (" +
                            loaded.status().ToString() + ")");
    } else if (loaded.value().fingerprint != out.fingerprint) {
      summary.log.push_back(
          "[pipeline] config fingerprint changed; recomputing every stage");
    } else {
      prior = std::move(loaded).value();
      reuse_chain = true;
    }
  }

  // Validates a prior stage artifact's checksum against the manifest.
  const auto stage_artifact = [&](int index) -> std::optional<std::string> {
    if (!reuse_chain || !prior.stages[index].has_value()) return std::nullopt;
    const std::string path = dir + prior.stages[index]->file;
    const Result<uint32_t> crc = Crc32cOfFile(path);
    if (!crc.ok()) {
      summary.log.push_back("[pipeline] " + std::string(kStageNames[index]) +
                            " artifact unreadable; recomputing (" +
                            crc.status().ToString() + ")");
      return std::nullopt;
    }
    if (crc.value() != prior.stages[index]->crc) {
      summary.log.push_back("[pipeline] " + std::string(kStageNames[index]) +
                            " artifact checksum mismatch; recomputing");
      return std::nullopt;
    }
    return path;
  };
  // One checkpointed stage: reuse the artifact the manifest records
  // for `index` while the reuse chain holds and it loads; otherwise
  // compute it (timed as the stage's phase), persist it and commit the
  // manifest. Returns whether the artifact was reused.
  const auto run_stage = [&]<typename T>(int index,
                                         std::optional<T>* artifact,
                                         const auto& compute) -> Result<bool> {
    if (const auto path = stage_artifact(index)) {
      Result<T> loaded = ReadArtifact<T>(*path);
      if (loaded.ok()) {
        *artifact = std::move(loaded).value();
        summary.log.push_back(std::string("[pipeline] reusing checkpointed ") +
                              kStageOutputs[index]);
        out.stages[index] = prior.stages[index];
        return true;
      }
      summary.log.push_back("[pipeline] " + std::string(kStageNames[index]) +
                            " artifact failed to load; recomputing (" +
                            loaded.status().ToString() + ")");
    }
    reuse_chain = false;
    {
      ScopedPhase phase(&summary.report.timers, kStagePhases[index]);
      TraceSpan span(&trace, kStagePhases[index], root_span);
      SANS_ASSIGN_OR_RETURN(*artifact, compute());
    }
    TraceSpan span(&trace, std::string("checkpoint-") + kStageNames[index],
                   root_span);
    const char* const file = kStageFiles[index];
    SANS_RETURN_IF_ERROR(WriteArtifact(**artifact, dir + file));
    SANS_ASSIGN_OR_RETURN(const uint32_t crc, Crc32cOfFile(dir + file));
    out.stages[index] = ManifestStage{file, crc};
    SANS_RETURN_IF_ERROR(WriteManifest(
        manifest_path, PipelineAlgorithmName(config_.algorithm), out));
    summary.log.push_back(std::string("[pipeline] ") + kStageOutputs[index] +
                          " computed and checkpointed");
    return false;
  };

  // Stage 1, one resilient pass over the table: the artifact is
  // whatever the miner's Sketch returns — a signature matrix (mh,
  // mlsh), a bottom-k sketch (kmh), or the materialized table (hlsh).
  using Artifact = std::remove_cvref_t<
      decltype(miner.Sketch(source, nullptr).value())>;
  std::optional<Artifact> artifact;
  SANS_ASSIGN_OR_RETURN(
      summary.reused_signatures,
      run_stage(kStageSignatures, &artifact,
                [&] { return miner.Sketch(resilient, pool.get()); }));

  // Stage 2, in main memory.
  std::optional<CandidateSet> candidates;
  SANS_ASSIGN_OR_RETURN(
      summary.reused_candidates,
      run_stage(kStageCandidates, &candidates, [&] {
        return miner.Candidates(*artifact, config_.threshold, pool.get());
      }));
  summary.report.candidates = candidates->SortedPairs();
  summary.report.num_candidates = summary.report.candidates.size();

  // Stage 3, exact verification in a second resilient pass.
  std::optional<std::vector<SimilarPair>> pairs;
  SANS_ASSIGN_OR_RETURN(
      summary.reused_pairs, run_stage(kStagePairs, &pairs, [&] {
        return VerifyCandidatesParallel(resilient, summary.report.candidates,
                                        config_.threshold, config_.execution,
                                        pool.get());
      }));
  summary.report.pairs = std::move(*pairs);

  summary.stream_reopens = stats.reopens.load();
  summary.open_failures = stats.open_failures.load();
  summary.rows_skipped = stats.rows_skipped.load();
  summary.skipped_rows = stats.SkippedRows();
  if (summary.rows_skipped > 0) {
    summary.log.push_back(
        "[pipeline] degraded mode dropped " +
        std::to_string(summary.rows_skipped) +
        " rows; similarities near the threshold may be perturbed");
  }

  trace.EndSpan(root_span);
  summary.run_report = BuildRunReport(
      PipelineAlgorithmName(config_.algorithm), config_.threshold, source,
      config_.execution.num_threads, summary.report, metrics_before);
  summary.run_report.trace_json = trace.ToJson();
  if (!config_.run_report_path.empty()) {
    SANS_RETURN_IF_ERROR(
        WriteRunReport(summary.run_report, config_.run_report_path));
    summary.log.push_back("[pipeline] run report written to " +
                          config_.run_report_path);
  }
  return summary;
}

}  // namespace sans
