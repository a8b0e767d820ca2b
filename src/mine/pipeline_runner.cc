#include "mine/pipeline_runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "candgen/candidate_io.h"
#include "candgen/candidate_set.h"
#include "candgen/hash_count.h"
#include "candgen/row_sort.h"
#include "matrix/table_file.h"
#include "mine/parallel.h"
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
      s += ";candgen=" +
           std::to_string(static_cast<int>(config_.mh.candidates));
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

Result<PipelineRunSummary> PipelineRunner::Run(
    const RowStreamSource& source) const {
  SANS_RETURN_IF_ERROR(config_.Validate());
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
  // One pool shared by all stages (null => sequential reference path).
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
  // Persists the manifest after a completed stage.
  const auto commit_stage = [&](int index, const char* file) -> Status {
    SANS_ASSIGN_OR_RETURN(const uint32_t crc, Crc32cOfFile(dir + file));
    out.stages[index] = ManifestStage{file, crc};
    return WriteManifest(manifest_path, PipelineAlgorithmName(config_.algorithm),
                         out);
  };

  // ---- Stage 1: signatures (one resilient pass over the table). ----
  // The artifact type depends on the scheme: signature matrix (mh,
  // mlsh), bottom-k sketch (kmh), or the materialized table (hlsh).
  std::optional<SignatureMatrix> signatures;
  std::optional<KMinHashSketch> sketch;
  std::optional<BinaryMatrix> table;
  const std::string signatures_path = dir + kSignaturesFile;

  if (const auto artifact = stage_artifact(kStageSignatures)) {
    switch (config_.algorithm) {
      case PipelineAlgorithm::kMh:
      case PipelineAlgorithm::kMlsh: {
        Result<SignatureMatrix> loaded = ReadSignatureMatrix(*artifact);
        if (loaded.ok()) signatures = std::move(loaded).value();
        break;
      }
      case PipelineAlgorithm::kKmh: {
        Result<KMinHashSketch> loaded = ReadKMinHashSketch(*artifact);
        if (loaded.ok()) sketch = std::move(loaded).value();
        break;
      }
      case PipelineAlgorithm::kHlsh: {
        Result<BinaryMatrix> loaded = ReadTableFile(*artifact);
        if (loaded.ok()) table = std::move(loaded).value();
        break;
      }
    }
    if (signatures.has_value() || sketch.has_value() || table.has_value()) {
      summary.reused_signatures = true;
      summary.log.push_back("[pipeline] reusing checkpointed signatures");
      out.stages[kStageSignatures] = prior.stages[kStageSignatures];
    } else {
      summary.log.push_back(
          "[pipeline] signatures artifact failed to load; recomputing");
    }
  }
  if (!summary.reused_signatures) {
    reuse_chain = false;
    {
      ScopedPhase phase(&summary.report.timers, kPhaseSignatures);
      TraceSpan span(&trace, kPhaseSignatures, root_span);
      switch (config_.algorithm) {
        case PipelineAlgorithm::kMh: {
          SANS_ASSIGN_OR_RETURN(
              signatures,
              ComputeMinHashParallel(resilient, config_.mh.min_hash,
                                     config_.execution, pool.get()));
          break;
        }
        case PipelineAlgorithm::kMlsh: {
          MinHashConfig mh_config;
          mh_config.num_hashes =
              config_.mlsh.lsh.sampled
                  ? config_.mlsh.num_hashes
                  : config_.mlsh.lsh.rows_per_band * config_.mlsh.lsh.num_bands;
          mh_config.family = config_.mlsh.family;
          mh_config.seed = config_.mlsh.seed;
          SANS_ASSIGN_OR_RETURN(
              signatures, ComputeMinHashParallel(resilient, mh_config,
                                                 config_.execution, pool.get()));
          break;
        }
        case PipelineAlgorithm::kKmh: {
          SANS_ASSIGN_OR_RETURN(
              sketch, ComputeKMinHashParallel(resilient, config_.kmh.sketch,
                                              config_.execution, pool.get()));
          break;
        }
        case PipelineAlgorithm::kHlsh: {
          // H-LSH materializes the table (random access in phase 2).
          SANS_ASSIGN_OR_RETURN(std::unique_ptr<RowStream> stream,
                                resilient.Open());
          SANS_ASSIGN_OR_RETURN(table, MaterializeStream(stream.get()));
          break;
        }
      }
    }
    TraceSpan span(&trace, "checkpoint-signatures", root_span);
    if (signatures.has_value()) {
      SANS_RETURN_IF_ERROR(WriteSignatureMatrix(*signatures, signatures_path));
    } else if (sketch.has_value()) {
      SANS_RETURN_IF_ERROR(WriteKMinHashSketch(*sketch, signatures_path));
    } else {
      SANS_RETURN_IF_ERROR(WriteTableFile(*table, signatures_path));
    }
    SANS_RETURN_IF_ERROR(commit_stage(kStageSignatures, kSignaturesFile));
    summary.log.push_back("[pipeline] signatures computed and checkpointed");
  }

  // ---- Stage 2: candidate generation (main memory). ----
  CandidateSet candidates;
  const std::string candidates_path = dir + kCandidatesFile;

  if (const auto artifact = stage_artifact(kStageCandidates)) {
    Result<CandidateSet> loaded = ReadCandidateSet(*artifact);
    if (loaded.ok()) {
      candidates = std::move(loaded).value();
      summary.reused_candidates = true;
      summary.log.push_back("[pipeline] reusing checkpointed candidates");
      out.stages[kStageCandidates] = prior.stages[kStageCandidates];
    } else {
      summary.log.push_back(
          "[pipeline] candidates artifact failed to load; recomputing (" +
          loaded.status().ToString() + ")");
    }
  }
  if (!summary.reused_candidates) {
    reuse_chain = false;
    {
      ScopedPhase phase(&summary.report.timers, kPhaseCandidates);
      TraceSpan span(&trace, kPhaseCandidates, root_span);
      switch (config_.algorithm) {
        case PipelineAlgorithm::kMh: {
          const int k = config_.mh.min_hash.num_hashes;
          const int min_agreements = std::max(
              1, static_cast<int>(
                     std::ceil((1.0 - config_.mh.delta) * config_.threshold *
                               k)));
          switch (config_.mh.candidates) {
            case MhCandidateAlgorithm::kRowSort: {
              RowSorter sorter(&*signatures);
              candidates = sorter.Candidates(min_agreements);
              break;
            }
            case MhCandidateAlgorithm::kHashCount:
              SANS_ASSIGN_OR_RETURN(
                  candidates, HashCountMinHashParallel(
                                  *signatures, min_agreements, pool.get()));
              break;
          }
          break;
        }
        case PipelineAlgorithm::kKmh: {
          SANS_ASSIGN_OR_RETURN(
              candidates,
              HashCountKMinHashAdaptiveParallel(
                  *sketch, config_.kmh.hash_count_slack * config_.threshold,
                  pool.get()));
          if (config_.kmh.unbiased_pruning) {
            CandidateSet survivors;
            for (const SimilarPair& survivor : PruneByUnbiasedEstimate(
                     *sketch, candidates,
                     (1.0 - config_.kmh.delta) * config_.threshold)) {
              survivors.Add(survivor.pair, candidates.Count(survivor.pair));
            }
            candidates = std::move(survivors);
          }
          break;
        }
        case PipelineAlgorithm::kMlsh: {
          MinLshConfig lsh = config_.mlsh.lsh;
          lsh.seed = config_.mlsh.seed;
          MinLshCandidateGenerator generator(lsh);
          SANS_ASSIGN_OR_RETURN(candidates,
                                generator.Generate(*signatures, pool.get()));
          break;
        }
        case PipelineAlgorithm::kHlsh: {
          HammingLshCandidateGenerator generator(config_.hlsh.lsh);
          candidates = generator.Generate(*table);
          break;
        }
      }
    }
    TraceSpan span(&trace, "checkpoint-candidates", root_span);
    SANS_RETURN_IF_ERROR(WriteCandidateSet(candidates, candidates_path));
    SANS_RETURN_IF_ERROR(commit_stage(kStageCandidates, kCandidatesFile));
    summary.log.push_back("[pipeline] candidates computed and checkpointed");
  }
  summary.report.candidates = candidates.SortedPairs();
  summary.report.num_candidates = summary.report.candidates.size();

  // ---- Stage 3: exact verification (second resilient pass). ----
  const std::string pairs_path = dir + kPairsFile;

  if (const auto artifact = stage_artifact(kStagePairs)) {
    Result<std::vector<SimilarPair>> loaded = ReadSimilarPairs(*artifact);
    if (loaded.ok()) {
      summary.report.pairs = std::move(loaded).value();
      summary.reused_pairs = true;
      summary.log.push_back("[pipeline] reusing checkpointed verified pairs");
      out.stages[kStagePairs] = prior.stages[kStagePairs];
    } else {
      summary.log.push_back(
          "[pipeline] pairs artifact failed to load; recomputing (" +
          loaded.status().ToString() + ")");
    }
  }
  if (!summary.reused_pairs) {
    {
      ScopedPhase phase(&summary.report.timers, kPhaseVerify);
      TraceSpan span(&trace, kPhaseVerify, root_span);
      SANS_ASSIGN_OR_RETURN(
          summary.report.pairs,
          VerifyCandidatesParallel(resilient, summary.report.candidates,
                                   config_.threshold, config_.execution,
                                   pool.get()));
    }
    SANS_RETURN_IF_ERROR(WriteSimilarPairs(summary.report.pairs, pairs_path));
    SANS_RETURN_IF_ERROR(commit_stage(kStagePairs, kPairsFile));
    summary.log.push_back("[pipeline] verified pairs checkpointed");
  }

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
  const MetricsSnapshot metrics_after = MetricsRegistry::Global().Snapshot();
  RunReport& report = summary.run_report;
  report.algorithm = PipelineAlgorithmName(config_.algorithm);
  report.threshold = config_.threshold;
  report.table_rows = source.num_rows();
  report.table_cols = source.num_cols();
  report.threads = config_.execution.num_threads;
  // PhaseTimer keys sort in pipeline order by construction
  // ("1-signatures" < "2-candidates" < "3-verify"); reused stages have
  // no timer entry and are absent, which the report reads as "paid
  // nothing".
  for (const auto& [phase, seconds] : summary.report.timers.totals()) {
    report.phases.push_back(RunReport::Phase{phase, seconds});
  }
  report.metric_deltas = CounterDeltas(metrics_before, metrics_after);
  const auto delta = [&report](const char* name) -> uint64_t {
    const auto it = report.metric_deltas.find(name);
    return it == report.metric_deltas.end() ? 0 : it->second;
  };
  report.rows_scanned = delta("sans_scan_rows_total");
  report.candidates_generated = delta("sans_candgen_candidates_total");
  report.candidates_verified = delta("sans_verify_candidates_total");
  report.true_positives = delta("sans_verify_true_positives_total");
  report.false_positives = delta("sans_verify_false_positives_total");
  report.pairs_emitted = summary.report.pairs.size();
  report.trace_json = trace.ToJson();
  if (!config_.run_report_path.empty()) {
    SANS_RETURN_IF_ERROR(WriteRunReport(report, config_.run_report_path));
    summary.log.push_back("[pipeline] run report written to " +
                          config_.run_report_path);
  }
  return summary;
}

}  // namespace sans
