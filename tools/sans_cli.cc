// sans — command-line driver for the library.
//
// Subcommands:
//   generate   synthesize a dataset and write it as a table file
//   mine       find similar column pairs in a table file
//   rules      find high-confidence directed rules (Section 6)
//   exclusions find anticorrelated pairs (Section 7)
//   truth      brute-force exact similar pairs (ground truth)
//   stats      print table shape / density / similarity histogram
//   convert    convert between binary table files and text transactions
//   sketch     persist a bottom-k sketch of a table
//   pairs      mine similar pairs from a persisted sketch (no table
//              rescan; estimates only, no exact verification)
//   index      build a persistent similarity index (bottom-k sketches)
//              for online serving
//   serve      answer similarity queries over an index via TCP
//   query      ask a running server (top-k / pair / stats / reload)
//
// Examples:
//   sans generate --kind weblog --out log.sans --seed 7
//   sans mine --in log.sans --algorithm mlsh --threshold 0.7 --r 5 --l 20
//   sans rules --in corpus.sans --threshold 0.95 --k 200
//   sans truth --in log.sans --threshold 0.7

#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "data/dataset_io.h"
#include "data/news_generator.h"
#include "data/synthetic_generator.h"
#include "data/weblog_generator.h"
#include "lsh/distribution_estimator.h"
#include "matrix/table_file.h"
#include "mine/anticorrelation.h"
#include "mine/brute_force.h"
#include "mine/confidence_miner.h"
#include "mine/hlsh_miner.h"
#include "mine/kmh_miner.h"
#include "candgen/hash_count.h"
#include "mine/clustering.h"
#include "mine/disjunction_miner.h"
#include "mine/mh_miner.h"
#include "mine/miner.h"
#include "mine/mlsh_miner.h"
#include "mine/parallel.h"
#include "mine/pipeline_runner.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/similarity_index.h"
#include "sketch/sketch_io.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sans::cli {
namespace {

/// True when `synopsis` names --`key` as a whole flag.
bool NamesFlag(std::string_view synopsis, const std::string& key) {
  const std::string flag = "--" + key;
  for (size_t at = synopsis.find(flag); at != std::string_view::npos;
       at = synopsis.find(flag, at + 1)) {
    const size_t end = at + flag.size();
    if (end == synopsis.size() ||
        !(std::isalnum(static_cast<unsigned char>(synopsis[end])) ||
          synopsis[end] == '-')) {
      return true;
    }
  }
  return false;
}

/// Minimal --flag value parser; flags may appear in any order. A flag
/// followed by another flag (or the end of the line) is boolean — so
/// bare switches like --resume need no explicit "1". A flag the
/// command's synopsis does not name exits 2.
class Args {
 public:
  Args(int argc, char** argv, int first, const char* command,
       std::string_view synopsis) {
    for (int i = first; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "expected --flag, got '%s'\n", argv[i]);
        std::exit(2);
      }
      const std::string key(argv[i] + 2);
      if (!NamesFlag(synopsis, key)) {
        std::fprintf(stderr, "%s does not take --%s\n", command, key.c_str());
        std::exit(2);
      }
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_.insert_or_assign(key, std::string(argv[i + 1]));
        ++i;
      } else {
        values_.insert_or_assign(key, std::string("1"));
      }
    }
  }

  bool Has(const std::string& key) const {
    return values_.find(key) != values_.end();
  }
  bool GetBool(const std::string& key, bool fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return it->second != "0" && it->second != "false";
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::string Require(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing required flag --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atoll(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// --threads / --block-rows. Defaults to every hardware thread;
/// --threads 1 runs every phase inline on one thread. Output is
/// bit-identical either way.
Result<ExecutionConfig> ParseExecution(const Args& args) {
  ExecutionConfig execution;
  const unsigned hardware = std::thread::hardware_concurrency();
  execution.num_threads = static_cast<int>(
      args.GetInt("threads", hardware > 0 ? hardware : 1));
  execution.block_rows =
      static_cast<int>(args.GetInt("block-rows", execution.block_rows));
  SANS_RETURN_IF_ERROR(execution.Validate());
  return execution;
}

bool IsTableFile(const std::string& path) {
  return path.size() >= 5 && path.substr(path.size() - 5) == ".sans";
}

Result<BinaryMatrix> LoadInput(const std::string& path) {
  if (IsTableFile(path)) return ReadTableFile(path);
  return LoadTransactions(path);
}

/// An input table as a row source. A .sans file streams straight from
/// disk: no full matrix sits in memory, and a mid-scan fault is
/// recoverable by re-opening the file. Text transactions are loaded
/// once into `matrix`.
struct InputTable {
  std::unique_ptr<BinaryMatrix> matrix;  // text input only
  std::unique_ptr<RowStreamSource> source;
};

Result<InputTable> OpenInput(const std::string& path) {
  InputTable input;
  if (IsTableFile(path)) {
    SANS_ASSIGN_OR_RETURN(TableFileSource file, TableFileSource::Create(path));
    input.source = std::make_unique<TableFileSource>(std::move(file));
  } else {
    SANS_ASSIGN_OR_RETURN(BinaryMatrix matrix, LoadTransactions(path));
    input.matrix = std::make_unique<BinaryMatrix>(std::move(matrix));
    input.source = std::make_unique<InMemorySource>(input.matrix.get());
  }
  return input;
}

Status SaveOutput(const BinaryMatrix& matrix, const std::string& path) {
  if (IsTableFile(path)) {
    return WriteTableFile(matrix, path);
  }
  return SaveTransactions(matrix, path);
}

int RunGenerate(const Args& args) {
  const std::string kind = args.GetString("kind", "synthetic");
  const std::string out = args.Require("out");
  const uint64_t seed = args.GetInt("seed", 0);
  Result<BinaryMatrix> matrix = Status::Unimplemented("");
  if (kind == "synthetic") {
    SyntheticConfig config;
    config.num_rows = static_cast<RowId>(args.GetInt("rows", 10'000));
    config.num_cols = static_cast<ColumnId>(args.GetInt("cols", 10'000));
    config.seed = seed;
    auto dataset = GenerateSynthetic(config);
    if (!dataset.ok()) return Fail(dataset.status());
    std::printf("planted %zu similar pairs\n", dataset->planted.size());
    matrix = std::move(dataset->matrix);
  } else if (kind == "weblog") {
    WeblogConfig config;
    config.num_clients = static_cast<RowId>(args.GetInt("rows", 200'000));
    config.num_urls = static_cast<ColumnId>(args.GetInt("cols", 13'000));
    config.num_bundles = static_cast<int>(args.GetInt("bundles", 400));
    config.seed = seed;
    auto dataset = GenerateWeblog(config);
    if (!dataset.ok()) return Fail(dataset.status());
    std::printf("planted %zu url bundles\n", dataset->bundles.size());
    matrix = std::move(dataset->matrix);
  } else if (kind == "news") {
    NewsConfig config;
    config.num_docs = static_cast<RowId>(args.GetInt("rows", 40'000));
    config.vocab_size = static_cast<ColumnId>(args.GetInt("cols", 8'000));
    config.seed = seed;
    auto dataset = GenerateNews(config);
    if (!dataset.ok()) return Fail(dataset.status());
    std::printf("planted %zu collocations, %zu clusters\n",
                dataset->collocations.size(), dataset->clusters.size());
    matrix = std::move(dataset->matrix);
  } else {
    std::fprintf(stderr, "unknown --kind '%s'\n", kind.c_str());
    return 2;
  }
  const Status s = SaveOutput(*matrix, out);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s: %u rows x %u cols, %llu ones\n", out.c_str(),
              matrix->num_rows(), matrix->num_cols(),
              static_cast<unsigned long long>(matrix->num_ones()));
  return 0;
}

int PrintPairs(const MiningReport& report) {
  std::printf("# %zu pairs, %llu candidates, %.3fs (%s)\n",
              report.pairs.size(),
              static_cast<unsigned long long>(report.num_candidates),
              report.TotalSeconds(), report.timers.ToString().c_str());
  for (const SimilarPair& p : report.pairs) {
    std::printf("%u\t%u\t%.6f\n", p.pair.first, p.pair.second,
                p.similarity);
  }
  return 0;
}

/// The mining flags as a pipeline config: `algorithm` (mh|kmh|mlsh|
/// hlsh), --threshold, the execution knobs and all four miner configs
/// from --k/--delta/--r/--l/--seed; only the selected one is consulted.
Result<PipelineConfig> ParseMineConfig(const Args& args,
                                       const std::string& algorithm) {
  static const std::map<std::string, PipelineAlgorithm> kAlgorithms = {
      {"mh", PipelineAlgorithm::kMh},
      {"kmh", PipelineAlgorithm::kKmh},
      {"mlsh", PipelineAlgorithm::kMlsh},
      {"hlsh", PipelineAlgorithm::kHlsh}};
  const auto it = kAlgorithms.find(algorithm);
  if (it == kAlgorithms.end()) {
    return Status::InvalidArgument("unknown --algorithm '" + algorithm + "'");
  }
  PipelineConfig config;
  config.algorithm = it->second;
  config.threshold = args.GetDouble("threshold", 0.5);
  SANS_ASSIGN_OR_RETURN(config.execution, ParseExecution(args));
  const uint64_t seed = args.GetInt("seed", 0);
  const int k = static_cast<int>(args.GetInt("k", 100));
  const double delta = args.GetDouble("delta", 0.25);
  config.mh.min_hash.num_hashes = k;
  config.mh.min_hash.seed = seed;
  config.mh.delta = delta;
  config.kmh.sketch.k = k;
  config.kmh.sketch.seed = seed;
  config.kmh.delta = delta;
  config.mlsh.lsh.rows_per_band = static_cast<int>(args.GetInt("r", 5));
  config.mlsh.lsh.num_bands = static_cast<int>(args.GetInt("l", 20));
  config.mlsh.seed = seed;
  config.hlsh.lsh.rows_per_run = static_cast<int>(args.GetInt("r", 12));
  config.hlsh.lsh.num_runs = static_cast<int>(args.GetInt("l", 4));
  config.hlsh.lsh.seed = seed;
  return config;
}

/// Checkpointed mining via the fault-tolerant pipeline runner.
/// Selected by --checkpoint-dir; --resume reuses completed stages,
/// --max-retries and --max-skipped-rows tune the resilient scans.
int RunPipelineMine(const Args& args, const std::string& algorithm) {
  if (algorithm == "auto") {
    // "auto" derives (r, l) from the data, so its parameters are not a
    // pure function of the flags and a resumed run could not prove the
    // checkpoints match.
    std::fprintf(stderr,
                 "--checkpoint-dir requires an explicit algorithm "
                 "(mh|kmh|mlsh|hlsh), got '%s'\n",
                 algorithm.c_str());
    return 2;
  }
  auto parsed = ParseMineConfig(args, algorithm);
  if (!parsed.ok()) return Fail(parsed.status());
  PipelineConfig& config = *parsed;
  config.run_report_path = args.GetString("run-report", "");
  config.checkpoint_dir = args.Require("checkpoint-dir");
  config.resume = args.GetBool("resume", false);
  const int64_t max_retries = args.GetInt("max-retries", 2);
  if (max_retries < 0) {
    std::fprintf(stderr, "--max-retries must be >= 0\n");
    return 2;
  }
  config.resilience.retry.max_attempts = static_cast<int>(max_retries) + 1;
  const int64_t max_skipped = args.GetInt("max-skipped-rows", 0);
  if (max_skipped < 0) {
    std::fprintf(stderr, "--max-skipped-rows must be >= 0\n");
    return 2;
  }
  config.resilience.degraded_mode = max_skipped > 0;
  config.resilience.max_skipped_rows = static_cast<uint64_t>(max_skipped);
  if (const Status s = config.Validate(); !s.ok()) return Fail(s);

  auto input = OpenInput(args.Require("in"));
  if (!input.ok()) return Fail(input.status());

  PipelineRunner runner(config);
  auto summary = runner.Run(*input->source);
  if (!summary.ok()) return Fail(summary.status());
  for (const std::string& line : summary->log) {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  if (summary->stream_reopens > 0 || summary->open_failures > 0 ||
      summary->rows_skipped > 0) {
    std::fprintf(stderr,
                 "[pipeline] faults: reopens=%llu open_failures=%llu "
                 "rows_skipped=%llu\n",
                 static_cast<unsigned long long>(summary->stream_reopens),
                 static_cast<unsigned long long>(summary->open_failures),
                 static_cast<unsigned long long>(summary->rows_skipped));
  }
  std::fprintf(stderr, "%s",
               RenderPhaseTable(summary->run_report).c_str());
  return PrintPairs(summary->report);
}

int RunMine(const Args& args) {
  const std::string algorithm = args.GetString("algorithm", "mlsh");
  if (args.Has("checkpoint-dir")) return RunPipelineMine(args, algorithm);
  if (args.Has("resume") || args.Has("max-retries") ||
      args.Has("max-skipped-rows")) {
    std::fprintf(stderr,
                 "warning: --resume/--max-retries/--max-skipped-rows take "
                 "effect only with --checkpoint-dir; ignoring\n");
  }
  // "auto" mines with M-LSH, whose (r, l) it derives below.
  auto config = ParseMineConfig(args, algorithm == "auto" ? "mlsh" : algorithm);
  if (!config.ok()) return Fail(config.status());
  auto input = OpenInput(args.Require("in"));
  if (!input.ok()) return Fail(input.status());
  const RowStreamSource& source = *input->source;

  if (algorithm == "auto") {
    // Section 4.1 input-sensitive mode: estimate the similarity
    // distribution (column sample for the low mass, min-hash sketch
    // for the high tail) and optimize (r, l). The estimators sample
    // the whole table, so this is the one mode that loads a .sans
    // input into memory.
    Result<BinaryMatrix> loaded = Status::Unimplemented("");
    const BinaryMatrix* matrix = input->matrix.get();
    if (matrix == nullptr) {
      loaded = ReadTableFile(args.Require("in"));
      if (!loaded.ok()) return Fail(loaded.status());
      matrix = &loaded.value();
    }
    const uint64_t seed = args.GetInt("seed", 0);
    DistributionEstimatorOptions est;
    est.sample_columns = static_cast<ColumnId>(args.GetInt("sample", 500));
    est.seed = seed;
    auto low = EstimateSimilarityDistribution(*matrix, est);
    if (!low.ok()) return Fail(low.status());
    SketchDistributionOptions sketch_est;
    sketch_est.seed = seed + 1;
    auto high = EstimateSimilarityDistributionSketch(*matrix, sketch_est);
    if (!high.ok()) return Fail(high.status());
    const SimilarityDistribution distr =
        MergeDistributions(*low, *high, 0.25);
    LshOptimizerOptions opt;
    opt.s0 = config->threshold;
    opt.max_false_negatives = args.GetDouble("max-fn", 5.0);
    opt.max_false_positives = args.GetDouble("max-fp", 1e6);
    auto optimized = MlshMiner::FromDistribution(distr, opt,
                                                 HashFamily::kSplitMix64, seed);
    if (!optimized.ok()) return Fail(optimized.status());
    config->mlsh = optimized->config();
    std::fprintf(stderr, "auto-selected r=%d l=%d\n",
                 config->mlsh.lsh.rows_per_band, config->mlsh.lsh.num_bands);
  }

  // Counter deltas across the miner call (not the estimation above)
  // feed the run report, built by the same BuildRunReport as the
  // checkpointed path's.
  const MetricsSnapshot metrics_before =
      MetricsRegistry::Global().Snapshot();
  const Result<MiningReport> report =
      WithSelectedMiner(*config, [&](auto& miner) {
        return miner.Mine(source, config->threshold);
      });
  if (!report.ok()) return Fail(report.status());

  const RunReport run_report = BuildRunReport(
      algorithm, config->threshold, source, config->execution.num_threads,
      *report, metrics_before);
  if (args.Has("run-report")) {
    const std::string path = args.Require("run-report");
    if (const Status s = WriteRunReport(run_report, path); !s.ok()) {
      return Fail(s);
    }
    std::fprintf(stderr, "run report written to %s\n", path.c_str());
  }
  std::fprintf(stderr, "%s", RenderPhaseTable(run_report).c_str());
  return PrintPairs(*report);
}

int RunRules(const Args& args) {
  auto matrix = LoadInput(args.Require("in"));
  if (!matrix.ok()) return Fail(matrix.status());
  InMemorySource source(&matrix.value());
  ConfidenceMinerConfig config;
  config.min_hash.num_hashes = static_cast<int>(args.GetInt("k", 150));
  config.min_hash.seed = args.GetInt("seed", 0);
  ConfidenceMiner miner(config);
  auto report = miner.Mine(source, args.GetDouble("threshold", 0.9));
  if (!report.ok()) return Fail(report.status());
  std::printf("# %zu rules, %llu candidates, %.3fs\n",
              report->rules.size(),
              static_cast<unsigned long long>(report->num_candidates),
              report->timers.GrandTotal());
  for (const ConfidenceRule& rule : report->rules) {
    std::printf("%u\t=>\t%u\t%.6f\n", rule.antecedent, rule.consequent,
                rule.confidence);
  }
  return 0;
}

int RunExclusions(const Args& args) {
  auto matrix = LoadInput(args.Require("in"));
  if (!matrix.ok()) return Fail(matrix.status());
  AnticorrelationConfig config;
  config.min_support = args.GetDouble("support", 0.05);
  config.max_lift = args.GetDouble("max-lift", 0.2);
  auto result = MineAnticorrelated(*matrix, config);
  if (!result.ok()) return Fail(result.status());
  std::printf("# %zu anticorrelated pairs\n", result->size());
  for (const AnticorrelatedPair& p : *result) {
    std::printf("%u\t%u\tinter=%llu\texpected=%.1f\tlift=%.4f\n",
                p.pair.first, p.pair.second,
                static_cast<unsigned long long>(p.intersection),
                p.expected_intersection, p.lift);
  }
  return 0;
}

int RunTruth(const Args& args) {
  auto matrix = LoadInput(args.Require("in"));
  if (!matrix.ok()) return Fail(matrix.status());
  auto pairs =
      BruteForceSimilarPairs(*matrix, args.GetDouble("threshold", 0.5));
  if (!pairs.ok()) return Fail(pairs.status());
  std::printf("# %zu pairs (exact)\n", pairs->size());
  for (const SimilarPair& p : *pairs) {
    std::printf("%u\t%u\t%.6f\n", p.pair.first, p.pair.second,
                p.similarity);
  }
  return 0;
}

int RunStats(const Args& args) {
  auto matrix = LoadInput(args.Require("in"));
  if (!matrix.ok()) return Fail(matrix.status());
  std::printf("rows: %u\ncols: %u\nones: %llu\n", matrix->num_rows(),
              matrix->num_cols(),
              static_cast<unsigned long long>(matrix->num_ones()));
  if (matrix->num_rows() == 0 || matrix->num_cols() == 0) return 0;
  double density_sum = 0.0;
  uint64_t empty = 0;
  for (ColumnId c = 0; c < matrix->num_cols(); ++c) {
    density_sum += matrix->ColumnDensity(c);
    if (matrix->ColumnCardinality(c) == 0) ++empty;
  }
  std::printf("mean column density: %.6f\nempty columns: %llu\n",
              density_sum / matrix->num_cols(),
              static_cast<unsigned long long>(empty));
  return 0;
}

int RunClusters(const Args& args) {
  auto matrix = LoadInput(args.Require("in"));
  if (!matrix.ok()) return Fail(matrix.status());
  InMemorySource source(&matrix.value());
  const double threshold = args.GetDouble("threshold", 0.5);
  // Mine pairs with K-MH, then extract cohesive clusters.
  KmhMinerConfig miner_config;
  miner_config.sketch.k = static_cast<int>(args.GetInt("k", 120));
  miner_config.sketch.seed = args.GetInt("seed", 0);
  miner_config.hash_count_slack = 0.4;
  KmhMiner miner(miner_config);
  auto report = miner.Mine(source, threshold);
  if (!report.ok()) return Fail(report.status());

  ClusteringOptions options;
  options.min_similarity = threshold;
  options.min_cluster_size =
      static_cast<int>(args.GetInt("min-size", 3));
  options.min_cohesion = args.GetDouble("min-cohesion", 0.5);
  auto clusters =
      ExtractClusters(report->pairs, matrix->num_cols(), options);
  if (!clusters.ok()) return Fail(clusters.status());
  std::printf("# %zu clusters (from %zu similar pairs)\n",
              clusters->size(), report->pairs.size());
  for (const SimilarityCluster& cluster : *clusters) {
    std::printf("cohesion=%.2f members:", cluster.cohesion);
    for (ColumnId c : cluster.members) std::printf(" %u", c);
    std::printf("\n");
  }
  return 0;
}

int RunDisjunctions(const Args& args) {
  auto matrix = LoadInput(args.Require("in"));
  if (!matrix.ok()) return Fail(matrix.status());
  DisjunctionMinerConfig config;
  config.min_hash.num_hashes = static_cast<int>(args.GetInt("k", 120));
  config.min_hash.seed = args.GetInt("seed", 0);
  DisjunctionMiner miner(config);
  auto report = miner.Mine(*matrix, args.GetDouble("threshold", 0.6));
  if (!report.ok()) return Fail(report.status());
  std::printf("# %zu disjunction rules (%llu candidates)\n",
              report->rules.size(),
              static_cast<unsigned long long>(report->num_candidates));
  for (const DisjunctionRule& rule : report->rules) {
    std::printf("%u ~ %u|%u\tS=%.4f\t(pairs %.4f / %.4f)\n",
                rule.target, rule.disjunct_a, rule.disjunct_b,
                rule.similarity, rule.pair_similarity_a,
                rule.pair_similarity_b);
  }
  return 0;
}

int RunSketch(const Args& args) {
  auto input = OpenInput(args.Require("in"));
  if (!input.ok()) return Fail(input.status());
  KMinHashConfig config;
  config.k = static_cast<int>(args.GetInt("k", 100));
  config.seed = args.GetInt("seed", 0);
  // K-MH's phase 1, as `index` and `mine` run it, on one thread.
  auto sketch = ComputeKMinHashParallel(*input->source, config,
                                        ExecutionConfig{}, nullptr);
  if (!sketch.ok()) return Fail(sketch.status());
  const std::string out = args.Require("out");
  if (const Status s = WriteKMinHashSketch(*sketch, out); !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %s: k=%d, %u columns, %llu stored values\n",
              out.c_str(), sketch->k(), sketch->num_cols(),
              static_cast<unsigned long long>(
                  sketch->TotalSignatureSize()));
  return 0;
}

int RunPairsFromSketch(const Args& args) {
  auto sketch = ReadKMinHashSketch(args.Require("sketch"));
  if (!sketch.ok()) return Fail(sketch.status());
  const double threshold = args.GetDouble("threshold", 0.5);
  if (threshold <= 0.0 || threshold > 1.0) {
    std::fprintf(stderr, "threshold must lie in (0, 1]\n");
    return 2;
  }
  // Hash-count over the sketch, then the unbiased estimator — phase 2
  // only, no table available for exact verification.
  const CandidateSet candidates =
      HashCountKMinHashAdaptive(*sketch, 0.5 * threshold);
  std::vector<SimilarPair> pairs =
      PruneByUnbiasedEstimate(*sketch, candidates, threshold);
  SortPairs(&pairs);
  std::printf("# %zu pairs (ESTIMATED similarities; verify against the "
              "table for exact values)\n",
              pairs.size());
  for (const SimilarPair& p : pairs) {
    std::printf("%u\t%u\t%.6f\n", p.pair.first, p.pair.second,
                p.similarity);
  }
  return 0;
}

int RunIndex(const Args& args) {
  SimilarityIndexConfig config;
  config.sketch_k = static_cast<int>(args.GetInt("k", config.sketch_k));
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 0));
  auto execution = ParseExecution(args);
  if (!execution.ok()) return Fail(execution.status());
  config.execution = *execution;
  const std::string in = args.Require("in");
  const std::string out = args.Require("out");
  auto input = OpenInput(in);
  if (!input.ok()) return Fail(input.status());
  const RowStreamSource& source = *input->source;
  if (const Status s = IndexBuilder(config).Build(source, out); !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %s: %u columns, %u rows, sketch k=%d\n", out.c_str(),
              source.num_cols(), source.num_rows(), config.sketch_k);
  return 0;
}

std::atomic<bool> g_shutdown{false};

void HandleShutdownSignal(int) { g_shutdown.store(true); }

int RunServe(const Args& args) {
  auto index = SimilarityIndex::Load(args.Require("index"));
  if (!index.ok()) return Fail(index.status());

  ServerConfig config;
  config.host = args.GetString("host", config.host);
  config.port = static_cast<uint16_t>(args.GetInt("port", 0));
  config.num_threads = static_cast<int>(args.GetInt("threads", 4));
  config.allow_reload = args.GetBool("allow-reload", false);
  auto server = Server::Start(
      std::make_shared<const SimilarityIndex>(std::move(*index)), config);
  if (!server.ok()) return Fail(server.status());

  // The smoke test and scripts parse this line for the ephemeral port.
  std::printf("listening on %s:%u\n", config.host.c_str(),
              (*server)->port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGTERM, HandleShutdownSignal);
  while (!g_shutdown.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  (*server)->Stop();
  const ServerStatsSnapshot stats = (*server)->Stats();
  std::printf("served %llu requests (%llu errors), p50=%.3fms "
              "p95=%.3fms p99=%.3fms\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.errors),
              stats.p50_seconds * 1e3, stats.p95_seconds * 1e3,
              stats.p99_seconds * 1e3);
  return 0;
}

int RunQuery(const Args& args) {
  ClientConfig config;
  config.host = args.GetString("host", config.host);
  config.port = static_cast<uint16_t>(args.GetInt("port", 0));
  if (config.port == 0) {
    std::fprintf(stderr, "query needs --port\n");
    return 2;
  }
  auto client = Client::Connect(config);
  if (!client.ok()) return Fail(client.status());

  if (args.Has("ping")) {
    if (const Status s = (*client)->Ping(); !s.ok()) return Fail(s);
    std::printf("ok\n");
    return 0;
  }
  if (args.Has("stats")) {
    auto stats = (*client)->Stats();
    if (!stats.ok()) return Fail(stats.status());
    std::printf("requests: %llu\nerrors: %llu\nreloads: %llu\n"
                "epoch: %llu\np50_ms: %.3f\np95_ms: %.3f\np99_ms: %.3f\n",
                static_cast<unsigned long long>(stats->requests),
                static_cast<unsigned long long>(stats->errors),
                static_cast<unsigned long long>(stats->reloads),
                static_cast<unsigned long long>(stats->epoch),
                stats->p50_seconds * 1e3, stats->p95_seconds * 1e3,
                stats->p99_seconds * 1e3);
    return 0;
  }
  if (args.Has("reload")) {
    auto epoch = (*client)->Reload(args.Require("reload"));
    if (!epoch.ok()) return Fail(epoch.status());
    std::printf("reloaded, epoch %llu\n",
                static_cast<unsigned long long>(*epoch));
    return 0;
  }
  if (args.Has("a") || args.Has("b")) {
    const auto a = static_cast<ColumnId>(args.GetInt("a", 0));
    const auto b = static_cast<ColumnId>(args.GetInt("b", 0));
    auto similarity = (*client)->PairSimilarity(a, b);
    if (!similarity.ok()) return Fail(similarity.status());
    std::printf("%u\t%u\t%.6f\n", a, b, *similarity);
    return 0;
  }
  if (args.Has("col")) {
    const auto col = static_cast<ColumnId>(args.GetInt("col", 0));
    const auto k = static_cast<uint32_t>(args.GetInt("k", 10));
    auto neighbors =
        (*client)->TopK(col, k, args.GetDouble("min-similarity", 0.0));
    if (!neighbors.ok()) return Fail(neighbors.status());
    std::printf("# %zu neighbors of column %u\n", neighbors->size(), col);
    for (const Neighbor& n : *neighbors) {
      std::printf("%u\t%.6f\n", n.col, n.similarity);
    }
    return 0;
  }
  std::fprintf(stderr,
               "query needs one of --col, --a/--b, --stats, --ping, "
               "--reload\n");
  return 2;
}

/// `sans stats <host:port>`: scrape a running server's metrics over
/// the wire and print the Prometheus text exposition verbatim.
int RunRemoteStats(const std::string& target) {
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == target.size()) {
    std::fprintf(stderr, "stats target must be host:port, got '%s'\n",
                 target.c_str());
    return 2;
  }
  ClientConfig config;
  config.host = target.substr(0, colon);
  const long port = std::atol(target.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "invalid port in '%s'\n", target.c_str());
    return 2;
  }
  config.port = static_cast<uint16_t>(port);
  auto client = Client::Connect(config);
  if (!client.ok()) return Fail(client.status());
  auto text = (*client)->Metrics();
  if (!text.ok()) return Fail(text.status());
  std::fputs(text->c_str(), stdout);
  return 0;
}

int RunConvert(const Args& args) {
  auto matrix = LoadInput(args.Require("in"));
  if (!matrix.ok()) return Fail(matrix.status());
  const Status s = SaveOutput(*matrix, args.Require("out"));
  if (!s.ok()) return Fail(s);
  std::printf("converted: %u rows x %u cols\n", matrix->num_rows(),
              matrix->num_cols());
  return 0;
}

/// Each command with its runner and its synopsis. The synopsis is the
/// one list of the flags the runner reads: Args takes exactly the
/// --flags it names, and Usage prints it.
struct Command {
  const char* name;
  int (*run)(const Args&);
  const char* synopsis;
};

constexpr Command kCommands[] = {
    {"generate", RunGenerate,
     "--kind synthetic|weblog|news --out FILE [--rows N]\n"
     "            [--cols N] [--seed S] [--bundles N (weblog)]"},
    {"mine", RunMine,
     "--in FILE --algorithm mh|kmh|mlsh|hlsh|auto\n"
     "            [--threshold S] [--k K] [--delta D] [--r R] [--l L]\n"
     "            [--seed S] [--threads N (default: all cores; 1 =\n"
     "            sequential)] [--block-rows N] [--checkpoint-dir DIR]\n"
     "            [--resume] [--max-retries N] [--max-skipped-rows N]\n"
     "            [--run-report FILE (write a JSON run report)]\n"
     "            [--sample N] [--max-fn F] [--max-fp F] (auto)"},
    {"rules", RunRules, "--in FILE [--threshold C] [--k K] [--seed S]"},
    {"exclusions", RunExclusions, "--in FILE [--support F] [--max-lift F]"},
    {"truth", RunTruth, "--in FILE [--threshold S]"},
    {"stats", RunStats,
     "--in FILE | <host:port> (scrape a running server's\n"
     "            metrics in Prometheus text format)"},
    {"convert", RunConvert,
     "--in FILE --out FILE (format by extension: .sans\n"
     "            binary, anything else text transactions)"},
    {"sketch", RunSketch, "--in FILE --out FILE [--k K] [--seed S]"},
    {"pairs", RunPairsFromSketch, "--sketch FILE [--threshold S]"},
    {"clusters", RunClusters,
     "--in FILE [--threshold S] [--k K] [--seed S]\n"
     "            [--min-size N] [--min-cohesion F]"},
    {"disjunctions", RunDisjunctions,
     "--in FILE [--threshold S] [--k K] [--seed S]"},
    {"index", RunIndex,
     "--in FILE --out FILE [--k K]\n"
     "            [--seed S] [--threads N] [--block-rows N]"},
    {"serve", RunServe,
     "--index FILE [--host H] [--port P (0 = ephemeral)]\n"
     "            [--threads N] [--allow-reload]"},
    {"query", RunQuery,
     "--port P [--host H] plus one of:\n"
     "            --col C [--k K] [--min-similarity S] | --a A --b B |\n"
     "            --stats | --ping | --reload FILE"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: sans <command> [--flag value ...]\ncommands:\n");
  for (const Command& c : kCommands) {
    std::fprintf(stderr, "  %-9s %s\n", c.name, c.synopsis);
  }
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  // "stats host:port" takes a positional target the flag parser would
  // reject; route it before Args construction.
  if (command == "stats" && argc >= 3 &&
      std::strncmp(argv[2], "--", 2) != 0) {
    return RunRemoteStats(argv[2]);
  }
  for (const Command& c : kCommands) {
    if (command == c.name) {
      return c.run(Args(argc, argv, 2, c.name, c.synopsis));
    }
  }
  return Usage();
}

}  // namespace
}  // namespace sans::cli

int main(int argc, char** argv) { return sans::cli::Main(argc, argv); }
