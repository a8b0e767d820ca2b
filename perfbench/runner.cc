#include "runner.h"

#include <malloc.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "candgen/hamming_lsh.h"
#include "candgen/hash_count.h"
#include "candgen/min_lsh.h"
#include "candgen/row_sort.h"
#include "matrix/table_file.h"
#include "mine/hlsh_miner.h"
#include "mine/kmh_miner.h"
#include "mine/mh_miner.h"
#include "mine/mlsh_miner.h"
#include "mine/parallel.h"
#include "mine/pipeline_runner.h"
#include "serve/client.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/similarity_index.h"
#include "sketch/estimators.h"
#include "tracer.h"
#include "truth.h"

namespace perfbench {

using sans::ColumnId;
using sans::ColumnPair;
using sans::MiningReport;
using sans::Result;
using sans::SimilarPair;
using sans::Status;
using Clock = std::chrono::steady_clock;

double RunResult::Value(const std::string& name) const {
  for (const Metric& metric : metrics) {
    if (metric.name == name) return metric.value;
  }
  SANS_CHECK(false && "unknown metric");
  return 0.0;
}

namespace {

constexpr double kThreshold = 0.5;  // s*, the `sans mine` default
constexpr int kTopK = 8;
// Requests in the served list. TopK needs at least 200 so that ten
// samples lie beyond its p95.
constexpr int kTopKRequests = 220;
constexpr int kPairRequests = 220;
// The request list is replayed this many times, in kServeSlices slices
// spread evenly over the run's time budget, so the latency samples
// cover the whole run rather than a few windows of it.
constexpr int kServePasses = 4;
constexpr int kServeSlices = 80;
constexpr int kSetupReps = 5;
constexpr int kMinRounds = 10;
constexpr int kMaxRounds = 40;
constexpr int kPings = 200;
constexpr double kMiB = 1024.0 * 1024.0;
// Median time of HostProbeSeconds() on the dev host (4-vCPU KVM guest,
// Xeon 2.0 GHz) in a quiet minute: the host speed the reported timings
// are scaled to.
constexpr double kProbeNominalSeconds = 0.0100;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return (*std::max_element(values.begin(), values.begin() + mid) + upper) /
         2.0;
}

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[std::max<size_t>(rank, 1) - 1];
}

volatile uint64_t probe_sink;  // keeps the probe's chain from being elided

/// A fixed workload that uses nothing of libsans, timed in wall seconds:
/// a dependent chain of multiply-xorshift mixes, each indexing a 1-MiB
/// table, so it depends on the core's arithmetic and cache speed as
/// hashing rows does. The dev host's speed drifts by up to a third
/// within minutes, alike for every operation; this probe, timed between
/// operations, measures that drift over the same minutes.
double HostProbeSeconds() {
  static const std::vector<uint64_t> table = [] {
    std::vector<uint64_t> values(1 << 17);
    uint64_t x = 0;
    for (uint64_t& v : values) v = x += 0x9E3779B97F4A7C15ull;
    return values;
  }();
  const Clock::time_point start = Clock::now();
  uint64_t h = 1;
  for (int i = 0; i < 600'000; ++i) {
    h ^= table[h & (table.size() - 1)];
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
  }
  const double seconds = SecondsSince(start);
  probe_sink = h;
  return seconds;
}

/// Attempted and failed operations per phase.
class Ledger {
 public:
  void Record(const std::string& phase, bool ok) {
    auto& [attempted, failed] = phases_[phase];
    ++attempted;
    if (!ok) ++failed;
  }

  void Print() const {
    std::fprintf(stderr, "%-14s %9s %9s %6s\n", "phase", "attempted",
                 "succeeded", "failed");
    for (const auto& [phase, counts] : phases_) {
      std::fprintf(stderr, "%-14s %9llu %9llu %6llu\n", phase.c_str(),
                   static_cast<unsigned long long>(counts.first),
                   static_cast<unsigned long long>(counts.first -
                                                   counts.second),
                   static_cast<unsigned long long>(counts.second));
    }
  }

  void Totals(RunResult* result) const {
    for (const auto& [phase, counts] : phases_) {
      result->attempted += counts.first;
      result->failed += counts.second;
    }
  }

 private:
  std::map<std::string, std::pair<uint64_t, uint64_t>> phases_;
};

/// Returns freed heap to the kernel and resets VmHWM to the current
/// resident size, so the next PeakRssMiB() covers only what follows.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

/// VmHWM: the resident high-water mark since the last reset.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double FileMiB(const std::filesystem::path& path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    uintmax_t bytes = 0;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(path, ec)) {
      if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
    }
    return static_cast<double>(bytes) / kMiB;
  }
  const uintmax_t bytes = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes) / kMiB;
}

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}
static_assert(sizeof(SimilarPair) == 16, "SimilarPair has padding");
static_assert(sizeof(ColumnPair) == 8, "ColumnPair has padding");

// ---------------------------------------------------------------------
// Setup and ground truth.

using TruthIndex = std::unordered_map<ColumnPair, double, sans::ColumnPairHash>;

struct Prepared {
  std::string table_path;
  sans::RowId rows = 0;
  std::vector<double> setup_seconds;
  TruthIndex truth;
  std::vector<Request> requests;
  std::map<ColumnId, ExactNeighbors> exact_topk;
};

/// Generates and writes the table `reps` times (the timed setup), then
/// derives truth and the request list from the last copy and drops it,
/// so nothing of setup stays resident into mining.
Result<Prepared> Prepare(const Workload& workload, const RunOptions& options,
                         int reps) {
  Prepared prepared;
  prepared.table_path = options.work_dir + "/table.sans";
  {
    std::optional<sans::BinaryMatrix> matrix;
    for (int rep = 0; rep < reps; ++rep) {
      matrix.reset();
      const Clock::time_point start = Clock::now();
      SANS_ASSIGN_OR_RETURN(sans::BinaryMatrix generated,
                            GenerateTable(workload, options.seed));
      SANS_RETURN_IF_ERROR(
          sans::WriteTableFile(generated, prepared.table_path));
      prepared.setup_seconds.push_back(SecondsSince(start));
      matrix.emplace(std::move(generated));
    }
    const Clock::time_point truth_start = Clock::now();
    matrix->EnsureColumnMajor();
    prepared.rows = matrix->num_rows();
    for (const SimilarPair& pair : ExactSimilarPairs(*matrix, kThreshold)) {
      prepared.truth.emplace(pair.pair, pair.similarity);
    }
    SANS_ASSIGN_OR_RETURN(
        prepared.requests,
        MakeRequests(*matrix, kTopKRequests, kPairRequests, options.seed));
    for (const Request& request : prepared.requests) {
      if (request.kind == Request::kTopK &&
          !prepared.exact_topk.contains(request.a)) {
        prepared.exact_topk.emplace(request.a,
                                    ExactTopK(*matrix, request.a, kTopK));
      }
    }
    std::fprintf(stderr,
                 "[setup] %u x %u table, %llu ones; %zu true pairs at "
                 "s*=%.2f, %zu distinct TopK columns; truth took %.2fs\n",
                 matrix->num_rows(), matrix->num_cols(),
                 static_cast<unsigned long long>(matrix->num_ones()),
                 prepared.truth.size(), kThreshold,
                 prepared.exact_topk.size(), SecondsSince(truth_start));
  }
  malloc_trim(0);
  return prepared;
}

size_t TrueCandidates(const std::vector<ColumnPair>& candidates,
                      const TruthIndex& truth) {
  size_t found = 0;
  for (const ColumnPair& pair : candidates) found += truth.contains(pair);
  return found;
}

/// Verified pairs must be true pairs carrying their exact similarity.
bool PairsMatchTruth(const std::vector<SimilarPair>& pairs,
                     const TruthIndex& truth) {
  for (const SimilarPair& p : pairs) {
    const auto it = truth.find(p.pair);
    if (it == truth.end() || it->second != p.similarity) return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// Operations of the mining loop.

enum Op { kMh, kKmh, kMlsh, kHlsh, kCkpt, kIndex, kNumOps };
constexpr std::array<const char*, kNumOps> kOpNames = {
    "mh", "kmh", "mlsh", "hlsh", "ckpt", "index"};
constexpr std::array<Op, 4> kMiners = {kMh, kKmh, kMlsh, kHlsh};

/// `sans mine` / `sans index` defaults at the workload's thread count.
struct Configs {
  sans::MhMinerConfig mh;
  sans::KmhMinerConfig kmh;
  sans::MlshMinerConfig mlsh;
  sans::HlshMinerConfig hlsh;
  sans::PipelineConfig ckpt;
  sans::SimilarityIndexConfig index;
  std::string index_path;
};

Configs MakeConfigs(const Workload& workload, const RunOptions& options) {
  sans::ExecutionConfig execution;
  execution.num_threads = workload.mine_threads;
  Configs c;
  c.mh.min_hash.num_hashes = 100;
  c.mh.min_hash.seed = options.seed;
  c.mh.delta = 0.25;
  c.mh.execution = execution;
  c.kmh.sketch.k = 100;
  c.kmh.sketch.seed = options.seed;
  c.kmh.delta = 0.25;
  c.kmh.execution = execution;
  c.mlsh.lsh.rows_per_band = 5;
  c.mlsh.lsh.num_bands = 20;
  c.mlsh.seed = options.seed;
  c.mlsh.execution = execution;
  c.hlsh.lsh.rows_per_run = 12;
  c.hlsh.lsh.num_runs = 4;
  c.hlsh.lsh.seed = options.seed;
  c.hlsh.execution = execution;
  c.ckpt.algorithm = sans::PipelineAlgorithm::kMlsh;
  c.ckpt.threshold = kThreshold;
  c.ckpt.mlsh = c.mlsh;
  c.ckpt.checkpoint_dir = options.work_dir + "/ckpt";
  c.ckpt.execution = execution;
  c.index.sketch_k = 128;
  c.index.rows_per_band = 5;
  c.index.num_bands = 20;
  c.index.seed = options.seed;
  c.index.execution = execution;
  c.index_path = options.work_dir + "/index.sidx";
  return c;
}

std::string SpanName(Op op) {
  return op == kIndex ? "serve.index.build"
                      : std::string("mine.") + kOpNames[op];
}

struct OpOutput {
  MiningReport report;
  double seconds = 0.0;
  double peak_mib = 0.0;
};

/// One operation through the public entry points. With a tracer, the timed
/// part is one span named after the operation.
Result<OpOutput> RunOp(Op op, const Configs& c,
                       const sans::TableFileSource& source,
                       Tracer* tracer = nullptr) {
  if (op == kCkpt) std::filesystem::remove_all(c.ckpt.checkpoint_dir);
  ResetPeakRss();
  OpOutput out;
  const auto span = Tracer::MaybeBegin(tracer, SpanName(op));
  const Clock::time_point start = Clock::now();
  switch (op) {
    case kMh: {
      SANS_ASSIGN_OR_RETURN(out.report,
                            sans::MhMiner(c.mh).Mine(source, kThreshold));
      break;
    }
    case kKmh: {
      SANS_ASSIGN_OR_RETURN(out.report,
                            sans::KmhMiner(c.kmh).Mine(source, kThreshold));
      break;
    }
    case kMlsh: {
      SANS_ASSIGN_OR_RETURN(out.report,
                            sans::MlshMiner(c.mlsh).Mine(source, kThreshold));
      break;
    }
    case kHlsh: {
      SANS_ASSIGN_OR_RETURN(out.report,
                            sans::HlshMiner(c.hlsh).Mine(source, kThreshold));
      break;
    }
    case kCkpt: {
      const sans::PipelineRunner runner(c.ckpt);
      SANS_ASSIGN_OR_RETURN(sans::PipelineRunSummary summary,
                            runner.Run(source));
      out.report = std::move(summary.report);
      break;
    }
    case kIndex:
      SANS_RETURN_IF_ERROR(
          sans::IndexBuilder(c.index).Build(source, c.index_path));
      break;
    case kNumOps:
      break;
  }
  out.seconds = SecondsSince(start);
  out.peak_mib = PeakRssMiB();
  return out;
}

/// The same operation rebuilt from the phase functions Miner::Mine
/// calls, one span per layer call. The checkpointed run and the index
/// build have no phase functions to rebuild from and run whole.
Result<OpOutput> RunTracedOp(Op op, const Configs& c,
                             const sans::TableFileSource& source,
                             Tracer* tracer) {
  if (op == kCkpt || op == kIndex) return RunOp(op, c, source, tracer);
  OpOutput out;
  std::vector<ColumnPair>& candidates = out.report.candidates;
  std::vector<SimilarPair>& pairs = out.report.pairs;
  const Clock::time_point start = Clock::now();
  const auto verify = [&](const sans::ExecutionConfig& execution,
                          sans::ThreadPool* pool) -> Status {
    const auto span =
        tracer->Begin(std::string("mine.") + kOpNames[op] + ".verify");
    SANS_ASSIGN_OR_RETURN(pairs, sans::VerifyCandidatesParallel(
                                     source, candidates, kThreshold,
                                     execution, pool));
    return Status::OK();
  };
  const auto op_span = tracer->Begin(SpanName(op));
  switch (op) {
    case kMh: {
      const auto pool = sans::MaybeCreatePool(c.mh.execution);
      sans::SignatureMatrix signatures(1, 0);
      {
        const auto span = tracer->Begin("sketch.minhash");
        SANS_ASSIGN_OR_RETURN(
            signatures, sans::ComputeMinHashParallel(
                            source, c.mh.min_hash, c.mh.execution, pool.get()));
      }
      {
        const auto span = tracer->Begin("candgen.rowsort");
        const int min_agreements = std::max(
            1, static_cast<int>(std::ceil((1.0 - c.mh.delta) * kThreshold *
                                          c.mh.min_hash.num_hashes)));
        const sans::RowSorter sorter(&signatures);
        candidates = sorter.Candidates(min_agreements).SortedPairs();
      }
      SANS_RETURN_IF_ERROR(verify(c.mh.execution, pool.get()));
      break;
    }
    case kKmh: {
      const auto pool = sans::MaybeCreatePool(c.kmh.execution);
      sans::KMinHashSketch sketch(1, 0);
      {
        const auto span = tracer->Begin("sketch.kminhash");
        SANS_ASSIGN_OR_RETURN(
            sketch, sans::ComputeKMinHashParallel(source, c.kmh.sketch,
                                                  c.kmh.execution, pool.get()));
      }
      {
        const auto span = tracer->Begin("candgen.kmh");
        SANS_ASSIGN_OR_RETURN(
            const sans::CandidateSet counted,
            sans::HashCountKMinHashAdaptiveParallel(
                sketch, c.kmh.hash_count_slack * kThreshold, pool.get()));
        const double prune_floor = (1.0 - c.kmh.delta) * kThreshold;
        for (const auto& [pair, count] : counted) {
          if (c.kmh.unbiased_pruning &&
              sans::EstimateSimilarityUnbiased(sketch.Signature(pair.first),
                                               sketch.Signature(pair.second),
                                               c.kmh.sketch.k) < prune_floor) {
            continue;
          }
          candidates.push_back(pair);
        }
        std::sort(candidates.begin(), candidates.end());
      }
      SANS_RETURN_IF_ERROR(verify(c.kmh.execution, pool.get()));
      break;
    }
    case kMlsh: {
      const auto pool = sans::MaybeCreatePool(c.mlsh.execution);
      sans::MinHashConfig min_hash;
      min_hash.num_hashes =
          c.mlsh.lsh.sampled ? c.mlsh.num_hashes
                             : c.mlsh.lsh.rows_per_band * c.mlsh.lsh.num_bands;
      min_hash.family = c.mlsh.family;
      min_hash.seed = c.mlsh.seed;
      sans::SignatureMatrix signatures(1, 0);
      {
        const auto span = tracer->Begin("sketch.minhash");
        SANS_ASSIGN_OR_RETURN(
            signatures, sans::ComputeMinHashParallel(
                            source, min_hash, c.mlsh.execution, pool.get()));
      }
      {
        const auto span = tracer->Begin("candgen.minlsh");
        sans::MinLshConfig lsh = c.mlsh.lsh;
        lsh.seed = c.mlsh.seed;
        SANS_ASSIGN_OR_RETURN(
            const sans::CandidateSet generated,
            sans::MinLshCandidateGenerator(lsh).Generate(signatures,
                                                         pool.get()));
        candidates = generated.SortedPairs();
      }
      SANS_RETURN_IF_ERROR(verify(c.mlsh.execution, pool.get()));
      break;
    }
    case kHlsh: {
      sans::BinaryMatrix matrix(0, 0);
      {
        const auto span = tracer->Begin("matrix.materialize");
        SANS_ASSIGN_OR_RETURN(std::unique_ptr<sans::RowStream> stream,
                              source.Open());
        SANS_ASSIGN_OR_RETURN(matrix, sans::MaterializeStream(stream.get()));
      }
      {
        const auto span = tracer->Begin("candgen.hamming");
        candidates = sans::HammingLshCandidateGenerator(c.hlsh.lsh)
                         .Generate(matrix)
                         .SortedPairs();
      }
      const auto pool = sans::MaybeCreatePool(c.hlsh.execution);
      SANS_RETURN_IF_ERROR(verify(c.hlsh.execution, pool.get()));
      break;
    }
    case kCkpt:
    case kIndex:
    case kNumOps:
      break;
  }
  out.seconds = SecondsSince(start);
  return out;
}

/// Checks one mining output and keeps the first as the reference the
/// later repetitions (and the traced rebuilds) must equal byte for byte.
class MiningChecker {
 public:
  explicit MiningChecker(const TruthIndex* truth) : truth_(truth) {}

  /// Untraced output: pairs are true pairs with exact similarities, a
  /// checkpointed run equals M-LSH, repetitions equal the first.
  bool Check(Op op, const MiningReport& report) {
    if (op == kIndex) return true;
    bool ok = PairsMatchTruth(report.pairs, *truth_);
    if (op == kCkpt) {
      ok = ok && reference_[kMlsh] &&
           SameBytes(report.pairs, reference_[kMlsh]->pairs);
    }
    return SameAsReference(op, report) && ok;
  }

  /// Byte-for-byte equality with the first output of `op`; the first
  /// output becomes the reference.
  bool SameAsReference(Op op, const MiningReport& report) {
    if (op == kIndex) return true;
    if (!reference_[op]) {
      reference_[op] = report;
      return true;
    }
    return SameBytes(report.candidates, reference_[op]->candidates) &&
           SameBytes(report.pairs, reference_[op]->pairs);
  }

  const MiningReport* Reference(Op op) const {
    return reference_[op] ? &*reference_[op] : nullptr;
  }

  /// Σ true pairs found over the four miners / (4 · |truth|).
  double PooledRecall() const {
    double found = 0.0;
    for (const Op op : kMiners) found += Recall(op);
    return found / kMiners.size();
  }

  double Recall(Op op) const {
    if (truth_->empty()) return 1.0;
    if (!reference_[op]) return 0.0;
    size_t found = 0;
    for (const SimilarPair& p : reference_[op]->pairs) {
      found += truth_->contains(p.pair);
    }
    return static_cast<double>(found) / truth_->size();
  }

 private:
  const TruthIndex* truth_;
  std::array<std::optional<MiningReport>, kNumOps> reference_;
};

const char* LedgerPhase(Op op) {
  return op == kIndex ? "index" : op == kCkpt ? "ckpt" : "mine";
}

// ---------------------------------------------------------------------
// Serve phase.

/// One served request: the client's status, answer and round trip.
struct Answer {
  Status status;
  std::vector<sans::Neighbor> neighbors;
  double similarity = 0.0;
  double seconds = 0.0;
};

struct Replay {
  std::vector<Answer> answers;
  /// Wall time spent replaying, summed over chunks.
  double wall_seconds = 0.0;
};

/// A loopback server and `connections` persistent closed-loop clients,
/// each with one request outstanding. The request list is replayed
/// `passes` times back to back, possibly in chunks spread over the run;
/// replayed request i is requests[i % requests.size()].
class LoopbackServe {
 public:
  static Result<std::unique_ptr<LoopbackServe>> Start(
      std::shared_ptr<const sans::SimilarityIndex> index,
      const Workload& workload, const std::vector<Request>* requests,
      int passes) {
    auto serve_loop =
        std::unique_ptr<LoopbackServe>(new LoopbackServe(requests));
    sans::ServerConfig server_config;
    server_config.num_threads = workload.server_workers;
    SANS_ASSIGN_OR_RETURN(serve_loop->server_,
                          sans::Server::Start(std::move(index), server_config));
    sans::ClientConfig client_config;
    client_config.port = serve_loop->server_->port();
    for (int c = 0; c < workload.connections; ++c) {
      SANS_ASSIGN_OR_RETURN(std::unique_ptr<sans::Client> client,
                            sans::Client::Connect(client_config));
      serve_loop->clients_.push_back(std::move(client));
    }
    serve_loop->replay_.answers.resize(requests->size() * passes);
    return serve_loop;
  }

  /// Number of requests over all passes.
  size_t size() const { return replay_.answers.size(); }

  /// Replays requests [begin, end): connection c sends begin + c,
  /// begin + c + connections, ....
  void ReplayChunk(size_t begin, size_t end) {
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (size_t c = 1; c < clients_.size(); ++c) {
      threads.emplace_back([this, c, begin, end] { Drive(c, begin, end); });
    }
    Drive(0, begin, end);
    for (std::thread& thread : threads) thread.join();
    replay_.wall_seconds += SecondsSince(start);
  }

  /// Stops the server (recording whether it reported errors as one
  /// "serve.errors" operation) and hands over the answers.
  Replay Finish(Ledger* ledger) {
    ledger->Record("serve.errors", server_->Stats().errors == 0);
    clients_.clear();
    server_->Stop();
    return std::move(replay_);
  }

 private:
  explicit LoopbackServe(const std::vector<Request>* requests)
      : requests_(requests) {}

  void Drive(size_t connection, size_t begin, size_t end) {
    sans::Client& client = *clients_[connection];
    for (size_t i = begin + connection; i < end; i += clients_.size()) {
      const Request& request = (*requests_)[i % requests_->size()];
      Answer& answer = replay_.answers[i];
      const Clock::time_point sent = Clock::now();
      if (request.kind == Request::kTopK) {
        auto reply = client.TopK(request.a, kTopK);
        answer.status = reply.status();
        if (reply.ok()) answer.neighbors = std::move(reply).value();
      } else {
        auto reply = client.PairSimilarity(request.a, request.b);
        answer.status = reply.status();
        if (reply.ok()) answer.similarity = *reply;
      }
      answer.seconds = SecondsSince(sent);
    }
  }

  const std::vector<Request>* requests_;
  std::unique_ptr<sans::Server> server_;
  std::vector<std::unique_ptr<sans::Client>> clients_;
  Replay replay_;
};

/// The in-process QueryEngine's TopK answer per distinct query column.
using ExpectedTopK = std::map<ColumnId, std::vector<sans::Neighbor>>;

ExpectedTopK ExpectTopK(const sans::QueryEngine& engine,
                        const std::vector<Request>& requests, int threads) {
  std::vector<ColumnId> cols;
  for (const Request& request : requests) {
    if (request.kind == Request::kTopK) cols.push_back(request.a);
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  sans::ThreadPool pool(threads);
  ExpectedTopK expected;
  auto answers = engine.BatchTopK(cols, kTopK, 0.0, &pool);
  if (answers.ok()) {
    for (size_t i = 0; i < cols.size(); ++i) {
      expected.emplace(cols[i], std::move((*answers)[i]));
    }
  }
  return expected;
}

struct ServeScore {
  std::vector<double> topk_ms;
  std::vector<double> pair_us;
  double topk_recall = 0.0;
};

/// Checks every served answer against the in-process engine (a missing
/// or different answer is a failed "serve" operation) and scores
/// recall@k against exact truth. Recall is averaged over the distinct
/// query columns that co-occur with anything, so the few Zipf-head
/// columns queried most do not dominate it; a column takes its lowest
/// recall over all its answers and passes, and one any of whose answers
/// failed scores zero. Latencies are kept for correct answers
/// only.
ServeScore ScoreAnswers(const Replay& replay, const Prepared& prepared,
                        const ExpectedTopK& expected,
                        const sans::QueryEngine& engine, Ledger* ledger) {
  ServeScore score;
  std::map<ColumnId, double> recall;
  for (size_t i = 0; i < replay.answers.size(); ++i) {
    const Request& request = prepared.requests[i % prepared.requests.size()];
    const Answer& answer = replay.answers[i];
    bool ok = answer.status.ok();
    if (request.kind == Request::kTopK) {
      const auto it = expected.find(request.a);
      ok = ok && it != expected.end() && answer.neighbors == it->second;
      if (ok) score.topk_ms.push_back(answer.seconds * 1e3);
      const ExactNeighbors& exact = prepared.exact_topk.at(request.a);
      if (exact.wanted > 0) {
        size_t hits = 0;
        if (ok) {
          for (const sans::Neighbor& n : answer.neighbors) {
            hits += std::binary_search(exact.hits.begin(), exact.hits.end(),
                                       n.col);
          }
        }
        const double r =
            static_cast<double>(std::min(hits, exact.wanted)) / exact.wanted;
        const auto [entry, inserted] = recall.emplace(request.a, r);
        if (!inserted) entry->second = std::min(entry->second, r);
      }
    } else {
      const Result<double> similarity =
          engine.PairSimilarity(request.a, request.b);
      ok = ok && similarity.ok() && *similarity == answer.similarity;
      if (ok) score.pair_us.push_back(answer.seconds * 1e6);
    }
    ledger->Record("serve", ok);
  }
  double recall_sum = 0.0;
  for (const auto& [col, r] : recall) recall_sum += r;
  score.topk_recall = recall.empty() ? 1.0 : recall_sum / recall.size();
  return score;
}

void LogSeconds(const char* label, const std::vector<double>& seconds) {
  std::fprintf(stderr, "  %-6s", label);
  for (const double s : seconds) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "  (median %.4f)\n", Median(seconds));
}

void LogDeciles(const char* label, const std::vector<double>& values) {
  std::fprintf(stderr, "  %-8s deciles", label);
  for (int d = 1; d <= 10; ++d) {
    std::fprintf(stderr, " %.4g", Percentile(values, d / 10.0));
  }
  std::fprintf(stderr, "\n");
}

Status MakeWorkDir(const RunOptions& options) {
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return Status::IOError("cannot create " + options.work_dir);
  return Status::OK();
}

}  // namespace

Result<RunResult> RunEndToEnd(const Workload& workload,
                              const RunOptions& options) {
  SANS_RETURN_IF_ERROR(MakeWorkDir(options));
  Ledger ledger;
  SANS_ASSIGN_OR_RETURN(const Prepared prepared,
                        Prepare(workload, options, kSetupReps));
  SANS_ASSIGN_OR_RETURN(const sans::TableFileSource source,
                        sans::TableFileSource::Create(prepared.table_path));
  const Configs configs = MakeConfigs(workload, options);
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "[mine] cannot reset VmHWM; peaks include setup\n");
  }

  // An untimed first index build warms the caches and gives the server
  // its index before the loop, so every timed repetition runs with the
  // same resident set.
  {
    Result<OpOutput> warmup = RunOp(kIndex, configs, source);
    ledger.Record("index", warmup.ok());
    SANS_RETURN_IF_ERROR(warmup.status());
  }
  SANS_ASSIGN_OR_RETURN(sans::SimilarityIndex loaded,
                        sans::SimilarityIndex::Load(configs.index_path));
  const auto index =
      std::make_shared<const sans::SimilarityIndex>(std::move(loaded));
  SANS_ASSIGN_OR_RETURN(
      std::unique_ptr<LoopbackServe> serve_loop,
      LoopbackServe::Start(index, workload, &prepared.requests,
                           kServePasses));

  // Round-robin: every operation once per round, so host drift hits
  // every metric alike. Between operations, the next slice of the
  // replayed request list is sent once its share of the time budget
  // has passed: slice s is due at s / kServeSlices of the budget, so
  // the serve samples spread over the whole run. Slices not yet sent
  // when the loop ends are sent after it. The host probe is timed after
  // every operation.
  MiningChecker checker(&prepared.truth);
  std::array<std::vector<double>, kNumOps> seconds;
  std::array<std::vector<double>, kNumOps> peaks;
  const size_t num_served = serve_loop->size();
  int slices_sent = 0;
  const auto send_slice = [&] {
    serve_loop->ReplayChunk(num_served * slices_sent / kServeSlices,
                            num_served * (slices_sent + 1) / kServeSlices);
    ++slices_sent;
  };
  std::vector<double> probe_seconds;
  const Clock::time_point loop_start = Clock::now();
  double round_seconds = 0.0;
  int rounds = 0;
  for (; rounds < kMaxRounds; ++rounds) {
    if (rounds >= kMinRounds &&
        SecondsSince(loop_start) + round_seconds > options.seconds) {
      break;
    }
    const Clock::time_point round_start = Clock::now();
    for (int i = 0; i < kNumOps; ++i) {
      const Op op = static_cast<Op>(i);
      Result<OpOutput> out = RunOp(op, configs, source);
      if (out.ok()) {
        ledger.Record(LedgerPhase(op), checker.Check(op, out->report));
        seconds[op].push_back(out->seconds);
        peaks[op].push_back(out->peak_mib);
      } else {
        std::fprintf(stderr, "[%s] %s\n", kOpNames[op],
                     out.status().ToString().c_str());
        ledger.Record(LedgerPhase(op), false);
      }
      if (slices_sent < kServeSlices &&
          SecondsSince(loop_start) >=
              options.seconds * slices_sent / kServeSlices) {
        send_slice();
      }
      probe_seconds.push_back(HostProbeSeconds());
    }
    round_seconds = SecondsSince(round_start);
  }
  while (slices_sent < kServeSlices) send_slice();
  const Replay replay = serve_loop->Finish(&ledger);
  std::fprintf(stderr, "[mine] %d rounds, seconds per repetition:\n", rounds);
  for (int op = 0; op < kNumOps; ++op) LogSeconds(kOpNames[op], seconds[op]);
  LogSeconds("setup", prepared.setup_seconds);
  LogSeconds("probe", probe_seconds);
  // Timings are reported at the nominal host speed: divided by how
  // much slower than nominal the probe ran in this run. The medians
  // logged above are the unscaled wall times.
  const double slowdown = Median(probe_seconds) / kProbeNominalSeconds;
  std::fprintf(stderr,
               "[host] slowdown %.4f; reported timings are the wall times "
               "divided by it\n",
               slowdown);

  double mine_peak = 0.0;
  for (const Op op : {kMh, kKmh, kMlsh, kHlsh, kCkpt}) {
    mine_peak = std::max(mine_peak, Median(peaks[op]));
  }

  const sans::QueryEngine engine(index);
  const ServeScore serve = ScoreAnswers(
      replay, prepared,
      ExpectTopK(engine, prepared.requests,
                 workload.server_workers + workload.connections),
      engine, &ledger);
  const double served = static_cast<double>(num_served);
  std::fprintf(stderr, "[serve] %zu TopK + %zu pair answers in %.3fs\n",
               serve.topk_ms.size(), serve.pair_us.size(),
               replay.wall_seconds);
  LogDeciles("topk_ms", serve.topk_ms);
  LogDeciles("pair_us", serve.pair_us);

  RunResult result;
  result.metrics = {
      {"setup_s", Median(prepared.setup_seconds), "s"},
      {"mh_mine_s", Median(seconds[kMh]) / slowdown, "s"},
      {"kmh_mine_s", Median(seconds[kKmh]) / slowdown, "s"},
      {"mlsh_mine_s", Median(seconds[kMlsh]) / slowdown, "s"},
      {"hlsh_mine_s", Median(seconds[kHlsh]) / slowdown, "s"},
      {"ckpt_mine_s", Median(seconds[kCkpt]) / slowdown, "s"},
      {"mine_recall", checker.PooledRecall(), "ratio"},
      {"mine_peak_mb", mine_peak, "MiB"},
      {"index_build_s", Median(seconds[kIndex]) / slowdown, "s"},
      {"index_mb", FileMiB(configs.index_path), "MiB"},
      {"topk_p50_ms", Percentile(serve.topk_ms, 0.50) / slowdown, "ms"},
      {"topk_p95_ms", Percentile(serve.topk_ms, 0.95) / slowdown, "ms"},
      {"pair_p50_us", Percentile(serve.pair_us, 0.50) / slowdown, "us"},
      {"serve_qps", served / replay.wall_seconds * slowdown, "1/s"},
      {"topk_recall", serve.topk_recall, "ratio"},
  };
  ledger.Print();
  ledger.Totals(&result);
  return result;
}

Result<RunResult> RunTraced(const Workload& workload,
                            const RunOptions& options) {
  SANS_RETURN_IF_ERROR(MakeWorkDir(options));
  Ledger ledger;
  SANS_ASSIGN_OR_RETURN(const Prepared prepared,
                        Prepare(workload, options, /*reps=*/1));
  SANS_ASSIGN_OR_RETURN(const sans::TableFileSource source,
                        sans::TableFileSource::Create(prepared.table_path));
  const Configs configs = MakeConfigs(workload, options);
  Tracer tracer;
  MiningChecker checker(&prepared.truth);
  std::array<std::vector<double>, kNumOps> peaks;
  std::vector<double> overheads;

  // Untraced and traced passes alternate which goes first, so drift
  // over the run does not bias the overhead. The first pass of round 0
  // is untraced: its outputs are the references.
  const Clock::time_point loop_start = Clock::now();
  double round_seconds = 0.0;
  for (int round = 0; round < kMaxRounds; ++round) {
    if (round >= 1 &&
        SecondsSince(loop_start) + round_seconds > options.seconds / 2) {
      break;
    }
    const Clock::time_point round_start = Clock::now();
    double untraced = 0.0;
    double traced = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
      const bool tracing = (pass == 1) == (round % 2 == 0);
      for (int i = 0; i < kNumOps; ++i) {
        const Op op = static_cast<Op>(i);
        Result<OpOutput> out = tracing
                                   ? RunTracedOp(op, configs, source, &tracer)
                                   : RunOp(op, configs, source);
        if (!out.ok()) {
          std::fprintf(stderr, "[%s] %s\n", kOpNames[op],
                       out.status().ToString().c_str());
          ledger.Record(tracing ? "trace" : LedgerPhase(op), false);
          continue;
        }
        if (tracing) {
          traced += out->seconds;
          ledger.Record("trace", checker.SameAsReference(op, out->report));
        } else {
          untraced += out->seconds;
          peaks[op].push_back(out->peak_mib);
          ledger.Record(LedgerPhase(op), checker.Check(op, out->report));
        }
      }
    }
    overheads.push_back(traced - untraced);
    round_seconds = SecondsSince(round_start);
  }

  {
    const auto span = tracer.Begin("matrix.scan");
    Status scanned = Status::OK();
    auto stream = source.Open();
    if (stream.ok()) {
      sans::RowView row;
      while ((*stream)->Next(&row)) {
      }
      scanned = (*stream)->stream_status();
    } else {
      scanned = stream.status();
    }
    ledger.Record("scan", scanned.ok());
  }

  // The checkpoint of the last ckpt operation is complete; a resume
  // must reuse all three stages and reproduce M-LSH's pairs.
  const double artifact_mib = FileMiB(configs.ckpt.checkpoint_dir);
  {
    sans::PipelineConfig resumed = configs.ckpt;
    resumed.resume = true;
    const auto span = tracer.Begin("mine.pipeline.resume");
    const auto summary = sans::PipelineRunner(resumed).Run(source);
    const MiningReport* mlsh = checker.Reference(kMlsh);
    ledger.Record("resume", summary.ok() && summary->reused_signatures &&
                                summary->reused_candidates &&
                                summary->reused_pairs && mlsh != nullptr &&
                                SameBytes(summary->report.pairs, mlsh->pairs));
  }

  std::shared_ptr<const sans::SimilarityIndex> index;
  {
    const auto span = tracer.Begin("serve.index.load");
    SANS_ASSIGN_OR_RETURN(sans::SimilarityIndex loaded,
                          sans::SimilarityIndex::Load(configs.index_path));
    index = std::make_shared<const sans::SimilarityIndex>(std::move(loaded));
  }
  // The engine pass times each query in process and supplies the
  // answers the wire replay is checked against.
  const sans::QueryEngine engine(index);
  ExpectedTopK expected;
  std::vector<double> engine_topk_us;
  std::vector<double> engine_pair_us;
  size_t fallbacks = 0;
  double bucket_candidates = 0.0;
  {
    const auto span = tracer.Begin("serve.engine");
    for (const Request& request : prepared.requests) {
      const Clock::time_point sent = Clock::now();
      bool ok = true;
      if (request.kind == Request::kTopK) {
        sans::TopKInfo info;
        auto answer = engine.TopK(request.a, kTopK, 0.0, &info);
        engine_topk_us.push_back(SecondsSince(sent) * 1e6);
        fallbacks += info.fallback_scan ? 1 : 0;
        bucket_candidates += static_cast<double>(info.bucket_candidates);
        ok = answer.ok();
        if (ok) expected.emplace(request.a, std::move(answer).value());
      } else {
        ok = engine.PairSimilarity(request.a, request.b).ok();
        engine_pair_us.push_back(SecondsSince(sent) * 1e6);
      }
      ledger.Record("engine", ok);
    }
  }
  std::vector<double> ping_us;
  {
    sans::ServerConfig server_config;
    server_config.num_threads = workload.server_workers;
    SANS_ASSIGN_OR_RETURN(std::unique_ptr<sans::Server> server,
                          sans::Server::Start(index, server_config));
    sans::ClientConfig client_config;
    client_config.port = server->port();
    SANS_ASSIGN_OR_RETURN(std::unique_ptr<sans::Client> client,
                          sans::Client::Connect(client_config));
    const auto span = tracer.Begin("serve.wire.ping");
    for (int i = 0; i < kPings; ++i) {
      const Clock::time_point sent = Clock::now();
      const bool ok = client->Ping().ok();
      ping_us.push_back(SecondsSince(sent) * 1e6);
      ledger.Record("ping", ok);
    }
  }
  Ledger wire;
  {
    const auto span = tracer.Begin("serve.wire");
    SANS_ASSIGN_OR_RETURN(
        std::unique_ptr<LoopbackServe> serve_loop,
        LoopbackServe::Start(index, workload, &prepared.requests,
                             /*passes=*/1));
    serve_loop->ReplayChunk(0, serve_loop->size());
    ScoreAnswers(serve_loop->Finish(&wire), prepared, expected, engine, &wire);
  }
  RunResult wire_counts;
  wire.Totals(&wire_counts);

  const auto median_of = [&tracer](const std::string& name) {
    return Median(tracer.Durations(name));
  };
  const auto self_median = [&tracer](const std::string& name) {
    std::vector<double> self;
    for (size_t i = 0; i < tracer.spans().size(); ++i) {
      if (tracer.spans()[i].name == name) self.push_back(tracer.SelfSeconds(i));
    }
    return Median(self);
  };
  std::vector<double> pipeline_overheads;
  {
    const std::vector<double> ckpt = tracer.Durations("mine.ckpt");
    const std::vector<double> mlsh = tracer.Durations("mine.mlsh");
    for (size_t i = 0; i < std::min(ckpt.size(), mlsh.size()); ++i) {
      pipeline_overheads.push_back(ckpt[i] - mlsh[i]);
    }
  }
  const double topk_queries = static_cast<double>(engine_topk_us.size());

  RunResult result;
  const double minhash_s = median_of("sketch.minhash");
  result.metrics = {
      {"matrix.scan_s", median_of("matrix.scan"), "s"},
      {"matrix.materialize_s", median_of("matrix.materialize"), "s"},
      {"sketch.minhash_s", minhash_s, "s"},
      {"sketch.minhash_rows_per_s",
       minhash_s > 0.0 ? prepared.rows / minhash_s : 0.0, "1/s"},
      {"sketch.kminhash_s", median_of("sketch.kminhash"), "s"},
      {"candgen.rowsort_s", median_of("candgen.rowsort"), "s"},
      {"candgen.kmh_s", median_of("candgen.kmh"), "s"},
      {"candgen.minlsh_s", median_of("candgen.minlsh"), "s"},
      {"candgen.hamming_s", median_of("candgen.hamming"), "s"},
  };
  for (const Op op : kMiners) {
    const std::string name = kOpNames[op];
    const MiningReport* reference = checker.Reference(op);
    const std::vector<ColumnPair> none;
    const std::vector<ColumnPair>& generated =
        reference == nullptr ? none : reference->candidates;
    const double candidates = static_cast<double>(generated.size());
    const double true_candidates =
        static_cast<double>(TrueCandidates(generated, prepared.truth));
    result.metrics.push_back(
        {"candgen." + name + ".candidates", candidates, "count"});
    result.metrics.push_back(
        {"candgen." + name + ".precision",
         candidates > 0.0 ? true_candidates / candidates : 0.0, "ratio"});
    result.metrics.push_back(
        {"mine." + name + ".verify_s", median_of("mine." + name + ".verify"),
         "s"});
    result.metrics.push_back(
        {"mine." + name + ".self_s", self_median("mine." + name), "s"});
    result.metrics.push_back(
        {"mine." + name + ".recall", checker.Recall(op), "ratio"});
    result.metrics.push_back(
        {"mine." + name + ".peak_mb", Median(peaks[op]), "MiB"});
  }
  const std::vector<Metric> tail = {
      {"mine.pipeline.overhead_s", Median(pipeline_overheads), "s"},
      {"mine.pipeline.artifact_mb", artifact_mib, "MiB"},
      {"mine.pipeline.resume_s", median_of("mine.pipeline.resume"), "s"},
      {"serve.index.load_s", median_of("serve.index.load"), "s"},
      {"serve.engine.topk_p50_us", Percentile(engine_topk_us, 0.5), "us"},
      {"serve.engine.fallback_share",
       topk_queries > 0.0 ? fallbacks / topk_queries : 0.0, "ratio"},
      {"serve.engine.bucket_candidates_mean",
       topk_queries > 0.0 ? bucket_candidates / topk_queries : 0.0, "count"},
      {"serve.engine.pair_p50_us", Percentile(engine_pair_us, 0.5), "us"},
      {"serve.wire.ping_p50_us", Percentile(ping_us, 0.5), "us"},
      {"serve.requests_failed", static_cast<double>(wire_counts.failed),
       "count"},
      {"obs.trace_overhead_s", Median(overheads), "s"},
  };
  result.metrics.insert(result.metrics.end(), tail.begin(), tail.end());

  // Span table: calls, total and self seconds per span name.
  std::map<std::string, std::array<double, 3>> table;
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    auto& row = table[tracer.spans()[i].name];
    row[0] += 1;
    row[1] += tracer.spans()[i].seconds();
    row[2] += tracer.SelfSeconds(i);
  }
  std::fprintf(stderr, "%-28s %6s %10s %10s\n", "span", "calls", "total_s",
               "self_s");
  for (const auto& [name, row] : table) {
    std::fprintf(stderr, "%-28s %6.0f %10.4f %10.4f\n", name.c_str(), row[0],
                 row[1], row[2]);
  }
  SANS_RETURN_IF_ERROR(tracer.WriteJson(options.work_dir + "/trace.json"));
  ledger.Print();
  wire.Print();
  ledger.Totals(&result);
  wire.Totals(&result);
  return result;
}

}  // namespace perfbench
