#include "mine/pipeline_runner.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <tuple>

#include "candgen/candidate_io.h"
#include "data/synthetic_generator.h"
#include "matrix/row_stream.h"
#include "util/checksum_io.h"

namespace sans {
namespace {

class PipelineRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sans_pipeline_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Dir() const { return dir_.string(); }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static int counter_;
  std::filesystem::path dir_;
};

int PipelineRunnerTest::counter_ = 0;

BinaryMatrix TestMatrix() {
  SyntheticConfig config;
  config.num_rows = 400;
  config.num_cols = 60;
  config.bands = {{4, 70.0, 90.0}};
  config.spread_pairs = false;
  config.seed = 17;
  auto d = GenerateSynthetic(config);
  EXPECT_TRUE(d.ok());
  return std::move(d->matrix);
}

PipelineConfig MlshConfig(const std::string& dir) {
  PipelineConfig config;
  config.algorithm = PipelineAlgorithm::kMlsh;
  config.threshold = 0.6;
  config.mlsh.lsh.rows_per_band = 4;
  config.mlsh.lsh.num_bands = 8;
  config.mlsh.seed = 5;
  config.checkpoint_dir = dir;
  return config;
}

void ExpectSameReport(const MiningReport& a, const MiningReport& b) {
  EXPECT_EQ(a.candidates, b.candidates);
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (size_t i = 0; i < a.pairs.size(); ++i) {
    EXPECT_EQ(a.pairs[i].pair, b.pairs[i].pair);
    EXPECT_DOUBLE_EQ(a.pairs[i].similarity, b.pairs[i].similarity);
  }
}

TEST_F(PipelineRunnerTest, ValidateCatchesBadConfig) {
  PipelineConfig config = MlshConfig(Dir());
  EXPECT_TRUE(config.Validate().ok());
  config.threshold = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config = MlshConfig("");
  EXPECT_FALSE(config.Validate().ok());
  config = MlshConfig(Dir());
  config.resilience.degraded_mode = true;  // budget still 0
  EXPECT_FALSE(config.Validate().ok());
}

TEST_F(PipelineRunnerTest, CleanRunMatchesDirectMiner) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  const PipelineConfig config = MlshConfig(Dir());

  PipelineRunner runner(config);
  auto summary = runner.Run(source);
  ASSERT_TRUE(summary.ok());
  EXPECT_FALSE(summary->reused_signatures);
  EXPECT_FALSE(summary->reused_candidates);
  EXPECT_FALSE(summary->reused_pairs);

  MlshMinerConfig direct;
  direct.lsh.rows_per_band = 4;
  direct.lsh.num_bands = 8;
  direct.seed = 5;
  MlshMiner miner(direct);
  auto report = miner.Mine(source, 0.6);
  ASSERT_TRUE(report.ok());
  ExpectSameReport(summary->report, *report);
  EXPECT_GT(summary->report.pairs.size(), 0u);
}

TEST_F(PipelineRunnerTest, RunReportCapturesPhasesAndCounts) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  PipelineConfig config = MlshConfig(Dir());
  config.run_report_path = Path("report.json");

  PipelineRunner runner(config);
  auto summary = runner.Run(source);
  ASSERT_TRUE(summary.ok());

  const RunReport& report = summary->run_report;
  EXPECT_EQ(report.algorithm, "mlsh");
  EXPECT_DOUBLE_EQ(report.threshold, 0.6);
  EXPECT_EQ(report.table_rows, m.num_rows());
  EXPECT_EQ(report.table_cols, m.num_cols());
  // All three phases timed, in pipeline order.
  ASSERT_EQ(report.phases.size(), 3u);
  EXPECT_EQ(report.phases[0].name, "1-signatures");
  EXPECT_EQ(report.phases[1].name, "2-candidates");
  EXPECT_EQ(report.phases[2].name, "3-verify");
  // Signatures scan + verify scan each touch every row.
  EXPECT_GE(report.rows_scanned, 2u * m.num_rows());
  EXPECT_GT(report.candidates_generated, 0u);
  EXPECT_GT(report.candidates_verified, 0u);
  EXPECT_EQ(report.true_positives, summary->report.pairs.size());
  EXPECT_EQ(report.pairs_emitted, summary->report.pairs.size());
  // The span trace includes the root and the stage spans.
  EXPECT_NE(report.trace_json.find("\"name\":\"run\""), std::string::npos);
  EXPECT_NE(report.trace_json.find("1-signatures"), std::string::npos);

  // The JSON document landed on disk and parses structurally (field
  // spot-checks; full parsing is the smoke test's python job).
  std::ifstream in(config.run_report_path);
  ASSERT_TRUE(in.good());
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(json, RenderRunReportJson(report));
  EXPECT_NE(json.find("\"algorithm\": \"mlsh\""), std::string::npos);
}

TEST_F(PipelineRunnerTest, FullResumeReusesEveryStage) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  PipelineConfig config = MlshConfig(Dir());

  PipelineRunner runner(config);
  auto first = runner.Run(source);
  ASSERT_TRUE(first.ok());

  config.resume = true;
  PipelineRunner resumed(config);
  auto second = resumed.Run(source);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->reused_signatures);
  EXPECT_TRUE(second->reused_candidates);
  EXPECT_TRUE(second->reused_pairs);
  ExpectSameReport(second->report, first->report);
}

TEST_F(PipelineRunnerTest, ResumeAfterLostPairsReusesEarlierStages) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  PipelineConfig config = MlshConfig(Dir());

  PipelineRunner runner(config);
  auto first = runner.Run(source);
  ASSERT_TRUE(first.ok());

  // Simulate a crash after phase 2: the verification artifact is gone.
  std::filesystem::remove(Path(PipelineRunner::kPairsFile));

  config.resume = true;
  PipelineRunner resumed(config);
  auto second = resumed.Run(source);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->reused_signatures);
  EXPECT_TRUE(second->reused_candidates);
  EXPECT_FALSE(second->reused_pairs);
  ExpectSameReport(second->report, first->report);
}

TEST_F(PipelineRunnerTest, CorruptSignatureArtifactIsRecomputed) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  PipelineConfig config = MlshConfig(Dir());

  PipelineRunner runner(config);
  auto first = runner.Run(source);
  ASSERT_TRUE(first.ok());

  {
    // Flip one byte in the middle of the signature artifact.
    std::fstream f(Path(PipelineRunner::kSignaturesFile),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(40);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(40);
    byte = static_cast<char>(byte ^ 0x20);
    f.write(&byte, 1);
  }

  config.resume = true;
  PipelineRunner resumed(config);
  auto second = resumed.Run(source);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->reused_signatures);
  ExpectSameReport(second->report, first->report);
}

TEST_F(PipelineRunnerTest, ChangedConfigInvalidatesCheckpoints) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  PipelineConfig config = MlshConfig(Dir());

  PipelineRunner runner(config);
  ASSERT_TRUE(runner.Run(source).ok());

  config.resume = true;
  config.threshold = 0.7;  // fingerprint changes
  PipelineRunner resumed(config);
  auto second = resumed.Run(source);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->reused_signatures);
  EXPECT_FALSE(second->reused_candidates);
  EXPECT_FALSE(second->reused_pairs);
}

TEST_F(PipelineRunnerTest, ResumeWithoutCheckpointsStartsClean) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  PipelineConfig config = MlshConfig(Dir());
  config.resume = true;  // nothing checkpointed yet
  PipelineRunner runner(config);
  auto summary = runner.Run(source);
  ASSERT_TRUE(summary.ok());
  EXPECT_FALSE(summary->reused_signatures);
  EXPECT_GT(summary->report.pairs.size(), 0u);
}

TEST_F(PipelineRunnerTest, EveryAlgorithmMatchesItsMiner) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);

  {
    PipelineConfig config;
    config.algorithm = PipelineAlgorithm::kMh;
    config.threshold = 0.6;
    config.mh.min_hash.num_hashes = 24;
    config.mh.min_hash.seed = 3;
    config.checkpoint_dir = Path("mh");
    PipelineRunner runner(config);
    auto summary = runner.Run(source);
    ASSERT_TRUE(summary.ok());
    MhMiner miner(config.mh);
    auto report = miner.Mine(source, 0.6);
    ASSERT_TRUE(report.ok());
    ExpectSameReport(summary->report, *report);
  }
  {
    PipelineConfig config;
    config.algorithm = PipelineAlgorithm::kKmh;
    config.threshold = 0.6;
    config.kmh.sketch.k = 24;
    config.kmh.sketch.seed = 3;
    config.checkpoint_dir = Path("kmh");
    PipelineRunner runner(config);
    auto summary = runner.Run(source);
    ASSERT_TRUE(summary.ok());
    KmhMiner miner(config.kmh);
    auto report = miner.Mine(source, 0.6);
    ASSERT_TRUE(report.ok());
    ExpectSameReport(summary->report, *report);
  }
  {
    PipelineConfig config;
    config.algorithm = PipelineAlgorithm::kHlsh;
    config.threshold = 0.6;
    config.hlsh.lsh.rows_per_run = 8;
    config.hlsh.lsh.num_runs = 4;
    config.hlsh.lsh.seed = 3;
    config.checkpoint_dir = Path("hlsh");
    PipelineRunner runner(config);
    auto summary = runner.Run(source);
    ASSERT_TRUE(summary.ok());
    HlshMiner miner(config.hlsh);
    auto report = miner.Mine(source, 0.6);
    ASSERT_TRUE(report.ok());
    ExpectSameReport(summary->report, *report);
  }
}

TEST_F(PipelineRunnerTest, ResumeIsBitIdenticalForEveryAlgorithm) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  const PipelineAlgorithm algorithms[] = {
      PipelineAlgorithm::kMh, PipelineAlgorithm::kKmh,
      PipelineAlgorithm::kMlsh, PipelineAlgorithm::kHlsh};
  for (PipelineAlgorithm algorithm : algorithms) {
    PipelineConfig config = MlshConfig(Path(PipelineAlgorithmName(algorithm)));
    config.algorithm = algorithm;
    config.mh.min_hash.num_hashes = 24;
    config.kmh.sketch.k = 24;
    config.hlsh.lsh.rows_per_run = 8;

    PipelineRunner runner(config);
    auto first = runner.Run(source);
    ASSERT_TRUE(first.ok()) << PipelineAlgorithmName(algorithm);

    // Lose the verification artifact; phase 1-2 checkpoints survive.
    std::filesystem::remove(Path(std::string(PipelineAlgorithmName(algorithm)) +
                                 "/" + PipelineRunner::kPairsFile));
    config.resume = true;
    PipelineRunner resumed(config);
    auto second = resumed.Run(source);
    ASSERT_TRUE(second.ok()) << PipelineAlgorithmName(algorithm);
    EXPECT_TRUE(second->reused_signatures) << PipelineAlgorithmName(algorithm);
    ExpectSameReport(second->report, first->report);
  }
}

TEST_F(PipelineRunnerTest, FingerprintCoversSourceShape) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  const PipelineConfig config = MlshConfig(Dir());
  PipelineRunner runner(config);
  const std::string a = runner.FingerprintString(source);

  auto wider = BinaryMatrix::FromRows(2, 61, {{0}, {1}});
  ASSERT_TRUE(wider.ok());
  InMemorySource other(&wider.value());
  EXPECT_NE(a, runner.FingerprintString(other));
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  std::string bytes((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

PipelineConfig AlgorithmConfig(PipelineAlgorithm algorithm,
                               const std::string& dir) {
  PipelineConfig config = MlshConfig(dir);
  config.algorithm = algorithm;
  config.mh.min_hash.num_hashes = 24;
  config.mh.min_hash.seed = 3;
  config.kmh.sketch.k = 24;
  config.kmh.sketch.seed = 3;
  config.hlsh.lsh.rows_per_run = 8;
  config.hlsh.lsh.num_runs = 4;
  config.hlsh.lsh.seed = 3;
  return config;
}

TEST_F(PipelineRunnerTest, EveryAlgorithmIsThreadCountInvariant) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  const PipelineAlgorithm algorithms[] = {
      PipelineAlgorithm::kMh, PipelineAlgorithm::kKmh,
      PipelineAlgorithm::kMlsh, PipelineAlgorithm::kHlsh};
  for (PipelineAlgorithm algorithm : algorithms) {
    const std::string name = PipelineAlgorithmName(algorithm);

    PipelineConfig reference = AlgorithmConfig(algorithm, Path(name + "_t1"));
    reference.execution.num_threads = 1;
    PipelineRunner reference_runner(reference);
    auto reference_run = reference_runner.Run(source);
    ASSERT_TRUE(reference_run.ok()) << name;

    for (int threads : {2, 3, 8}) {
      PipelineConfig config = AlgorithmConfig(
          algorithm, Path(name + "_t" + std::to_string(threads)));
      config.execution.num_threads = threads;
      config.execution.block_rows = 64;
      PipelineRunner runner(config);
      auto run = runner.Run(source);
      ASSERT_TRUE(run.ok()) << name << " threads=" << threads;
      ExpectSameReport(run->report, reference_run->report);

      // The checkpoint artifacts must be byte-identical too: resumes
      // started at a different thread count read these bytes.
      for (const char* artifact :
           {PipelineRunner::kSignaturesFile, PipelineRunner::kCandidatesFile,
            PipelineRunner::kPairsFile}) {
        EXPECT_EQ(
            ReadFileBytes(config.checkpoint_dir + "/" + artifact),
            ReadFileBytes(reference.checkpoint_dir + "/" + artifact))
            << name << " threads=" << threads << " " << artifact;
      }
    }
  }
}

TEST_F(PipelineRunnerTest, ResumeAcrossThreadCountsIsBitIdentical) {
  // Kill-and-resume across a thread-count change: checkpoint at 3
  // threads, lose the verification artifact, resume at 8 threads. The
  // fingerprint deliberately excludes ExecutionConfig, so the resumed
  // run must reuse the earlier stages and still match a clean
  // sequential run exactly.
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);

  PipelineConfig reference = AlgorithmConfig(PipelineAlgorithm::kMlsh,
                                             Path("reference"));
  reference.execution.num_threads = 1;
  auto reference_run = PipelineRunner(reference).Run(source);
  ASSERT_TRUE(reference_run.ok());

  PipelineConfig config =
      AlgorithmConfig(PipelineAlgorithm::kMlsh, Path("resumed"));
  config.execution.num_threads = 3;
  auto first = PipelineRunner(config).Run(source);
  ASSERT_TRUE(first.ok());

  std::filesystem::remove(Path("resumed") + "/" +
                          PipelineRunner::kPairsFile);
  config.resume = true;
  config.execution.num_threads = 8;
  auto second = PipelineRunner(config).Run(source);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->reused_signatures);
  EXPECT_TRUE(second->reused_candidates);
  EXPECT_FALSE(second->reused_pairs);
  ExpectSameReport(second->report, reference_run->report);
  EXPECT_EQ(ReadFileBytes(Path("resumed") + "/" + PipelineRunner::kPairsFile),
            ReadFileBytes(Path("reference") + "/" +
                          PipelineRunner::kPairsFile));
}

TEST_F(PipelineRunnerTest, CandidateIoRoundTrips) {
  std::filesystem::create_directories(Dir());
  const CandidateSet candidates({{ColumnPair(0, 2), 7},
                                 {ColumnPair(1, 5), 3},
                                 {ColumnPair(4, 9), 0}});
  const std::string path = Path("cands.bin");
  ASSERT_TRUE(WriteCandidateSet(candidates, path).ok());
  auto loaded = ReadCandidateSet(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->SortedEntries(), candidates.SortedEntries());

  std::vector<SimilarPair> pairs = {
      {ColumnPair(0, 2), 0.8125},
      {ColumnPair(1, 5), 0.123456789012345678},  // exercises exact bits
  };
  const std::string pairs_path = Path("pairs.bin");
  ASSERT_TRUE(WriteSimilarPairs(pairs, pairs_path).ok());
  auto loaded_pairs = ReadSimilarPairs(pairs_path);
  ASSERT_TRUE(loaded_pairs.ok());
  ASSERT_EQ(loaded_pairs->size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ((*loaded_pairs)[i].pair, pairs[i].pair);
    EXPECT_EQ((*loaded_pairs)[i].similarity, pairs[i].similarity);
  }
}

TEST_F(PipelineRunnerTest, CorruptCandidateArtifactRejected) {
  std::filesystem::create_directories(Dir());
  const CandidateSet candidates({{ColumnPair(1, 5), 3},
                                 {ColumnPair(2, 6), 1}});
  const std::string path = Path("cands.bin");
  ASSERT_TRUE(WriteCandidateSet(candidates, path).ok());
  {
    // Offset 16 is the first pair's first column id: the flip yields
    // a still-plausible entry only the checksum can catch.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(16);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(16);
    byte = static_cast<char>(byte ^ 0x04);
    f.write(&byte, 1);
  }
  auto loaded = ReadCandidateSet(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

// A candidate file with these raw entries and a valid checksum.
void WriteRawCandidateFile(
    const std::string& path,
    const std::vector<std::tuple<ColumnId, ColumnId, uint64_t>>& entries) {
  auto f = ArtifactWriter::Create(path, kCandidateFileFormat);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f->WriteScalar(static_cast<uint64_t>(entries.size())).ok());
  for (const auto& [first, second, count] : entries) {
    ASSERT_TRUE(f->WriteScalar(first).ok());
    ASSERT_TRUE(f->WriteScalar(second).ok());
    ASSERT_TRUE(f->WriteScalar(count).ok());
  }
  ASSERT_TRUE(f->Finish().ok());
}

TEST_F(PipelineRunnerTest, UnorderedCandidateArtifactRejected) {
  std::filesystem::create_directories(Dir());
  const std::string path = Path("cands.bin");
  WriteRawCandidateFile(path, {{0, 2, 1}, {1, 5, 3}});
  ASSERT_TRUE(ReadCandidateSet(path).ok());
  const std::vector<std::vector<std::tuple<ColumnId, ColumnId, uint64_t>>>
      corrupt = {
          {{1, 5, 3}, {0, 2, 1}},  // out of order
          {{0, 2, 1}, {0, 2, 4}},  // repeated pair
          {{5, 1, 3}},             // columns not ascending
      };
  for (const auto& entries : corrupt) {
    WriteRawCandidateFile(path, entries);
    auto loaded = ReadCandidateSet(path);
    EXPECT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  }
}

// The miner a pipeline config selects, with the pipeline's execution
// knobs, mined directly.
Result<MiningReport> MineDirectly(const PipelineConfig& config,
                                  const RowStreamSource& source) {
  switch (config.algorithm) {
    case PipelineAlgorithm::kMh: {
      MhMinerConfig miner = config.mh;
      miner.execution = config.execution;
      return MhMiner(miner).Mine(source, config.threshold);
    }
    case PipelineAlgorithm::kKmh: {
      KmhMinerConfig miner = config.kmh;
      miner.execution = config.execution;
      return KmhMiner(miner).Mine(source, config.threshold);
    }
    case PipelineAlgorithm::kMlsh: {
      MlshMinerConfig miner = config.mlsh;
      miner.execution = config.execution;
      return MlshMiner(miner).Mine(source, config.threshold);
    }
    case PipelineAlgorithm::kHlsh: {
      HlshMinerConfig miner = config.hlsh;
      miner.execution = config.execution;
      return HlshMiner(miner).Mine(source, config.threshold);
    }
  }
  return Status::InvalidArgument("unknown algorithm");
}

TEST_F(PipelineRunnerTest, EveryAlgorithmScansTheTableExactlyTwice) {
  // Phase 1 (signatures, or H-LSH's materialization) and phase 3 each
  // read every row exactly once, whichever entry point and thread
  // count ran them.
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  for (PipelineAlgorithm algorithm :
       {PipelineAlgorithm::kMh, PipelineAlgorithm::kKmh,
        PipelineAlgorithm::kMlsh, PipelineAlgorithm::kHlsh}) {
    const std::string name = PipelineAlgorithmName(algorithm);
    for (int threads : {1, 2}) {
      PipelineConfig config = AlgorithmConfig(
          algorithm, Path(name + "_t" + std::to_string(threads)));
      config.execution.num_threads = threads;
      config.execution.block_rows = 64;
      auto run = PipelineRunner(config).Run(source);
      ASSERT_TRUE(run.ok()) << name << " threads=" << threads;
      EXPECT_EQ(run->run_report.rows_scanned, 2u * m.num_rows())
          << "pipeline " << name << " threads=" << threads;

      const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
      auto mined = MineDirectly(config, source);
      ASSERT_TRUE(mined.ok()) << name << " threads=" << threads;
      const RunReport report = BuildRunReport(name, config.threshold, source,
                                              threads, *mined, before);
      EXPECT_EQ(report.rows_scanned, 2u * m.num_rows())
          << "miner " << name << " threads=" << threads;
      EXPECT_EQ(report.pairs_emitted, mined->pairs.size());
      EXPECT_EQ(report.true_positives, mined->pairs.size());
    }
  }
}

}  // namespace
}  // namespace sans
