// Benchmark of phase 2 (candidate generation). Times, on in-memory
// sketches:
//  * Min-Hash hash-count (which row-sorting also runs) over one
//    min-hash signature matrix at four agreement thresholds, a=1 being
//    every pair that shares a value (what `sans rules` asks for);
//  * banded Min-LSH bucketing over the same matrix, for scale;
//  * adaptive K-MH hash-count (k=100, the K-MH miner's fraction 0.25
//    at s*=0.5) on a Zipf news table at 1 and 2 threads, asserting
//    the two outputs are identical.
//
// Emits BENCH_candgen.json (see bench_common.h). Each time is the best
// of 3 runs. --smoke shrinks both tables and runs once, keeping every
// identity check, so sanitizer jobs can run it cheaply. The 2-thread
// speedup needs real cores; on a 1-hardware-thread host it is emitted
// as null.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "candgen/hash_count.h"
#include "candgen/min_lsh.h"
#include "data/news_generator.h"
#include "data/synthetic_generator.h"
#include "matrix/row_stream.h"
#include "sketch/k_min_hash.h"
#include "sketch/min_hash.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sans {
namespace {

/// Best-of-N wall time of `fn` (first call's result is returned).
template <typename Fn>
auto TimeBestOf(int repetitions, double* best_seconds, Fn&& fn) {
  Stopwatch watch;
  auto result = fn();
  *best_seconds = watch.ElapsedSeconds();
  for (int i = 1; i < repetitions; ++i) {
    Stopwatch again;
    auto repeat = fn();
    *best_seconds = std::min(*best_seconds, again.ElapsedSeconds());
    (void)repeat;
  }
  return result;
}

SignatureMatrix SyntheticSignatures(bool smoke, RowId* num_rows) {
  SyntheticConfig config;
  config.num_rows = smoke ? 2'000 : 20'000;
  config.num_cols = 2'000;
  config.bands = {{20, 50.0, 95.0}};
  config.min_density = 0.005;
  config.max_density = 0.02;
  config.seed = 11;
  auto dataset = GenerateSynthetic(config);
  SANS_CHECK(dataset.ok());
  *num_rows = dataset->matrix.num_rows();
  MinHashConfig mh;
  mh.num_hashes = 60;
  mh.seed = 13;
  MinHashGenerator generator(mh);
  InMemoryRowStream stream(&dataset->matrix);
  auto signatures = generator.Compute(&stream);
  SANS_CHECK(signatures.ok());
  return std::move(signatures).value();
}

KMinHashSketch NewsSketch(bool smoke, RowId* num_rows) {
  NewsConfig config;
  config.num_docs = smoke ? 3'000 : 30'000;
  config.vocab_size = smoke ? 800 : 4'000;
  config.seed = 1;
  auto dataset = GenerateNews(config);
  SANS_CHECK(dataset.ok());
  *num_rows = dataset->matrix.num_rows();
  KMinHashConfig kmh;
  kmh.k = 100;
  kmh.seed = 1;
  KMinHashGenerator generator(kmh);
  InMemoryRowStream stream(&dataset->matrix);
  auto sketch = generator.Compute(&stream);
  SANS_CHECK(sketch.ok());
  return std::move(sketch).value();
}

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int repetitions = smoke ? 1 : 3;
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  const bool can_measure_speedup = hardware_threads > 1;

  std::vector<bench::BenchPhaseResult> results;
  const auto emit = [&](const std::string& phase, int threads, double rows,
                        double seconds) {
    bench::BenchPhaseResult r;
    r.phase = phase;
    r.threads = threads;
    r.seconds = seconds;
    r.rows_per_sec = seconds > 0 ? rows / seconds : 0.0;
    r.has_speedup = false;
    results.push_back(r);
    return &results.back();
  };

  // Hash-count and Min-LSH on one signature matrix.
  RowId synthetic_rows = 0;
  const SignatureMatrix signatures =
      SyntheticSignatures(smoke, &synthetic_rows);
  std::fprintf(stderr, "[bench] min-hash signatures: k=%d, %u columns\n",
               signatures.num_hashes(), signatures.num_cols());
  size_t sharing_pairs = 0;
  for (int min_agreements : {1, 6, 15, 30}) {
    double seconds = 0.0;
    const CandidateSet candidates = TimeBestOf(
        repetitions, &seconds,
        [&] { return HashCountMinHash(signatures, min_agreements); });
    emit("hashcount_mh_a" + std::to_string(min_agreements), 1, synthetic_rows,
         seconds);
    std::fprintf(stderr, "[bench] a=%d: hash-count %.4fs, %zu candidates\n",
                 min_agreements, seconds, candidates.size());
    if (min_agreements == 1) sharing_pairs = candidates.size();
  }
  for (int r : {4, 6, 10}) {
    MinLshConfig config;
    config.rows_per_band = r;
    config.num_bands = signatures.num_hashes() / r;
    double seconds = 0.0;
    TimeBestOf(repetitions, &seconds, [&] {
      auto candidates = MinLshCandidateGenerator(config).Generate(signatures);
      SANS_CHECK(candidates.ok());
      return std::move(candidates).value();
    });
    emit("minlsh_r" + std::to_string(r), 1, synthetic_rows, seconds);
  }

  // Adaptive K-MH hash-count on a Zipf table, 1 vs 2 threads.
  RowId news_rows = 0;
  const KMinHashSketch sketch = NewsSketch(smoke, &news_rows);
  constexpr double kFraction = 0.25;
  double one_thread_seconds = 0.0;
  const CandidateSet one_thread =
      TimeBestOf(repetitions, &one_thread_seconds, [&] {
        return HashCountKMinHashAdaptive(sketch, kFraction);
      });
  ThreadPool pool(2);
  double two_thread_seconds = 0.0;
  const CandidateSet two_threads =
      TimeBestOf(repetitions, &two_thread_seconds, [&] {
        auto candidates =
            HashCountKMinHashAdaptiveParallel(sketch, kFraction, &pool);
        SANS_CHECK(candidates.ok());
        return std::move(candidates).value();
      });
  SANS_CHECK(one_thread.SortedEntries() == two_threads.SortedEntries());
  for (auto [threads, seconds] :
       {std::pair{1, one_thread_seconds}, std::pair{2, two_thread_seconds}}) {
    bench::BenchPhaseResult* r = emit("hashcount_kmh", threads, news_rows,
                                      seconds);
    r->has_speedup = can_measure_speedup;
    r->speedup_vs_1_thread = seconds > 0 ? one_thread_seconds / seconds : 0.0;
  }
  std::fprintf(stderr,
               "[bench] kmh k=%d on %u x %u news: 1 thread %.4fs, 2 threads "
               "%.4fs, %zu candidates, outputs identical\n",
               sketch.k(), news_rows, sketch.num_cols(), one_thread_seconds,
               two_thread_seconds, two_threads.size());

  bench::WriteBenchJson(
      "BENCH_candgen.json", "candgen",
      {{"mh_cols", bench::JsonNumber(signatures.num_cols())},
       {"mh_a1_candidates", bench::JsonNumber(sharing_pairs)},
       {"news_rows", bench::JsonNumber(news_rows)},
       {"news_cols", bench::JsonNumber(sketch.num_cols())},
       {"hardware_threads", bench::JsonNumber(hardware_threads)},
       {"scale", smoke ? "\"smoke\"" : "\"full\""}},
      results);

  std::printf("\n%-18s %8s %10s %14s\n", "phase", "threads", "seconds",
              "rows/sec");
  for (const bench::BenchPhaseResult& r : results) {
    std::printf("%-18s %8d %10.4f %14.0f\n", r.phase.c_str(), r.threads,
                r.seconds, r.rows_per_sec);
  }
  std::printf("\nwrote BENCH_candgen.json\n");
  return 0;
}

}  // namespace
}  // namespace sans

int main(int argc, char** argv) { return sans::Main(argc, argv); }
