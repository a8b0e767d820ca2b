// Benchmark of the online similarity query service: builds a
// persistent index over a news-style corpus, starts a real TCP server
// on an ephemeral loopback port at 1, 2, 4 and 8 worker threads, and
// drives it with matching client threads issuing TopK and
// PairSimilarity RPCs. Emits BENCH_serve.json with queries/sec (in
// the rows_per_sec field) plus the server-side p50/p99 latency per
// thread count, and a human-readable table.
//
// SANS_BENCH_SCALE=small shrinks the corpus and query count for smoke
// runs. As with micro_parallel, thread counts above the core count
// only validate overhead: on a 1-core host every configuration
// measures the same hardware.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "data/news_generator.h"
#include "matrix/row_stream.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/similarity_index.h"
#include "util/timer.h"

namespace sans {
namespace {

struct RunResult {
  double topk_seconds = 0.0;
  double pair_seconds = 0.0;
  int topk_queries = 0;
  int pair_queries = 0;
  ServerStatsSnapshot stats;
};

/// One benchmark run: a fresh server at `threads` workers, matching
/// client threads, `queries` TopK then `queries` PairSimilarity RPCs
/// split evenly across the clients.
RunResult RunOnce(std::shared_ptr<const SimilarityIndex> index, int threads,
                  int queries) {
  ServerConfig server_config;
  server_config.num_threads = threads;
  server_config.poll_interval_ms = 20;
  auto server = Server::Start(index, server_config);
  SANS_CHECK(server.ok());

  ClientConfig client_config;
  client_config.port = (*server)->port();
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < threads; ++i) {
    auto client = Client::Connect(client_config);
    SANS_CHECK(client.ok());
    clients.push_back(std::move(*client));
  }

  const ColumnId num_cols = index->num_cols();
  const int per_client = queries / threads;
  RunResult result;
  result.topk_queries = per_client * threads;
  result.pair_queries = per_client * threads;

  const auto drive = [&](const auto& body) {
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] { body(*clients[t], t); });
    }
    for (std::thread& w : workers) w.join();
  };

  Stopwatch topk_watch;
  drive([&](Client& client, int t) {
    for (int i = 0; i < per_client; ++i) {
      const ColumnId col = static_cast<ColumnId>(
          (static_cast<size_t>(t) * per_client + i) % num_cols);
      auto neighbors = client.TopK(col, 8);
      SANS_CHECK(neighbors.ok());
    }
  });
  result.topk_seconds = topk_watch.ElapsedSeconds();

  Stopwatch pair_watch;
  drive([&](Client& client, int t) {
    for (int i = 0; i < per_client; ++i) {
      const size_t q = static_cast<size_t>(t) * per_client + i;
      const ColumnId a = static_cast<ColumnId>(q % num_cols);
      const ColumnId b = static_cast<ColumnId>((q * 7 + 1) % num_cols);
      auto similarity = client.PairSimilarity(a, b);
      SANS_CHECK(similarity.ok());
    }
  });
  result.pair_seconds = pair_watch.ElapsedSeconds();

  result.stats = (*server)->Stats();
  SANS_CHECK_EQ(result.stats.errors, 0u);
  clients.clear();
  (*server)->Stop();

  std::fprintf(stderr,
               "[bench] threads=%d topk=%.2fs (%d queries) pair=%.2fs "
               "(%d queries) p50=%.0fus p99=%.0fus\n",
               threads, result.topk_seconds, result.topk_queries,
               result.pair_seconds, result.pair_queries,
               result.stats.p50_seconds * 1e6,
               result.stats.p99_seconds * 1e6);
  return result;
}

int Main() {
  NewsConfig config;
  if (bench::SmallScale()) {
    config.num_docs = 4'000;
    config.vocab_size = 1'000;
  } else {
    // 1M-row index: queries only touch sketches and postings, so the
    // row count exercises the build path and file size, not latency.
    config.num_docs = 1'000'000;
    config.vocab_size = 5'000;
    config.num_collocations = 64;
    config.collocation_docs = 500;
  }
  config.seed = 17;
  auto dataset = GenerateNews(config);
  SANS_CHECK(dataset.ok());
  const int queries = bench::SmallScale() ? 400 : 4'000;

  SimilarityIndexConfig index_config;
  index_config.sketch_k = 256;
  index_config.seed = 17;
  const std::filesystem::path index_path =
      std::filesystem::temp_directory_path() / "sans_bench_serve.sidx";

  Stopwatch build_watch;
  SANS_CHECK(IndexBuilder(index_config)
                 .Build(InMemorySource(&dataset->matrix), index_path.string())
                 .ok());
  const double build_seconds = build_watch.ElapsedSeconds();
  std::fprintf(stderr, "[bench] index: %u cols, %.1f KB, built in %.2fs\n",
               dataset->matrix.num_cols(),
               static_cast<double>(std::filesystem::file_size(index_path)) /
                   1e3,
               build_seconds);

  auto loaded = SimilarityIndex::Load(index_path.string());
  SANS_CHECK(loaded.ok());
  auto index = std::make_shared<const SimilarityIndex>(std::move(*loaded));
  const RowId num_rows = dataset->matrix.num_rows();
  const ColumnId num_cols = dataset->matrix.num_cols();
  // Queries go through the loaded index; drop the matrix.
  dataset.value().matrix = BinaryMatrix(0, 0);

  const int kThreadCounts[] = {1, 2, 4, 8};
  std::vector<bench::BenchPhaseResult> results;
  RunResult reference;
  for (int threads : kThreadCounts) {
    const RunResult run = RunOnce(index, threads, queries);
    if (threads == 1) reference = run;
    const auto emit = [&](const char* phase, double seconds, double qps,
                          double reference_seconds) {
      bench::BenchPhaseResult r;
      r.phase = phase;
      r.threads = threads;
      r.seconds = seconds;
      r.rows_per_sec = qps;  // queries/sec for the RPC phases
      r.speedup_vs_1_thread =
          seconds > 0 ? reference_seconds / seconds : 0.0;
      results.push_back(r);
    };
    emit("topk", run.topk_seconds,
         run.topk_seconds > 0 ? run.topk_queries / run.topk_seconds : 0.0,
         reference.topk_seconds);
    emit("pair", run.pair_seconds,
         run.pair_seconds > 0 ? run.pair_queries / run.pair_seconds : 0.0,
         reference.pair_seconds);
    emit("p50_latency", run.stats.p50_seconds, 0.0,
         reference.stats.p50_seconds);
    emit("p99_latency", run.stats.p99_seconds, 0.0,
         reference.stats.p99_seconds);
  }

  bench::WriteBenchJson(
      "BENCH_serve.json", "serve",
      {{"rows", bench::JsonNumber(num_rows)},
       {"cols", bench::JsonNumber(num_cols)},
       {"sketch_k", bench::JsonNumber(index_config.sketch_k)},
       {"queries_per_phase", bench::JsonNumber(queries)},
       {"index_build_seconds", bench::JsonNumber(build_seconds)},
       {"hardware_threads",
        bench::JsonNumber(std::thread::hardware_concurrency())},
       {"scale", bench::SmallScale() ? "\"small\"" : "\"full\""}},
      results);

  std::printf("\n%-12s %8s %10s %14s %10s\n", "phase", "threads", "seconds",
              "queries/sec", "speedup");
  for (const bench::BenchPhaseResult& r : results) {
    std::printf("%-12s %8d %10.4f %14.0f %9.2fx\n", r.phase.c_str(),
                r.threads, r.seconds, r.rows_per_sec,
                r.speedup_vs_1_thread);
  }
  std::printf("\nwrote BENCH_serve.json\n");

  std::filesystem::remove(index_path);
  return 0;
}

}  // namespace
}  // namespace sans

int main() { return sans::Main(); }
