#include "workload.h"

#include <algorithm>

#include "data/news_generator.h"
#include "data/synthetic_generator.h"
#include "data/weblog_generator.h"
#include "util/random.h"

namespace perfbench {

using sans::BinaryMatrix;
using sans::ColumnId;
using sans::Result;
using sans::Status;

const std::vector<Workload>& AllWorkloads() {
  // Sizes are cut from the paper's shapes so that one run repeats every
  // miner ten times within its time budget, while keeping the phase
  // share each workload exists for (README.md).
  static const std::vector<Workload> kWorkloads = {
      // Tall and sparse: phase 1 (one scan + hashing) dominates.
      {.name = "weblog-tall",
       .kind = TableKind::kWeblog,
       .rows = 100'000,
       .cols = 6'500,
       .mine_threads = 1,
       .server_workers = 1,
       .connections = 1},
      // Zipf vocabulary on the multi-threaded path: block pipeline,
      // per-worker partials, sharded hash-count, concurrent clients.
      {.name = "news-threads",
       .kind = TableKind::kNews,
       .rows = 30'000,
       .cols = 4'000,
       .mine_threads = 2,
       .server_workers = 2,
       .connections = 2},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : AllWorkloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

Result<BinaryMatrix> GenerateTable(const Workload& workload, uint64_t seed) {
  switch (workload.kind) {
    case TableKind::kSynthetic: {
      sans::SyntheticConfig config;
      config.num_rows = workload.rows;
      config.num_cols = workload.cols;
      config.seed = seed;
      // The paper's five similarity bands, scaled to one planted pair
      // per 100 columns.
      const int per_band = static_cast<int>(workload.cols / 500);
      for (sans::SimilarityBand& band : config.bands) {
        band.num_pairs = per_band;
      }
      SANS_ASSIGN_OR_RETURN(sans::SyntheticDataset dataset,
                            sans::GenerateSynthetic(config));
      return std::move(dataset.matrix);
    }
    case TableKind::kWeblog: {
      sans::WeblogConfig config;
      config.num_clients = workload.rows;
      config.num_urls = workload.cols;
      config.num_bundles = 400;  // the `sans generate` default
      config.seed = seed;
      SANS_ASSIGN_OR_RETURN(sans::WeblogDataset dataset,
                            sans::GenerateWeblog(config));
      return std::move(dataset.matrix);
    }
    case TableKind::kNews: {
      sans::NewsConfig config;
      config.num_docs = workload.rows;
      config.vocab_size = workload.cols;
      config.seed = seed;
      SANS_ASSIGN_OR_RETURN(sans::NewsDataset dataset,
                            sans::GenerateNews(config));
      return std::move(dataset.matrix);
    }
  }
  return Status::InvalidArgument("unknown table kind");
}

Result<std::vector<Request>> MakeRequests(const BinaryMatrix& matrix,
                                          int topk_requests,
                                          int pair_requests, uint64_t seed) {
  std::vector<ColumnId> ranked;
  for (ColumnId col = 0; col < matrix.num_cols(); ++col) {
    if (matrix.ColumnCardinality(col) > 0) ranked.push_back(col);
  }
  if (ranked.size() < 2) {
    return Status::InvalidArgument("need two non-empty columns to query");
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&matrix](ColumnId a, ColumnId b) {
                     return matrix.ColumnCardinality(a) >
                            matrix.ColumnCardinality(b);
                   });

  sans::Xoshiro256 rng(seed);
  const auto draw = [&rng, &ranked] {
    return ranked[rng.NextZipf(ranked.size(), 1.0)];
  };
  // TopK and pair requests alternate in runs, so that on each
  // connection most pairs follow a pair. A pair sent right after a
  // multi-millisecond TopK pays a CPU wake-up on both ends of the
  // loopback, which made pair latency bimodal with its median between
  // the modes.
  constexpr int kRun = 44;
  std::vector<Request> requests;
  for (int topk = 0, pair = 0; topk < topk_requests || pair < pair_requests;) {
    for (int i = 0; i < kRun && topk < topk_requests; ++i, ++topk) {
      requests.push_back(Request{Request::kTopK});
    }
    for (int i = 0; i < kRun && pair < pair_requests; ++i, ++pair) {
      requests.push_back(Request{Request::kPair});
    }
  }
  for (Request& request : requests) {
    request.a = draw();
    if (request.kind == Request::kPair) {
      do {
        request.b = draw();
      } while (request.b == request.a);
    }
  }
  return requests;
}

}  // namespace perfbench
