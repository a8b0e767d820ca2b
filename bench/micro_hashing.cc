// Micro-benchmarks (google-benchmark) of the hashing substrate: raw
// hash throughput per family and min-hash signature generation cost —
// the ablation DESIGN.md calls out for tabulation vs multiply-shift.

#include <benchmark/benchmark.h>

#include "data/synthetic_generator.h"
#include "matrix/row_stream.h"
#include "mine/parallel.h"
#include "sketch/k_min_hash.h"
#include "sketch/min_hash.h"
#include "util/hashing.h"

namespace sans {
namespace {

template <typename HasherT>
void BM_HashThroughput(benchmark::State& state) {
  HasherT hasher(42);
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher.Hash(key++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashThroughput<SplitMix64Hasher>);
BENCHMARK(BM_HashThroughput<MultiplyShiftHasher>);
BENCHMARK(BM_HashThroughput<TabulationHasher>);

const BinaryMatrix& BenchMatrix() {
  static const BinaryMatrix* matrix = [] {
    SyntheticConfig config;
    config.num_rows = 20'000;
    config.num_cols = 500;
    config.bands = {{5, 60.0, 90.0}};
    config.min_density = 0.01;
    config.max_density = 0.03;
    config.seed = 7;
    auto dataset = GenerateSynthetic(config);
    SANS_CHECK(dataset.ok());
    return new BinaryMatrix(std::move(dataset->matrix));
  }();
  return *matrix;
}

void BM_MinHashSignatures(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const HashFamily family = static_cast<HashFamily>(state.range(1));
  MinHashConfig config;
  config.num_hashes = k;
  config.family = family;
  config.seed = 3;
  MinHashGenerator generator(config);
  for (auto _ : state) {
    InMemoryRowStream stream(&BenchMatrix());
    auto signatures = generator.Compute(&stream);
    benchmark::DoNotOptimize(signatures);
  }
  state.SetItemsProcessed(state.iterations() * BenchMatrix().num_ones());
}
BENCHMARK(BM_MinHashSignatures)
    ->ArgsProduct({{16, 64, 128},
                   {static_cast<int>(HashFamily::kSplitMix64),
                    static_cast<int>(HashFamily::kMultiplyShift),
                    static_cast<int>(HashFamily::kTabulation)}});

void BM_KMinHashSketch(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  KMinHashConfig config;
  config.k = k;
  config.seed = 5;
  for (auto _ : state) {
    auto sketch = ComputeKMinHashParallel(InMemorySource(&BenchMatrix()),
                                          config, ExecutionConfig{}, nullptr);
    benchmark::DoNotOptimize(sketch);
  }
  state.SetItemsProcessed(state.iterations() * BenchMatrix().num_ones());
}
BENCHMARK(BM_KMinHashSketch)->Arg(16)->Arg(64)->Arg(128)->Arg(512);

}  // namespace
}  // namespace sans

BENCHMARK_MAIN();
