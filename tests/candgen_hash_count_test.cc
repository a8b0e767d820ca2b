#include "candgen/hash_count.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "candgen/row_sort.h"
#include "data/news_generator.h"
#include "data/synthetic_generator.h"
#include "matrix/row_stream.h"
#include "obs/metrics.h"
#include "sketch/estimators.h"
#include "sketch/min_hash.h"

namespace sans {
namespace {

KMinHashSketch SketchOf(const BinaryMatrix& matrix, int k, uint64_t seed) {
  KMinHashConfig config;
  config.k = k;
  config.seed = seed;
  KMinHashGenerator generator(config);
  InMemoryRowStream stream(&matrix);
  auto sketch = generator.Compute(&stream);
  EXPECT_TRUE(sketch.ok());
  return std::move(sketch).value();
}

TEST(HashCountKMinHashTest, CountsEqualSignatureIntersections) {
  auto m = BinaryMatrix::FromRows(6, 3,
                                  {{0, 1}, {0, 1}, {0, 1}, {1, 2}, {2}, {0}});
  ASSERT_TRUE(m.ok());
  const KMinHashSketch sketch = SketchOf(*m, 4, 3);
  const CandidateSet candidates = HashCountKMinHash(sketch, 1);
  for (ColumnId i = 0; i < 3; ++i) {
    for (ColumnId j = i + 1; j < 3; ++j) {
      const uint64_t expected = SignatureIntersectionSize(
          sketch.Signature(i), sketch.Signature(j));
      EXPECT_EQ(candidates.Count(ColumnPair(i, j)), expected);
    }
  }
}

TEST(HashCountKMinHashTest, ThresholdFilters) {
  auto m = BinaryMatrix::FromRows(6, 3,
                                  {{0, 1}, {0, 1}, {0, 1}, {1, 2}, {2}, {0}});
  ASSERT_TRUE(m.ok());
  const KMinHashSketch sketch = SketchOf(*m, 6, 3);
  // (0,1) share 3 rows, (1,2) share 1, (0,2) share 0.
  const CandidateSet at2 = HashCountKMinHash(sketch, 2);
  EXPECT_TRUE(at2.Contains(ColumnPair(0, 1)));
  EXPECT_FALSE(at2.Contains(ColumnPair(1, 2)));
  EXPECT_FALSE(at2.Contains(ColumnPair(0, 2)));
  const CandidateSet at1 = HashCountKMinHash(sketch, 1);
  EXPECT_TRUE(at1.Contains(ColumnPair(1, 2)));
}

TEST(HashCountMinHashTest, AgreesWithRowSorterExactly) {
  // Hash-count must report exactly the pairs whose O(k) per-pair
  // agreement count (RowSorter::AgreementCount, a direct row-by-row
  // comparison) reaches the threshold, with that count.
  SyntheticConfig config;
  config.num_rows = 300;
  config.num_cols = 50;
  config.bands = {{2, 55.0, 90.0}};
  config.spread_pairs = false;
  config.min_density = 0.05;
  config.max_density = 0.12;
  config.seed = 41;
  auto dataset = GenerateSynthetic(config);
  ASSERT_TRUE(dataset.ok());

  MinHashConfig mh;
  mh.num_hashes = 20;
  mh.seed = 6;
  MinHashGenerator generator(mh);
  InMemoryRowStream stream(&dataset->matrix);
  auto sig = generator.Compute(&stream);
  ASSERT_TRUE(sig.ok());

  const RowSorter sorter(&*sig);
  for (int min_agreements : {1, 3, 8, 15}) {
    const CandidateSet via_hash = HashCountMinHash(*sig, min_agreements);
    uint64_t expected_size = 0;
    for (ColumnId i = 0; i < sig->num_cols(); ++i) {
      for (ColumnId j = i + 1; j < sig->num_cols(); ++j) {
        const int agreements = sorter.AgreementCount(i, j);
        if (agreements >= min_agreements) {
          ++expected_size;
          EXPECT_EQ(via_hash.Count(ColumnPair(i, j)),
                    static_cast<uint64_t>(agreements));
        }
      }
    }
    EXPECT_EQ(via_hash.size(), expected_size)
        << "min_agreements=" << min_agreements;
  }
}

TEST(HashCountMinHashTest, SkipsEmptyColumns) {
  SignatureMatrix sig(2, 3);
  sig.SetValue(0, 0, 1);
  sig.SetValue(1, 0, 2);
  // Columns 1, 2 empty.
  const CandidateSet candidates = HashCountMinHash(sig, 1);
  EXPECT_TRUE(candidates.empty());
}

TEST(HashCountKMinHashTest, EmptySketchYieldsNothing) {
  KMinHashConfig config;
  config.k = 4;
  KMinHashGenerator generator(config);
  BinaryMatrix empty(5, 4);
  InMemoryRowStream stream(&empty);
  auto sketch = generator.Compute(&stream);
  ASSERT_TRUE(sketch.ok());
  EXPECT_TRUE(HashCountKMinHash(*sketch, 1).empty());
}

TEST(HashCountParallelTest, ShardedCountsMatchSequential) {
  // The parallel variants split the probing columns into chunks spread
  // over the pool; each pair is counted and thresholded by one worker,
  // so the result must equal the sequential count exactly. (The name
  // predates the column-partitioned engine.)
  SyntheticConfig config;
  config.num_rows = 400;
  config.num_cols = 60;
  config.bands = {{3, 55.0, 90.0}};
  config.spread_pairs = false;
  config.min_density = 0.05;
  config.max_density = 0.12;
  config.seed = 23;
  auto dataset = GenerateSynthetic(config);
  ASSERT_TRUE(dataset.ok());

  MinHashConfig mh;
  mh.num_hashes = 24;
  mh.seed = 6;
  MinHashGenerator generator(mh);
  InMemoryRowStream stream(&dataset->matrix);
  auto sig = generator.Compute(&stream);
  ASSERT_TRUE(sig.ok());
  const KMinHashSketch sketch = SketchOf(dataset->matrix, 30, 19);

  for (int threads : {2, 3, 8}) {
    ThreadPool pool(threads);
    for (int min_agreements : {1, 4, 12}) {
      auto parallel = HashCountMinHashParallel(*sig, min_agreements, &pool);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(parallel->SortedEntries(),
                HashCountMinHash(*sig, min_agreements).SortedEntries())
          << "threads=" << threads
          << " min_agreements=" << min_agreements;
    }
    for (uint64_t min_intersection : {1, 3, 10}) {
      auto parallel =
          HashCountKMinHashParallel(sketch, min_intersection, &pool);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(parallel->SortedEntries(),
                HashCountKMinHash(sketch, min_intersection).SortedEntries())
          << "threads=" << threads
          << " min_intersection=" << min_intersection;
    }
    for (double fraction : {0.05, 0.3, 0.9}) {
      auto parallel =
          HashCountKMinHashAdaptiveParallel(sketch, fraction, &pool);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(
          parallel->SortedEntries(),
          HashCountKMinHashAdaptive(sketch, fraction).SortedEntries())
          << "threads=" << threads << " fraction=" << fraction;
    }
  }
}

TEST(HashCountParallelTest, NullPoolFallsBackToSequential) {
  auto m = BinaryMatrix::FromRows(6, 3,
                                  {{0, 1}, {0, 1}, {0, 1}, {1, 2}, {2}, {0}});
  ASSERT_TRUE(m.ok());
  const KMinHashSketch sketch = SketchOf(*m, 4, 3);
  auto parallel = HashCountKMinHashParallel(sketch, 1, nullptr);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->SortedEntries(),
            HashCountKMinHash(sketch, 1).SortedEntries());
}

TEST(HashCountParallelTest, EmptyColumnsSkippedUniformly) {
  // Two all-empty min-hash columns must never collide with each other
  // — a non-uniform skip rule would pair them k times. Same for the
  // sharded path.
  SignatureMatrix sig(3, 4);
  sig.SetValue(0, 1, 7);
  sig.SetValue(1, 1, 8);
  sig.SetValue(2, 1, 9);
  sig.SetValue(0, 3, 7);
  sig.SetValue(1, 3, 8);
  sig.SetValue(2, 3, 11);
  // Columns 0 and 2 are empty; 1 and 3 agree on two of three hashes.
  const CandidateSet sequential = HashCountMinHash(sig, 2);
  EXPECT_EQ(sequential.size(), 1u);
  EXPECT_EQ(sequential.Count(ColumnPair(1, 3)), 2u);
  ThreadPool pool(3);
  auto parallel = HashCountMinHashParallel(sig, 2, &pool);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->SortedEntries(), sequential.SortedEntries());
}

SignatureMatrix MinHashOf(const BinaryMatrix& matrix, int num_hashes,
                          uint64_t seed) {
  MinHashConfig config;
  config.num_hashes = num_hashes;
  config.seed = seed;
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&matrix);
  auto signatures = generator.Compute(&stream);
  EXPECT_TRUE(signatures.ok());
  return std::move(signatures).value();
}

BinaryMatrix SyntheticTable(RowId rows, ColumnId cols, uint64_t seed) {
  SyntheticConfig config;
  config.num_rows = rows;
  config.num_cols = cols;
  config.bands = {{3, 55.0, 90.0}};
  config.spread_pairs = false;
  config.min_density = 0.05;
  config.max_density = 0.12;
  config.seed = seed;
  auto dataset = GenerateSynthetic(config);
  EXPECT_TRUE(dataset.ok());
  return std::move(dataset->matrix);
}

using Entries = std::vector<std::pair<ColumnPair, uint64_t>>;

// Independent K-MH reference: |SIG_i ∩ SIG_j| of every column pair
// sharing a value, by merge.
Entries BruteForceIntersections(const KMinHashSketch& sketch) {
  Entries entries;
  for (ColumnId i = 0; i < sketch.num_cols(); ++i) {
    for (ColumnId j = i + 1; j < sketch.num_cols(); ++j) {
      const uint64_t count = SignatureIntersectionSize(sketch.Signature(i),
                                                       sketch.Signature(j));
      if (count > 0) entries.emplace_back(ColumnPair(i, j), count);
    }
  }
  return entries;
}

// Independent MH reference: the rows on which two non-empty columns
// agree, counted row by row for every pair, kept from min_agreements.
Entries BruteForceAgreements(const SignatureMatrix& signatures,
                             int min_agreements) {
  Entries entries;
  for (ColumnId i = 0; i < signatures.num_cols(); ++i) {
    for (ColumnId j = i + 1; j < signatures.num_cols(); ++j) {
      if (signatures.ColumnEmpty(i) || signatures.ColumnEmpty(j)) continue;
      int count = 0;
      for (int l = 0; l < signatures.num_hashes(); ++l) {
        count += signatures.Value(l, i) == signatures.Value(l, j);
      }
      if (count >= min_agreements) {
        entries.emplace_back(ColumnPair(i, j), count);
      }
    }
  }
  return entries;
}

template <typename KeepFn>
Entries Filter(const Entries& entries, const KeepFn& keep) {
  Entries kept;
  for (const auto& [pair, count] : entries) {
    if (keep(pair, count)) kept.emplace_back(pair, count);
  }
  return kept;
}

// Every variant must equal an independent brute-force reference
// (signature intersections for K-MH, per-row agreements for MH) with a
// null pool, and reproduce that result entry for entry at every pool
// size.
void ExpectEveryPoolMatchesNullPool(const KMinHashSketch& sketch,
                                    const SignatureMatrix& signatures,
                                    const std::vector<uint64_t>& intersections,
                                    const std::vector<double>& fractions,
                                    const std::vector<int>& agreements) {
  const Entries intersecting = BruteForceIntersections(sketch);
  std::vector<Entries> expected;
  for (uint64_t min_intersection : intersections) {
    expected.push_back(Filter(intersecting, [&](ColumnPair, uint64_t count) {
      return count >= min_intersection;
    }));
  }
  for (double fraction : fractions) {
    expected.push_back(Filter(intersecting, [&](ColumnPair pair,
                                                uint64_t count) {
      const size_t larger = std::max(sketch.Signature(pair.first).size(),
                                     sketch.Signature(pair.second).size());
      return count >=
             std::max<uint64_t>(1, static_cast<uint64_t>(fraction * larger));
    }));
  }
  for (int min_agreements : agreements) {
    expected.push_back(BruteForceAgreements(signatures, min_agreements));
  }
  const auto run_all = [&](ThreadPool* pool) {
    std::vector<Entries> results;
    for (uint64_t min_intersection : intersections) {
      auto result = HashCountKMinHashParallel(sketch, min_intersection, pool);
      EXPECT_TRUE(result.ok());
      results.push_back(result->SortedEntries());
    }
    for (double fraction : fractions) {
      auto result = HashCountKMinHashAdaptiveParallel(sketch, fraction, pool);
      EXPECT_TRUE(result.ok());
      results.push_back(result->SortedEntries());
    }
    for (int min_agreements : agreements) {
      auto result = HashCountMinHashParallel(signatures, min_agreements, pool);
      EXPECT_TRUE(result.ok());
      results.push_back(result->SortedEntries());
    }
    return results;
  };
  const std::vector<Entries> null_pool = run_all(nullptr);
  ASSERT_EQ(null_pool.size(), expected.size());
  for (size_t c = 0; c < expected.size(); ++c) {
    EXPECT_EQ(null_pool[c], expected[c]) << "case " << c;
  }
  for (int threads : {1, 2, 3, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(run_all(&pool), null_pool) << "threads=" << threads;
  }
}

TEST(HashCountChunkTest, ZipfHubValueSharedByMostColumns) {
  // A Zipf news table plus one hub document holding every word: every
  // column sparser than k keeps the hub's hash in its bottom-k
  // signature, so one bucket run spans most columns — the skew that
  // made key-sharded counting blow up.
  NewsConfig config;
  config.num_docs = 3'000;
  config.vocab_size = 1'200;
  config.seed = 9;
  auto news = GenerateNews(config);
  ASSERT_TRUE(news.ok());
  const BinaryMatrix& base = news->matrix;
  std::vector<std::vector<ColumnId>> rows;
  for (RowId r = 0; r < base.num_rows(); ++r) {
    rows.emplace_back(base.Row(r).begin(), base.Row(r).end());
  }
  std::vector<ColumnId> hub(base.num_cols());
  for (ColumnId c = 0; c < base.num_cols(); ++c) hub[c] = c;
  rows.push_back(std::move(hub));
  auto table = BinaryMatrix::FromRows(base.num_rows() + 1, base.num_cols(),
                                      rows);
  ASSERT_TRUE(table.ok());
  const KMinHashSketch sketch = SketchOf(*table, 100, 4);

  std::unordered_map<uint64_t, ColumnId> carriers;
  ColumnId widest = 0;
  for (ColumnId c = 0; c < sketch.num_cols(); ++c) {
    for (uint64_t value : sketch.Signature(c)) {
      widest = std::max(widest, ++carriers[value]);
    }
  }
  ASSERT_GT(widest, sketch.num_cols() / 2);

  ExpectEveryPoolMatchesNullPool(sketch, MinHashOf(*table, 20, 4),
                                 {4, 10}, {0.25, 0.5}, {3, 10});
}

TEST(HashCountChunkTest, ZeroColumns) {
  const KMinHashSketch sketch(8, 0);
  const SignatureMatrix signatures(8, 0);
  ExpectEveryPoolMatchesNullPool(sketch, signatures, {1}, {0.0, 0.5}, {1});
  EXPECT_TRUE(HashCountKMinHash(sketch, 1).empty());
  EXPECT_TRUE(HashCountMinHash(signatures, 1).empty());
}

TEST(HashCountChunkTest, AllColumnsEmpty) {
  const ColumnId cols = kFlatBucketChunkCols + 5;
  const KMinHashSketch sketch = SketchOf(BinaryMatrix(10, cols), 8, 1);
  const SignatureMatrix signatures(8, cols);
  ExpectEveryPoolMatchesNullPool(sketch, signatures, {1}, {0.0, 0.5}, {1});
  EXPECT_TRUE(HashCountKMinHashAdaptive(sketch, 0.0).empty());
  EXPECT_TRUE(HashCountMinHash(signatures, 1).empty());
}

TEST(HashCountChunkTest, FewerColumnsThanOneChunk) {
  const BinaryMatrix table = SyntheticTable(300, 40, 5);
  ASSERT_LT(table.num_cols(), kFlatBucketChunkCols);
  ExpectEveryPoolMatchesNullPool(SketchOf(table, 30, 2),
                                 MinHashOf(table, 24, 2), {1, 3}, {0.3},
                                 {1, 6});
}

TEST(HashCountChunkTest, ColumnsNotAMultipleOfTheChunk) {
  const BinaryMatrix table =
      SyntheticTable(300, 2 * kFlatBucketChunkCols + 37, 6);
  ASSERT_NE(table.num_cols() % kFlatBucketChunkCols, 0u);
  ExpectEveryPoolMatchesNullPool(SketchOf(table, 30, 3),
                                 MinHashOf(table, 24, 3), {5, 12}, {0.4},
                                 {6, 12});
}

TEST(HashCountCounterTest, CandidatesTotalCountsOncePerCall) {
  Counter* const total =
      MetricsRegistry::Global().GetCounter("sans_candgen_candidates_total");
  const BinaryMatrix table = SyntheticTable(300, 60, 7);
  const KMinHashSketch sketch = SketchOf(table, 30, 5);
  const SignatureMatrix signatures = MinHashOf(table, 24, 5);
  ThreadPool three(3);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &three}) {
    uint64_t before = total->Value();
    auto kmh = HashCountKMinHashParallel(sketch, 2, pool);
    ASSERT_TRUE(kmh.ok());
    ASSERT_FALSE(kmh->empty());
    EXPECT_EQ(total->Value() - before, kmh->size());

    before = total->Value();
    auto adaptive = HashCountKMinHashAdaptiveParallel(sketch, 0.3, pool);
    ASSERT_TRUE(adaptive.ok());
    EXPECT_EQ(total->Value() - before, adaptive->size());

    before = total->Value();
    auto mh = HashCountMinHashParallel(signatures, 4, pool);
    ASSERT_TRUE(mh.ok());
    ASSERT_FALSE(mh->empty());
    EXPECT_EQ(total->Value() - before, mh->size());
  }
}

}  // namespace
}  // namespace sans
