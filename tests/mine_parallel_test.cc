#include "mine/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "data/synthetic_generator.h"
#include "data/weblog_generator.h"
#include "matrix/row_stream.h"
#include "mine/verifier.h"
#include "sketch/sketch_kernels.h"
#include "util/hashing.h"

namespace sans {
namespace {

BinaryMatrix TestMatrix() {
  SyntheticConfig config;
  config.num_rows = 2000;
  config.num_cols = 120;
  config.bands = {{4, 60.0, 90.0}};
  config.spread_pairs = false;
  config.seed = 55;
  auto d = GenerateSynthetic(config);
  EXPECT_TRUE(d.ok());
  return std::move(d->matrix);
}

ExecutionConfig Exec(int threads, int block_rows = 128,
                     int queue_depth = 4) {
  ExecutionConfig config;
  config.num_threads = threads;
  config.block_rows = block_rows;
  config.queue_depth = queue_depth;
  return config;
}

// Runs `fn(execution, pool)` with a pool sized for `threads` (null
// pool when threads == 1, matching how the miners drive it).
template <typename Fn>
auto WithPool(int threads, Fn&& fn) {
  const ExecutionConfig execution = Exec(threads);
  std::unique_ptr<ThreadPool> pool = MaybeCreatePool(execution);
  return fn(execution, pool.get());
}

// The thread counts the invariance property is asserted over; 1 is
// one worker running inline on the calling thread.
const int kThreadCounts[] = {1, 2, 3, 4, 8};

class ParallelMinHashTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelMinHashTest, MatchesSequentialBitForBit) {
  const int threads = GetParam();
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  MinHashConfig config;
  config.num_hashes = 32;
  config.seed = 7;

  auto parallel = WithPool(threads, [&](const auto& exec, ThreadPool* pool) {
    return ComputeMinHashParallel(source, config, exec, pool);
  });
  ASSERT_TRUE(parallel.ok());

  // The RowStream* generator: the same kernel, fed by the inline
  // block loop.
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto sequential = generator.Compute(&stream);
  ASSERT_TRUE(sequential.ok());
  for (int l = 0; l < 32; ++l) {
    for (ColumnId c = 0; c < m.num_cols(); ++c) {
      ASSERT_EQ(parallel->Value(l, c), sequential->Value(l, c))
          << "threads=" << threads << " l=" << l << " c=" << c;
    }
  }
}

// Independent reference: per row, per column, per hash function,
// through the checked MinUpdate — no block, kernel or merge in common
// with the code under test.
TEST_P(ParallelMinHashTest, MatchesNaivePerRowLoop) {
  const int threads = GetParam();
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  MinHashConfig config;
  config.num_hashes = 12;
  config.seed = 31;

  auto parallel = WithPool(threads, [&](const auto& exec, ThreadPool* pool) {
    return ComputeMinHashParallel(source, config, exec, pool);
  });
  ASSERT_TRUE(parallel.ok());

  const HashFunctionBank bank(config.family, config.num_hashes, config.seed);
  SignatureMatrix naive(config.num_hashes, m.num_cols());
  for (RowId r = 0; r < m.num_rows(); ++r) {
    for (ColumnId c : m.Row(r)) {
      for (int l = 0; l < config.num_hashes; ++l) {
        naive.MinUpdate(l, c, ClampRowHash(bank.Hash(l, r)));
      }
    }
  }
  for (int l = 0; l < config.num_hashes; ++l) {
    for (ColumnId c = 0; c < m.num_cols(); ++c) {
      ASSERT_EQ(parallel->Value(l, c), naive.Value(l, c))
          << "threads=" << threads << " l=" << l << " c=" << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelMinHashTest,
                         ::testing::ValuesIn(kThreadCounts));

class ParallelKMinHashTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelKMinHashTest, MatchesSequentialBitForBit) {
  const int threads = GetParam();
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  // Tabulation hashing can produce colliding row hashes, which is
  // exactly the case where the merge's dedup-after-truncate order
  // matters; cover it alongside the default family.
  for (HashFamily family :
       {HashFamily::kSplitMix64, HashFamily::kTabulation}) {
    KMinHashConfig config;
    config.k = 40;
    config.family = family;
    config.seed = 13;

    auto parallel = WithPool(threads, [&](const auto& exec, ThreadPool* pool) {
      return ComputeKMinHashParallel(source, config, exec, pool);
    });
    ASSERT_TRUE(parallel.ok());

    auto sequential = ComputeKMinHashParallel(
        InMemorySource(&m), config, ExecutionConfig{}, nullptr);
    ASSERT_TRUE(sequential.ok());
    for (ColumnId c = 0; c < m.num_cols(); ++c) {
      const auto p = parallel->Signature(c);
      const auto s = sequential->Signature(c);
      ASSERT_EQ(p.size(), s.size()) << "threads=" << threads << " c=" << c;
      for (size_t i = 0; i < p.size(); ++i) {
        ASSERT_EQ(p[i], s[i]) << "threads=" << threads << " c=" << c;
      }
      EXPECT_EQ(parallel->ColumnCardinality(c),
                sequential->ColumnCardinality(c))
          << "threads=" << threads << " c=" << c;
    }
  }
}

// Independent reference: every clamped row hash of a column, sorted,
// cut to the k smallest and deduplicated — no heap or merge.
TEST_P(ParallelKMinHashTest, MatchesSortedColumnHashes) {
  const int threads = GetParam();
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  for (HashFamily family :
       {HashFamily::kSplitMix64, HashFamily::kTabulation}) {
    KMinHashConfig config;
    config.k = 25;
    config.family = family;
    config.seed = 17;

    auto parallel = WithPool(threads, [&](const auto& exec, ThreadPool* pool) {
      return ComputeKMinHashParallel(source, config, exec, pool);
    });
    ASSERT_TRUE(parallel.ok());

    const RowHasher hasher(config.family, config.seed);
    std::vector<std::vector<uint64_t>> hashes(m.num_cols());
    for (RowId r = 0; r < m.num_rows(); ++r) {
      for (ColumnId c : m.Row(r)) {
        hashes[c].push_back(ClampRowHash(hasher.Hash(r)));
      }
    }
    for (ColumnId c = 0; c < m.num_cols(); ++c) {
      std::vector<uint64_t> expected = hashes[c];
      std::sort(expected.begin(), expected.end());
      expected.resize(std::min<size_t>(expected.size(), config.k));
      expected.erase(std::unique(expected.begin(), expected.end()),
                     expected.end());
      const auto actual = parallel->Signature(c);
      ASSERT_EQ(std::vector<uint64_t>(actual.begin(), actual.end()), expected)
          << "threads=" << threads << " c=" << c;
      EXPECT_EQ(parallel->ColumnCardinality(c), hashes[c].size())
          << "threads=" << threads << " c=" << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelKMinHashTest,
                         ::testing::ValuesIn(kThreadCounts));

class ParallelVerifyTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelVerifyTest, MatchesSequentialCounts) {
  const int threads = GetParam();
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  std::vector<ColumnPair> candidates;
  for (ColumnId c = 0; c + 1 < m.num_cols(); c += 3) {
    candidates.push_back(ColumnPair(c, c + 1));
  }

  auto parallel = WithPool(threads, [&](const auto& exec, ThreadPool* pool) {
    return CountCandidatePairsParallel(source, candidates, exec, pool);
  });
  ASSERT_TRUE(parallel.ok());
  InMemoryRowStream stream(&m);
  auto sequential = CountCandidatePairs(&stream, candidates);
  ASSERT_TRUE(sequential.ok());
  ASSERT_EQ(parallel->size(), sequential->size());
  for (size_t i = 0; i < parallel->size(); ++i) {
    EXPECT_EQ((*parallel)[i].pair, (*sequential)[i].pair);
    EXPECT_EQ((*parallel)[i].union_count, (*sequential)[i].union_count);
    EXPECT_EQ((*parallel)[i].intersection_count,
              (*sequential)[i].intersection_count);
  }
}

TEST_P(ParallelVerifyTest, VerifyCandidatesMatchesSequential) {
  const int threads = GetParam();
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  std::vector<ColumnPair> candidates;
  for (ColumnId c = 0; c + 2 < m.num_cols(); c += 2) {
    candidates.push_back(ColumnPair(c, c + 2));
  }

  auto parallel = WithPool(threads, [&](const auto& exec, ThreadPool* pool) {
    return VerifyCandidatesParallel(source, candidates, 0.3, exec, pool);
  });
  ASSERT_TRUE(parallel.ok());
  auto sequential = VerifyCandidates(source, candidates, 0.3);
  ASSERT_TRUE(sequential.ok());
  ASSERT_EQ(parallel->size(), sequential->size());
  for (size_t i = 0; i < parallel->size(); ++i) {
    EXPECT_EQ((*parallel)[i].pair, (*sequential)[i].pair);
    EXPECT_DOUBLE_EQ((*parallel)[i].similarity,
                     (*sequential)[i].similarity);
  }
}

// Independent reference: the matrix's own column-major intersection,
// with |A ∪ B| = |A| + |B| - |A ∩ B|.
TEST_P(ParallelVerifyTest, CountsMatchMatrixIntersectionAndUnion) {
  const int threads = GetParam();
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  std::vector<ColumnPair> candidates;
  for (ColumnId c = 0; c + 5 < m.num_cols(); c += 2) {
    candidates.push_back(ColumnPair(c, c + 5));
    candidates.push_back(ColumnPair(c, c + 1));
  }

  auto counted = WithPool(threads, [&](const auto& exec, ThreadPool* pool) {
    return CountCandidatePairsParallel(source, candidates, exec, pool);
  });
  ASSERT_TRUE(counted.ok());
  ASSERT_EQ(counted->size(), candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    const auto [a, b] = candidates[i];
    const uint64_t intersection = m.IntersectionSize(a, b);
    EXPECT_EQ((*counted)[i].pair, candidates[i]);
    EXPECT_EQ((*counted)[i].intersection_count, intersection)
        << "threads=" << threads << " i=" << i;
    EXPECT_EQ((*counted)[i].union_count,
              m.ColumnCardinality(a) + m.ColumnCardinality(b) - intersection)
        << "threads=" << threads << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelVerifyTest,
                         ::testing::ValuesIn(kThreadCounts));

TEST(ParallelTest, CountsMatchExactSimilarity) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  std::vector<ColumnPair> candidates = {ColumnPair(0, 1),
                                        ColumnPair(2, 3)};
  auto verified = WithPool(4, [&](const auto& exec, ThreadPool* pool) {
    return CountCandidatePairsParallel(source, candidates, exec, pool);
  });
  ASSERT_TRUE(verified.ok());
  for (const VerifiedPair& v : *verified) {
    EXPECT_DOUBLE_EQ(v.similarity(),
                     m.Similarity(v.pair.first, v.pair.second));
  }
}

TEST(ParallelTest, RejectsBadArguments) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  ThreadPool pool(2);
  MinHashConfig config;
  ExecutionConfig bad;
  bad.num_threads = 0;
  EXPECT_FALSE(ComputeMinHashParallel(source, config, bad, &pool).ok());
  EXPECT_FALSE(
      CountCandidatePairsParallel(source, {ColumnPair(0, 1)}, bad, &pool)
          .ok());
  const ExecutionConfig ok = Exec(2);
  EXPECT_FALSE(
      CountCandidatePairsParallel(source, {ColumnPair(1, 1)}, ok, &pool)
          .ok());
  EXPECT_FALSE(
      CountCandidatePairsParallel(source, {ColumnPair(0, 9999)}, ok, &pool)
          .ok());
}

TEST(ParallelTest, PropagatesOpenFailure) {
  class FailingSource final : public RowStreamSource {
   public:
    RowId num_rows() const override { return 4; }
    ColumnId num_cols() const override { return 4; }
    Result<std::unique_ptr<RowStream>> Open() const override {
      return Status::IOError("injected");
    }
  };
  FailingSource source;
  MinHashConfig config;
  config.num_hashes = 4;
  for (int threads : {1, 3}) {
    auto signatures = WithPool(threads, [&](const auto& exec, ThreadPool* pool) {
      return ComputeMinHashParallel(source, config, exec, pool);
    });
    EXPECT_EQ(signatures.status().code(), StatusCode::kIOError);
    auto counts = WithPool(threads, [&](const auto& exec, ThreadPool* pool) {
      return CountCandidatePairsParallel(source, {ColumnPair(0, 1)}, exec,
                                         pool);
    });
    EXPECT_EQ(counts.status().code(), StatusCode::kIOError);
  }
}

TEST(ParallelTest, MoreThreadsThanRowsIsFine) {
  auto m = BinaryMatrix::FromRows(3, 2, {{0, 1}, {0}, {1}});
  ASSERT_TRUE(m.ok());
  InMemorySource source(&*m);
  MinHashConfig config;
  config.num_hashes = 8;
  auto parallel = WithPool(16, [&](const auto& exec, ThreadPool* pool) {
    return ComputeMinHashParallel(source, config, exec, pool);
  });
  auto sequential = WithPool(1, [&](const auto& exec, ThreadPool* pool) {
    return ComputeMinHashParallel(source, config, exec, pool);
  });
  ASSERT_TRUE(parallel.ok());
  ASSERT_TRUE(sequential.ok());
  for (int l = 0; l < 8; ++l) {
    for (ColumnId c = 0; c < 2; ++c) {
      EXPECT_EQ(parallel->Value(l, c), sequential->Value(l, c));
    }
  }
}

TEST(ParallelTest, TinyBlocksAndQueueMatchSequential) {
  // Stress the pipeline shape: 1-row blocks through a depth-1 queue
  // must still reproduce the sequential signatures exactly.
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  MinHashConfig config;
  config.num_hashes = 16;
  config.seed = 21;
  ExecutionConfig exec = Exec(3, /*block_rows=*/1, /*queue_depth=*/1);
  std::unique_ptr<ThreadPool> pool = MaybeCreatePool(exec);
  auto parallel = ComputeMinHashParallel(source, config, exec, pool.get());
  ASSERT_TRUE(parallel.ok());
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto sequential = generator.Compute(&stream);
  ASSERT_TRUE(sequential.ok());
  for (int l = 0; l < 16; ++l) {
    for (ColumnId c = 0; c < m.num_cols(); ++c) {
      ASSERT_EQ(parallel->Value(l, c), sequential->Value(l, c));
    }
  }
}

TEST(ParallelTest, WeblogEndToEndSpeedSanity) {
  // Not a benchmark — just confirm the parallel path handles a
  // realistic dataset and agrees with a fresh sequential run.
  WeblogConfig config;
  config.num_clients = 5000;
  config.num_urls = 400;
  config.num_bundles = 15;
  config.seed = 77;
  auto dataset = GenerateWeblog(config);
  ASSERT_TRUE(dataset.ok());
  InMemorySource source(&dataset->matrix);
  MinHashConfig mh;
  mh.num_hashes = 64;
  mh.seed = 9;
  auto parallel = WithPool(4, [&](const auto& exec, ThreadPool* pool) {
    return ComputeMinHashParallel(source, mh, exec, pool);
  });
  ASSERT_TRUE(parallel.ok());
  MinHashGenerator generator(mh);
  InMemoryRowStream stream(&dataset->matrix);
  auto sequential = generator.Compute(&stream);
  ASSERT_TRUE(sequential.ok());
  for (ColumnId c = 0; c < 400; ++c) {
    EXPECT_EQ(parallel->Value(0, c), sequential->Value(0, c));
  }
}

}  // namespace
}  // namespace sans
