// Benchmark gating the batched sketching kernels: times min-hash
// signature generation (k hash functions per row) and bottom-k sketch
// generation through the production generators against an in-bench
// reference that replicates the pre-kernel hot path — one virtual
// hash call per (row, function) through a boxed pointer, followed by
// a per-entry bounds-checked MinUpdate with the hash index striding
// across signature rows. Both paths draw the same hash functions, so
// their outputs must be byte-identical; the bench asserts that before
// it reports a single number.
//
// A second signatures phase runs the same pair on a sparse,
// weblog-shaped table (the phase-1 shape of perfbench's weblog-tall).
//
// Emits BENCH_sketch.json with a speedup_vs_reference field per
// phase. In full mode the signatures phase at k=100 must reach a 2x
// speedup or the bench exits nonzero (the acceptance gate for the
// kernel rework); --smoke shrinks the table and skips the gate so
// sanitizer jobs can run the identity checks cheaply.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "data/synthetic_generator.h"
#include "data/weblog_generator.h"
#include "matrix/row_stream.h"
#include "mine/parallel.h"
#include "sketch/k_min_hash.h"
#include "sketch/min_hash.h"
#include "sketch/signature_matrix.h"
#include "util/bounded_heap.h"
#include "util/hashing.h"
#include "util/timer.h"

namespace sans {
namespace {

constexpr int kNumHashes = 100;

// The boxed virtual hasher the old hot path paid for on every
// (row, function) pair. Wrapping the bank keeps the hash values
// identical to the batched kernels while restoring the indirection.
class BoxedHasher {
 public:
  virtual ~BoxedHasher() = default;
  virtual uint64_t Hash(uint64_t key) const = 0;
};

class BoxedBankFunction final : public BoxedHasher {
 public:
  BoxedBankFunction(const HashFunctionBank* bank, int index)
      : bank_(bank), index_(index) {}
  uint64_t Hash(uint64_t key) const override {
    return bank_->Hash(index_, key);
  }

 private:
  const HashFunctionBank* bank_;
  int index_;
};

class BoxedRowHasher final : public BoxedHasher {
 public:
  BoxedRowHasher(HashFamily family, uint64_t seed)
      : hasher_(family, seed) {}
  uint64_t Hash(uint64_t key) const override { return hasher_.Hash(key); }

 private:
  RowHasher hasher_;
};

/// The pre-kernel min-hash scan: per row, k virtual hash calls, then
/// a column-outer / hash-inner update loop through the bounds-checked
/// SignatureMatrix::MinUpdate.
SignatureMatrix ReferenceMinHash(const BinaryMatrix& matrix,
                                 const MinHashConfig& config) {
  HashFunctionBank bank(config.family, config.num_hashes, config.seed);
  std::vector<std::unique_ptr<BoxedHasher>> hashers;
  hashers.reserve(config.num_hashes);
  for (int l = 0; l < config.num_hashes; ++l) {
    hashers.push_back(std::make_unique<BoxedBankFunction>(&bank, l));
  }
  SignatureMatrix signatures(config.num_hashes, matrix.num_cols());
  InMemoryRowStream stream(&matrix);
  SANS_CHECK(stream.Reset().ok());
  std::vector<uint64_t> row_hashes(config.num_hashes);
  RowView view;
  while (stream.Next(&view)) {
    if (view.columns.empty()) continue;
    for (int l = 0; l < config.num_hashes; ++l) {
      uint64_t h = hashers[l]->Hash(view.row);
      if (h == kEmptyMinHash) h -= 1;
      row_hashes[l] = h;
    }
    for (ColumnId c : view.columns) {
      for (int l = 0; l < config.num_hashes; ++l) {
        signatures.MinUpdate(l, c, row_hashes[l]);
      }
    }
  }
  return signatures;
}

/// The pre-kernel bottom-k scan: one virtual hash call per row.
KMinHashSketch ReferenceKMinHash(const BinaryMatrix& matrix,
                                 const KMinHashConfig& config) {
  const std::unique_ptr<BoxedHasher> hasher =
      std::make_unique<BoxedRowHasher>(config.family, config.seed);
  const ColumnId m = matrix.num_cols();
  std::vector<BoundedMaxHeap<uint64_t>> heaps;
  heaps.reserve(m);
  for (ColumnId c = 0; c < m; ++c) {
    heaps.emplace_back(static_cast<size_t>(config.k));
  }
  std::vector<uint64_t> cardinalities(m, 0);
  InMemoryRowStream stream(&matrix);
  SANS_CHECK(stream.Reset().ok());
  RowView view;
  while (stream.Next(&view)) {
    if (view.columns.empty()) continue;
    uint64_t value = hasher->Hash(view.row);
    if (value == kEmptyMinHash) value -= 1;
    for (ColumnId c : view.columns) {
      heaps[c].Offer(value);
      ++cardinalities[c];
    }
  }
  KMinHashSketch sketch(config.k, m);
  for (ColumnId c = 0; c < m; ++c) {
    std::vector<uint64_t> signature = heaps[c].TakeSortedValues();
    signature.erase(std::unique(signature.begin(), signature.end()),
                    signature.end());
    SANS_CHECK(
        sketch.SetColumn(c, std::move(signature), cardinalities[c]).ok());
  }
  return sketch;
}

void CheckSignaturesIdentical(const SignatureMatrix& a,
                              const SignatureMatrix& b) {
  SANS_CHECK_EQ(a.num_hashes(), b.num_hashes());
  SANS_CHECK_EQ(a.num_cols(), b.num_cols());
  for (int l = 0; l < a.num_hashes(); ++l) {
    for (ColumnId c = 0; c < a.num_cols(); ++c) {
      SANS_CHECK_EQ(a.Value(l, c), b.Value(l, c));
    }
  }
}

void CheckSketchesIdentical(const KMinHashSketch& a, const KMinHashSketch& b) {
  SANS_CHECK_EQ(a.k(), b.k());
  SANS_CHECK_EQ(a.num_cols(), b.num_cols());
  for (ColumnId c = 0; c < a.num_cols(); ++c) {
    SANS_CHECK_EQ(a.ColumnCardinality(c), b.ColumnCardinality(c));
    const auto sig_a = a.Signature(c);
    const auto sig_b = b.Signature(c);
    SANS_CHECK_EQ(sig_a.size(), sig_b.size());
    for (size_t i = 0; i < sig_a.size(); ++i) {
      SANS_CHECK_EQ(sig_a[i], sig_b[i]);
    }
  }
}

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

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // The paper's synthetic shape (Section 5): 10^4 columns. At this
  // width the k x m signature matrix is ~8 MB, so the reference
  // path's column-strided updates (stride = 80 KB) pay real cache
  // misses — exactly the access pattern the blocked kernel removes.
  SyntheticConfig config;
  config.num_rows = smoke ? 2'000 : 20'000;
  config.num_cols = 10'000;
  config.min_density = 0.01;
  config.max_density = 0.03;
  config.seed = 7;
  auto dataset = GenerateSynthetic(config);
  SANS_CHECK(dataset.ok());
  const BinaryMatrix& matrix = dataset->matrix;
  std::fprintf(stderr, "[bench] sketch table: %u rows x %u cols, %llu ones\n",
               matrix.num_rows(), matrix.num_cols(),
               static_cast<unsigned long long>(matrix.num_ones()));

  const int repetitions = smoke ? 1 : 3;
  std::vector<bench::BenchPhaseResult> results;
  const auto emit = [&](const char* phase, double seconds, double speedup,
                        RowId rows) {
    bench::BenchPhaseResult r;
    r.phase = phase;
    r.threads = 1;
    r.seconds = seconds;
    r.rows_per_sec = seconds > 0 ? rows / seconds : 0.0;
    r.speedup_key = "speedup_vs_reference";
    r.speedup_vs_1_thread = speedup;
    results.push_back(r);
  };

  // Min-hash signatures, k = 100: the acceptance gate.
  MinHashConfig mh;
  mh.num_hashes = kNumHashes;
  mh.seed = 3;
  double reference_seconds = 0.0;
  const SignatureMatrix reference_signatures = TimeBestOf(
      repetitions, &reference_seconds,
      [&] { return ReferenceMinHash(matrix, mh); });
  double blocked_seconds = 0.0;
  const SignatureMatrix blocked_signatures = TimeBestOf(
      repetitions, &blocked_seconds, [&] {
        MinHashGenerator generator(mh);
        InMemoryRowStream stream(&matrix);
        auto signatures = generator.Compute(&stream);
        SANS_CHECK(signatures.ok());
        return std::move(signatures).value();
      });
  CheckSignaturesIdentical(reference_signatures, blocked_signatures);
  const double mh_speedup =
      blocked_seconds > 0 ? reference_seconds / blocked_seconds : 0.0;
  emit("signatures_reference", reference_seconds, 1.0, matrix.num_rows());
  emit("signatures_blocked", blocked_seconds, mh_speedup, matrix.num_rows());
  std::fprintf(stderr,
               "[bench] signatures k=%d: reference %.3fs, blocked %.3fs "
               "(%.2fx), outputs byte-identical\n",
               kNumHashes, reference_seconds, blocked_seconds, mh_speedup);

  // Min-hash signatures on a sparse, weblog-shaped table (about four
  // ones per row, more than 2^11 columns, so the kernel's column sort
  // takes two digit passes). Timed and identity-checked, not gated.
  WeblogConfig weblog;
  weblog.num_clients = smoke ? 5'000 : 100'000;
  weblog.num_urls = smoke ? 3'000 : 6'500;
  weblog.num_bundles = 400;
  weblog.seed = 1;
  auto sparse_dataset = GenerateWeblog(weblog);
  SANS_CHECK(sparse_dataset.ok());
  const BinaryMatrix& sparse = sparse_dataset->matrix;
  std::fprintf(stderr,
               "[bench] sparse table: %u rows x %u cols, %llu ones\n",
               sparse.num_rows(), sparse.num_cols(),
               static_cast<unsigned long long>(sparse.num_ones()));
  double sparse_reference_seconds = 0.0;
  const SignatureMatrix sparse_reference = TimeBestOf(
      repetitions, &sparse_reference_seconds,
      [&] { return ReferenceMinHash(sparse, mh); });
  double sparse_blocked_seconds = 0.0;
  const SignatureMatrix sparse_blocked = TimeBestOf(
      repetitions, &sparse_blocked_seconds, [&] {
        MinHashGenerator generator(mh);
        InMemoryRowStream stream(&sparse);
        auto signatures = generator.Compute(&stream);
        SANS_CHECK(signatures.ok());
        return std::move(signatures).value();
      });
  CheckSignaturesIdentical(sparse_reference, sparse_blocked);
  const double sparse_speedup =
      sparse_blocked_seconds > 0
          ? sparse_reference_seconds / sparse_blocked_seconds
          : 0.0;
  emit("sparse_reference", sparse_reference_seconds, 1.0, sparse.num_rows());
  emit("sparse_blocked", sparse_blocked_seconds, sparse_speedup,
       sparse.num_rows());
  std::fprintf(stderr,
               "[bench] sparse signatures k=%d: reference %.3fs, blocked "
               "%.3fs (%.2fx), outputs byte-identical\n",
               kNumHashes, sparse_reference_seconds, sparse_blocked_seconds,
               sparse_speedup);

  // Bottom-k sketches (single hash per row; the kernel win is the
  // batched clamped hashing, so the margin is smaller — not gated).
  KMinHashConfig kmh;
  kmh.k = kNumHashes;
  kmh.seed = 5;
  double kmh_reference_seconds = 0.0;
  const KMinHashSketch reference_sketch = TimeBestOf(
      repetitions, &kmh_reference_seconds,
      [&] { return ReferenceKMinHash(matrix, kmh); });
  double kmh_blocked_seconds = 0.0;
  const KMinHashSketch blocked_sketch = TimeBestOf(
      repetitions, &kmh_blocked_seconds, [&] {
        auto sketch = ComputeKMinHashParallel(
            InMemorySource(&matrix), kmh, ExecutionConfig{}, nullptr);
        SANS_CHECK(sketch.ok());
        return std::move(sketch).value();
      });
  CheckSketchesIdentical(reference_sketch, blocked_sketch);
  const double kmh_speedup = kmh_blocked_seconds > 0
                                 ? kmh_reference_seconds / kmh_blocked_seconds
                                 : 0.0;
  emit("kmh_reference", kmh_reference_seconds, 1.0, matrix.num_rows());
  emit("kmh_blocked", kmh_blocked_seconds, kmh_speedup, matrix.num_rows());
  std::fprintf(stderr,
               "[bench] kmh k=%d: reference %.3fs, blocked %.3fs (%.2fx), "
               "outputs byte-identical\n",
               kNumHashes, kmh_reference_seconds, kmh_blocked_seconds,
               kmh_speedup);

  bench::WriteBenchJson(
      "BENCH_sketch.json", "sketch",
      {{"rows", bench::JsonNumber(matrix.num_rows())},
       {"cols", bench::JsonNumber(matrix.num_cols())},
       {"ones", bench::JsonNumber(static_cast<double>(matrix.num_ones()))},
       {"sparse_rows", bench::JsonNumber(sparse.num_rows())},
       {"sparse_cols", bench::JsonNumber(sparse.num_cols())},
       {"sparse_ones",
        bench::JsonNumber(static_cast<double>(sparse.num_ones()))},
       {"k", bench::JsonNumber(kNumHashes)},
       {"scale", smoke ? "\"smoke\"" : "\"full\""}},
      results);

  std::printf("\n%-22s %10s %14s %10s\n", "phase", "seconds", "rows/sec",
              "speedup");
  for (const bench::BenchPhaseResult& r : results) {
    std::printf("%-22s %10.3f %14.0f %9.2fx\n", r.phase.c_str(), r.seconds,
                r.rows_per_sec, r.speedup_vs_1_thread);
  }
  std::printf("\nwrote BENCH_sketch.json\n");

  if (!smoke && mh_speedup < 2.0) {
    std::fprintf(stderr,
                 "[bench] FAIL: signatures speedup %.2fx < 2.0x gate\n",
                 mh_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sans

int main(int argc, char** argv) { return sans::Main(argc, argv); }
