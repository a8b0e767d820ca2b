#include "candgen/hash_count.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace sans {
namespace {

// The flat sorted-bucket index every Hash-Count variant probes. Each
// column's bucket keys occupy consecutive "key slots" (column i owns
// slots [slot_begin[i], slot_begin[i + 1])). All keys are sorted into
// contiguous runs of equal (table, value), ascending column within a
// run, so the columns j < i sharing slot s's key are exactly the run
// prefix [probe[s].first, probe[s].second) of `cols`.
struct FlatBucketIndex {
  std::vector<uint32_t> slot_begin;
  std::vector<ColumnId> cols;
  std::vector<std::pair<uint32_t, uint32_t>> probe;
};

// One bucket key, tagged with its slot. `table` is the min-hash row l
// (always 0 for K-MH's single table).
struct BucketKey {
  uint64_t value;
  uint32_t table;
  uint32_t slot;
};

// Stable LSD radix sort by (table, value), 11 bits per pass: passes
// 0-5 cover the 64 value bits, 6-8 the 32 table bits. One sweep counts
// every pass's digits; passes on which all keys agree (every table
// pass for K-MH) are skipped. Stability keeps each run's slots, hence
// its columns, ascending.
void SortIntoRuns(std::vector<BucketKey>* keys) {
  constexpr int kBits = 11;
  constexpr int kPasses = 9;
  constexpr size_t kBuckets = size_t{1} << kBits;
  const auto digit = [](const BucketKey& key, int pass) {
    const uint64_t word = pass < 6 ? key.value : key.table;
    return static_cast<size_t>(word >> (kBits * (pass % 6))) & (kBuckets - 1);
  };
  std::vector<size_t> offsets(kPasses * kBuckets, 0);
  for (const BucketKey& key : *keys) {
    for (int pass = 0; pass < kPasses; ++pass) {
      ++offsets[pass * kBuckets + digit(key, pass)];
    }
  }
  std::vector<BucketKey> buffer(keys->size());
  for (int pass = 0; pass < kPasses; ++pass) {
    size_t* const begin = offsets.data() + pass * kBuckets;
    if (std::find(begin, begin + kBuckets, keys->size()) != begin + kBuckets) {
      continue;
    }
    size_t next = 0;
    for (size_t d = 0; d < kBuckets; ++d) next += std::exchange(begin[d], next);
    for (const BucketKey& key : *keys) buffer[begin[digit(key, pass)]++] = key;
    keys->swap(buffer);
  }
}

// Builds the index from `keys(i, add)`, which calls add(table, value)
// once per bucket key of column i. A column with no keys owns no
// slots, so it never probes and never appears in a run: the uniform
// empty-column rule.
template <typename KeysFn>
FlatBucketIndex BuildIndex(ColumnId num_cols, size_t num_keys_hint,
                           const KeysFn& keys) {
  FlatBucketIndex index;
  index.slot_begin.resize(static_cast<size_t>(num_cols) + 1);
  std::vector<BucketKey> entries;
  std::vector<ColumnId> slot_col;
  entries.reserve(num_keys_hint);
  slot_col.reserve(num_keys_hint);
  for (ColumnId i = 0; i < num_cols; ++i) {
    index.slot_begin[i] = static_cast<uint32_t>(entries.size());
    keys(i, [&](int table, uint64_t value) {
      entries.push_back(BucketKey{value, static_cast<uint32_t>(table),
                                  static_cast<uint32_t>(entries.size())});
      slot_col.push_back(i);
    });
    SANS_CHECK_LT(entries.size(), uint64_t{1} << 32);
  }
  index.slot_begin[num_cols] = static_cast<uint32_t>(entries.size());
  SortIntoRuns(&entries);
  index.cols.resize(entries.size());
  index.probe.resize(entries.size());
  uint32_t run_start = 0;
  for (uint32_t p = 0; p < entries.size(); ++p) {
    if (p > 0 && (entries[p].value != entries[p - 1].value ||
                  entries[p].table != entries[p - 1].table)) {
      run_start = p;
    }
    const uint32_t slot = entries[p].slot;
    index.cols[p] = slot_col[slot];
    index.probe[slot] = {run_start, p};
  }
  return index;
}

// A worker's touched-counter array: counter[j] is column j's collision
// count with the column being probed, zero between columns.
struct ProbeScratch {
  std::vector<uint32_t> counter;
  std::vector<ColumnId> touched;
};

using CountedPair = std::pair<ColumnPair, uint64_t>;

// Probes columns [begin, end): for column i, walks every run prefix of
// its slots into the counters, then emits (j, i) with its exact count
// when keep(j, i, count) holds.
template <typename KeepFn>
void ProbeColumns(const FlatBucketIndex& index, ColumnId begin, ColumnId end,
                  const KeepFn& keep, ProbeScratch* scratch,
                  std::vector<CountedPair>* out) {
  std::vector<uint32_t>& counter = scratch->counter;
  std::vector<ColumnId>& touched = scratch->touched;
  for (ColumnId i = begin; i < end; ++i) {
    touched.clear();
    for (uint32_t s = index.slot_begin[i]; s < index.slot_begin[i + 1]; ++s) {
      for (uint32_t p = index.probe[s].first; p < index.probe[s].second; ++p) {
        const ColumnId j = index.cols[p];
        if (counter[j]++ == 0) touched.push_back(j);
      }
    }
    for (ColumnId j : touched) {
      if (keep(j, i, counter[j])) {
        out->emplace_back(ColumnPair(j, i), counter[j]);
      }
      counter[j] = 0;
    }
  }
}

// Every Hash-Count variant, at any thread count. Builds the flat index,
// then probes fixed chunks of kHashCountChunkCols columns — inline for
// a null pool, else one ParallelFor index per chunk. Each column is
// probed by one worker, which therefore sees every pair's full count
// and applies `keep` on the spot; chunk outputs are concatenated in
// chunk order. The one site that reports into
// sans_candgen_candidates_total (shared with Min-LSH and Hamming-LSH).
template <typename KeysFn, typename KeepFn>
Result<CandidateSet> HashCount(ColumnId num_cols, size_t num_keys_hint,
                               ThreadPool* pool, const KeysFn& keys,
                               const KeepFn& keep) {
  const FlatBucketIndex index = BuildIndex(num_cols, num_keys_hint, keys);
  const int64_t num_chunks =
      (static_cast<int64_t>(num_cols) + kHashCountChunkCols - 1) /
      kHashCountChunkCols;
  std::vector<std::vector<CountedPair>> outputs(num_chunks);
  // Scratch arrays are reused across chunks: a worker takes an idle
  // one (or makes one) and returns it when its chunk is done, so at
  // most one exists per concurrently running worker.
  std::mutex idle_mu;
  std::vector<std::unique_ptr<ProbeScratch>> idle;
  const auto probe_chunk = [&](int64_t chunk) -> Status {
    std::unique_ptr<ProbeScratch> scratch;
    {
      std::lock_guard<std::mutex> lock(idle_mu);
      if (!idle.empty()) {
        scratch = std::move(idle.back());
        idle.pop_back();
      }
    }
    if (scratch == nullptr) {
      scratch = std::make_unique<ProbeScratch>();
      scratch->counter.assign(num_cols, 0);
    }
    const ColumnId begin = static_cast<ColumnId>(chunk * kHashCountChunkCols);
    const ColumnId end = std::min(num_cols, begin + kHashCountChunkCols);
    ProbeColumns(index, begin, end, keep, scratch.get(), &outputs[chunk]);
    std::lock_guard<std::mutex> lock(idle_mu);
    idle.push_back(std::move(scratch));
    return Status::OK();
  };
  if (pool == nullptr) {
    for (int64_t chunk = 0; chunk < num_chunks; ++chunk) {
      SANS_RETURN_IF_ERROR(probe_chunk(chunk));
    }
  } else {
    SANS_RETURN_IF_ERROR(pool->ParallelFor(num_chunks, probe_chunk));
  }
  CandidateSet candidates;
  for (std::vector<CountedPair>& output : outputs) {
    for (const auto& [pair, count] : output) candidates.Add(pair, count);
    std::vector<CountedPair>().swap(output);  // free each chunk once copied
  }
  static Counter* const counter =
      MetricsRegistry::Global().GetCounter("sans_candgen_candidates_total");
  counter->Increment(candidates.size());
  return candidates;
}

template <typename KeepFn>
Result<CandidateSet> HashCountSketch(const KMinHashSketch& sketch,
                                     ThreadPool* pool, const KeepFn& keep) {
  return HashCount(
      sketch.num_cols(), sketch.TotalSignatureSize(), pool,
      [&](ColumnId i, const auto& add) {
        for (uint64_t value : sketch.Signature(i)) add(0, value);
      },
      keep);
}

}  // namespace

CandidateSet HashCountKMinHash(const KMinHashSketch& sketch,
                               uint64_t min_intersection) {
  return HashCountKMinHashParallel(sketch, min_intersection, nullptr).value();
}

CandidateSet HashCountKMinHashAdaptive(const KMinHashSketch& sketch,
                                       double fraction) {
  return HashCountKMinHashAdaptiveParallel(sketch, fraction, nullptr).value();
}

CandidateSet HashCountMinHash(const SignatureMatrix& signatures,
                              int min_agreements) {
  return HashCountMinHashParallel(signatures, min_agreements, nullptr).value();
}

Result<CandidateSet> HashCountKMinHashParallel(const KMinHashSketch& sketch,
                                               uint64_t min_intersection,
                                               ThreadPool* pool) {
  SANS_CHECK_GE(min_intersection, 1u);
  return HashCountSketch(sketch, pool,
                         [&](ColumnId, ColumnId, uint64_t count) {
                           return count >= min_intersection;
                         });
}

Result<CandidateSet> HashCountKMinHashAdaptiveParallel(
    const KMinHashSketch& sketch, double fraction, ThreadPool* pool) {
  SANS_CHECK_GE(fraction, 0.0);
  SANS_CHECK_LE(fraction, 1.0);
  // Per-pair threshold (Lemma 1; see header):
  // max(1, floor(fraction * max(|SIG_i|, |SIG_j|))).
  return HashCountSketch(
      sketch, pool, [&](ColumnId j, ColumnId i, uint64_t count) {
        const size_t larger_sig = std::max(sketch.Signature(i).size(),
                                           sketch.Signature(j).size());
        return count >= std::max<uint64_t>(
                            1, static_cast<uint64_t>(
                                   fraction * static_cast<double>(larger_sig)));
      });
}

Result<CandidateSet> HashCountMinHashParallel(
    const SignatureMatrix& signatures, int min_agreements, ThreadPool* pool) {
  SANS_CHECK_GE(min_agreements, 1);
  const int k = signatures.num_hashes();
  // One bucket table per row of M̂ (paper: "we use a different hash
  // table (and set of buckets) for each row").
  return HashCount(
      signatures.num_cols(), static_cast<size_t>(signatures.num_cols()) * k,
      pool,
      [&](ColumnId i, const auto& add) {
        if (signatures.ColumnEmpty(i)) return;  // uniform empty-column rule
        for (int l = 0; l < k; ++l) add(l, signatures.Value(l, i));
      },
      [&](ColumnId, ColumnId, uint64_t count) {
        return count >= static_cast<uint64_t>(min_agreements);
      });
}

}  // namespace sans
