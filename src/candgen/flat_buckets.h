// The flat sorted-bucket engine every candidate generator runs on:
// Hash-Count and Row-Sorting (paper Section 3.1), Min-LSH banding
// (Section 4.1), Hamming-LSH runs (Section 4.2) and online M-LSH.
//
// A generator describes its bucket tables: one per min-hash row for
// MH, a single per-value table for K-MH, one per band for Min-LSH, one
// per (level, run) for H-LSH. Each table holds (column, value) keys;
// two columns share a bucket when they carry the same value in the
// same table, and a pair's count is the number of buckets the two
// columns share — the agreement count, the signature intersection, or
// the number of bands / runs the pair collided in. The engine computes
// every count exactly at any thread count:
//  1. Flat bucket index. Each table's keys are radix-sorted by value
//     into contiguous runs, ascending column within a run, and the
//     runs of all tables are laid end to end in one flat column array;
//     each of a column's key slots remembers where its run starts. A
//     run's prefix before column i's entry is exactly the bucket of
//     earlier columns that the paper's sweep probes.
//  2. Column-partitioned probing. The columns are split into fixed
//     chunks of kFlatBucketChunkCols. For each column i of a chunk, a
//     worker walks the run prefixes of i's slots into a touched-counter
//     array. One worker sees all of column i's collisions, so every
//     pair's count is exact where it is produced and the caller's keep
//     predicate is applied right there.
//  3. Candidate set. A chunk emits its pairs (j, i) by ascending probing
//     column i, so across chunks in chunk order each first column j
//     sees its partners i in ascending order. One stable counting sort
//     on j, O(pairs + columns), therefore lays the pairs out in
//     ascending pair order: no hash map and no comparison sort. The
//     result does not depend on the thread count. A chunk's output is
//     freed once scattered, so the peak is the 16-byte entry array plus
//     the chunk outputs (16 bytes per pair each, plus vector slack).
//
// A column that contributes no keys never probes and never appears in
// a run, so it never becomes a candidate.
//
// Read-only lookups walk the same array: ForEachMate visits a column's
// bucket-mates on both sides of its own entry in each of its runs. This
// serves queries over a single per-value table (K-MH's), whose runs are
// the postings of the sketch values.

#ifndef SANS_CANDGEN_FLAT_BUCKETS_H_
#define SANS_CANDGEN_FLAT_BUCKETS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "candgen/candidate_set.h"
#include "core/types.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sans {

/// Columns per probe chunk: the unit of work one worker takes. A
/// constant of the engine, not a tuning knob; outputs do not depend
/// on it.
inline constexpr ColumnId kFlatBucketChunkCols = 256;

/// Shape of one table's sorted runs.
struct BucketRunStats {
  /// Distinct keys (non-empty buckets) in the table.
  uint64_t runs = 0;
  /// Σ len·(len−1)/2 over the table's runs: the bucket-mate pairs the
  /// table contributes, before pairs shared with other tables merge.
  uint64_t pairs = 0;
  /// Columns in the table's longest run.
  uint64_t longest = 0;
};

/// Keep predicate that accepts every colliding pair (count ≥ 1): the
/// LSH rule "any shared bucket makes a candidate".
struct KeepEveryPair {
  bool operator()(ColumnId, ColumnId, uint64_t) const { return true; }
};

/// The sorted run array over all columns' bucket keys.
class FlatBuckets {
 public:
  /// Builds the index. `keys(table, add)` is called for table = 0, 1,
  /// …, num_tables − 1 in turn and calls add(column, value) once per
  /// key of the table, in non-decreasing column order; one column's
  /// values in a table are distinct. `num_keys_hint`, the expected key
  /// count over all tables, sizes the index and each table's buffer.
  template <typename KeysFn>
  FlatBuckets(ColumnId num_cols, uint32_t num_tables, size_t num_keys_hint,
              const KeysFn& keys);

  /// Run statistics, indexed by table.
  const std::vector<BucketRunStats>& run_stats() const { return run_stats_; }

  /// Every pair (j, i), j < i, sharing at least one key, with the
  /// number of shared keys as its count, kept when keep(j, i, count),
  /// in ascending pair order. Chunks of probing columns run on `pool`
  /// (null: inline on the calling thread); the output is identical for
  /// any pool. The one site that reports into
  /// sans_candgen_candidates_total.
  template <typename KeepFn>
  Result<CandidateSet> Count(ThreadPool* pool, const KeepFn& keep) const;

  /// Calls visit(j) for every column j != col in every bucket `col` is
  /// in: once per shared bucket, so a mate sharing n buckets is visited
  /// n times. Buckets come in table order, columns ascending within
  /// one bucket. A column with no keys has no mates.
  template <typename VisitFn>
  void ForEachMate(ColumnId col, const VisitFn& visit) const;

 private:
  struct Key {
    uint64_t value;
    ColumnId column;
  };
  // A worker's touched-counter array: counter[j] is column j's
  // collision count with the column being probed, zero between
  // columns.
  struct Scratch {
    std::vector<uint32_t> counter;
    std::vector<ColumnId> touched;
  };
  using ChunkFn = std::function<void(
      ColumnId begin, ColumnId end, Scratch* scratch,
      std::vector<CandidateSet::Entry>* out)>;

  // Sorts one table's keys into runs appended to cols_, recording each
  // key's (column, run start) in `slots` and the table's run_stats_.
  void AddTable(uint32_t table, std::vector<Key>* keys,
                std::vector<std::pair<ColumnId, uint32_t>>* slots);
  // Groups `slots` by column into slot_begin_ and run_start_.
  void IndexSlots(const std::vector<std::pair<ColumnId, uint32_t>>& slots);
  // Runs probe_chunk over every chunk, then counting-sorts the outputs
  // into the candidate set.
  Result<CandidateSet> ProbeChunks(ThreadPool* pool,
                                   const ChunkFn& probe_chunk) const;

  // Column i owns key slots [slot_begin_[i], slot_begin_[i + 1]), one
  // per key. Runs list their columns in ascending order, so the columns
  // j < i sharing slot s's key are cols_ from run_start_[s] up to i's
  // own entry. Bit p of run_begins_ marks an entry that starts a run,
  // plus one closing mark past the last entry, so a run ends where the
  // next mark is; only ForEachMate reads it.
  bool RunBegins(uint32_t p) const {
    return (run_begins_[p / 64] >> (p % 64)) & 1;
  }
  void MarkRunBegin(uint32_t p) {
    run_begins_[p / 64] |= uint64_t{1} << (p % 64);
  }

  ColumnId num_cols_;
  std::vector<uint32_t> slot_begin_;
  std::vector<ColumnId> cols_;
  std::vector<uint64_t> run_begins_;
  std::vector<uint32_t> run_start_;
  std::vector<BucketRunStats> run_stats_;
};

template <typename KeysFn>
FlatBuckets::FlatBuckets(ColumnId num_cols, uint32_t num_tables,
                         size_t num_keys_hint, const KeysFn& keys)
    : num_cols_(num_cols), run_stats_(num_tables) {
  cols_.reserve(num_keys_hint);
  run_begins_.reserve(num_keys_hint / 64 + 1);
  std::vector<std::pair<ColumnId, uint32_t>> slots;
  slots.reserve(num_keys_hint);
  {
    std::vector<Key> table_keys;
    table_keys.reserve(num_keys_hint / std::max<uint32_t>(num_tables, 1));
    for (uint32_t table = 0; table < num_tables; ++table) {
      table_keys.clear();
      keys(table, [&](ColumnId column, uint64_t value) {
        SANS_CHECK_LT(column, num_cols);
        table_keys.push_back(Key{value, column});
      });
      AddTable(table, &table_keys, &slots);
    }
  }
  run_begins_.resize(cols_.size() / 64 + 1, 0);
  MarkRunBegin(static_cast<uint32_t>(cols_.size()));
  IndexSlots(slots);
}

template <typename KeepFn>
Result<CandidateSet> FlatBuckets::Count(ThreadPool* pool,
                                        const KeepFn& keep) const {
  return ProbeChunks(pool, [&](ColumnId begin, ColumnId end, Scratch* scratch,
                               std::vector<CandidateSet::Entry>* out) {
    std::vector<uint32_t>& counter = scratch->counter;
    std::vector<ColumnId>& touched = scratch->touched;
    for (ColumnId i = begin; i < end; ++i) {
      touched.clear();
      for (uint32_t s = slot_begin_[i]; s < slot_begin_[i + 1]; ++s) {
        for (uint32_t p = run_start_[s]; cols_[p] != i; ++p) {
          const ColumnId j = cols_[p];
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
  });
}

template <typename VisitFn>
void FlatBuckets::ForEachMate(ColumnId col, const VisitFn& visit) const {
  SANS_CHECK_LT(col, num_cols_);
  for (uint32_t s = slot_begin_[col]; s < slot_begin_[col + 1]; ++s) {
    uint32_t p = run_start_[s];
    do {
      if (cols_[p] != col) visit(cols_[p]);
    } while (!RunBegins(++p));
  }
}

}  // namespace sans

#endif  // SANS_CANDGEN_FLAT_BUCKETS_H_
