#include "candgen/flat_buckets.h"

#include <algorithm>
#include <memory>
#include <mutex>

#include "obs/metrics.h"
#include "util/radix_sort.h"

namespace sans {

// Keys arrive in column order, so the stable sort by value
// (util/radix_sort.h) keeps each run's columns ascending.
void FlatBuckets::AddTable(uint32_t table, std::vector<Key>* keys,
                           std::vector<std::pair<ColumnId, uint32_t>>* slots) {
  {
    // Released before the table's runs are appended, which bounds the
    // build's peak for a single large table (K-MH).
    std::vector<Key> buffer;
    StableRadixSort(
        64, [](const Key& key) { return key.value; }, keys, &buffer);
  }

  SANS_CHECK_LT(cols_.size() + keys->size(), uint64_t{1} << 32);
  run_begins_.resize((cols_.size() + keys->size()) / 64 + 1, 0);
  BucketRunStats& stats = run_stats_[table];
  uint32_t run_start = 0;
  for (size_t k = 0; k < keys->size(); ++k) {
    const uint32_t p = static_cast<uint32_t>(cols_.size());
    if (k == 0 || (*keys)[k].value != (*keys)[k - 1].value) {
      run_start = p;
      ++stats.runs;
      MarkRunBegin(p);
    }
    // Entry p is the (p - run_start)-th member of its run: it pairs
    // with every earlier one.
    stats.pairs += p - run_start;
    stats.longest = std::max<uint64_t>(stats.longest, p - run_start + 1);
    cols_.push_back((*keys)[k].column);
    slots->emplace_back((*keys)[k].column, run_start);
  }
}

// A counting sort of the slots by column; within a column they keep
// their table order.
void FlatBuckets::IndexSlots(
    const std::vector<std::pair<ColumnId, uint32_t>>& slots) {
  slot_begin_.assign(static_cast<size_t>(num_cols_) + 1, 0);
  for (const auto& [column, run_start] : slots) ++slot_begin_[column + 1];
  for (ColumnId c = 0; c < num_cols_; ++c) {
    slot_begin_[c + 1] += slot_begin_[c];
  }
  std::vector<uint32_t> next(slot_begin_.begin(), slot_begin_.end() - 1);
  run_start_.resize(slots.size());
  for (const auto& [column, run_start] : slots) {
    run_start_[next[column]++] = run_start;
  }
}

// Probes fixed chunks of kFlatBucketChunkCols columns — inline for a
// null pool, else one ParallelFor index per chunk — and scatters the
// chunk outputs, in chunk order, by first column.
Result<CandidateSet> FlatBuckets::ProbeChunks(
    ThreadPool* pool, const ChunkFn& probe_chunk) const {
  const int64_t num_chunks =
      (static_cast<int64_t>(num_cols_) + kFlatBucketChunkCols - 1) /
      kFlatBucketChunkCols;
  std::vector<std::vector<CandidateSet::Entry>> outputs(num_chunks);
  // Scratch arrays are reused across chunks: a worker takes an idle
  // one (or makes one) and returns it when its chunk is done, so at
  // most one exists per concurrently running worker.
  std::mutex idle_mu;
  std::vector<std::unique_ptr<Scratch>> idle;
  const auto run_chunk = [&](int64_t chunk) -> Status {
    std::unique_ptr<Scratch> scratch;
    {
      std::lock_guard<std::mutex> lock(idle_mu);
      if (!idle.empty()) {
        scratch = std::move(idle.back());
        idle.pop_back();
      }
    }
    if (scratch == nullptr) {
      scratch = std::make_unique<Scratch>();
      scratch->counter.assign(num_cols_, 0);
    }
    const ColumnId begin = static_cast<ColumnId>(chunk * kFlatBucketChunkCols);
    const ColumnId end = std::min(num_cols_, begin + kFlatBucketChunkCols);
    probe_chunk(begin, end, scratch.get(), &outputs[chunk]);
    std::lock_guard<std::mutex> lock(idle_mu);
    idle.push_back(std::move(scratch));
    return Status::OK();
  };
  if (pool == nullptr) {
    for (int64_t chunk = 0; chunk < num_chunks; ++chunk) {
      SANS_RETURN_IF_ERROR(run_chunk(chunk));
    }
  } else {
    SANS_RETURN_IF_ERROR(pool->ParallelFor(num_chunks, run_chunk));
  }
  // Stable counting sort on the first column (see the header).
  std::vector<size_t> next(static_cast<size_t>(num_cols_) + 1, 0);
  for (const auto& output : outputs) {
    for (const auto& [pair, count] : output) ++next[pair.first + 1];
  }
  for (ColumnId c = 0; c < num_cols_; ++c) next[c + 1] += next[c];
  std::vector<CandidateSet::Entry> entries(next[num_cols_]);
  for (std::vector<CandidateSet::Entry>& output : outputs) {
    for (const CandidateSet::Entry& entry : output) {
      entries[next[entry.first.first]++] = entry;
    }
    std::vector<CandidateSet::Entry>().swap(output);  // free once scattered
  }
  static Counter* const counter =
      MetricsRegistry::Global().GetCounter("sans_candgen_candidates_total");
  counter->Increment(entries.size());
  return CandidateSet(std::move(entries));
}

}  // namespace sans
