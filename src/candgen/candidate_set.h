// CandidateSet: the deduplicated pair set produced by phase 2
// (candidate generation) and consumed by phase 3 (verification).
// Every generator attaches a per-pair evidence count: row agreements
// (MH), signature intersections (K-MH), or the number of bands / runs
// a pair collided in (the LSH schemes).
//
// The set is one flat array of (pair, count) entries in strictly
// ascending pair order, 16 bytes per pair. It is built once, by
// FlatBuckets or from a checkpoint, and nothing adds to it afterwards;
// lookups are binary searches, and the only edit is Filter, which
// consumes the set.

#ifndef SANS_CANDGEN_CANDIDATE_SET_H_
#define SANS_CANDGEN_CANDIDATE_SET_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.h"

namespace sans {

/// Set of candidate column pairs with an evidence count per pair.
class CandidateSet {
 public:
  using Entry = std::pair<ColumnPair, uint64_t>;
  using const_iterator = std::vector<Entry>::const_iterator;

  CandidateSet() = default;

  /// Takes `entries`, which must be in strictly ascending pair order
  /// (checked).
  explicit CandidateSet(std::vector<Entry> entries);

  bool Contains(ColumnPair pair) const { return Find(pair) != end(); }

  /// Evidence count for a pair (0 if absent).
  uint64_t Count(ColumnPair pair) const {
    const const_iterator it = Find(pair);
    return it == end() ? 0 : it->second;
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// All pairs in ascending pair order.
  std::vector<ColumnPair> SortedPairs() const;

  /// All (pair, count) entries in ascending pair order.
  const std::vector<Entry>& SortedEntries() const { return entries_; }

  /// The entries for which keep(entry) holds, filtered in place.
  template <typename KeepFn>
  CandidateSet Filter(const KeepFn& keep) && {
    std::erase_if(entries_, [&](const Entry& entry) { return !keep(entry); });
    return std::move(*this);
  }

  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

 private:
  // The pair's entry, or end().
  const_iterator Find(ColumnPair pair) const;

  std::vector<Entry> entries_;
};

}  // namespace sans

#endif  // SANS_CANDGEN_CANDIDATE_SET_H_
