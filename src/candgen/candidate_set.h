// CandidateSet: the deduplicated pair set produced by phase 2
// (candidate generation) and consumed by phase 3 (verification).
// Every generator attaches a per-pair evidence count: row agreements
// (MH), signature intersections (K-MH), or the number of bands / runs
// a pair collided in (the LSH schemes).

#ifndef SANS_CANDGEN_CANDIDATE_SET_H_
#define SANS_CANDGEN_CANDIDATE_SET_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/types.h"

namespace sans {

/// Set of candidate column pairs with an evidence count per pair.
class CandidateSet {
 public:
  CandidateSet() = default;

  /// Adds `count` units of evidence for the pair (inserting it if
  /// new). The two columns must be distinct.
  void Add(ColumnPair pair, uint64_t count = 1);

  /// Inserts the pair if absent without changing an existing count.
  void Insert(ColumnPair pair) { counts_.try_emplace(pair, 0); }

  bool Contains(ColumnPair pair) const {
    return counts_.find(pair) != counts_.end();
  }

  /// Evidence count for a pair (0 if absent).
  uint64_t Count(ColumnPair pair) const;

  size_t size() const { return counts_.size(); }
  bool empty() const { return counts_.empty(); }

  /// Merges another candidate set into this one, summing counts (the
  /// union across LSH iterations).
  void Merge(const CandidateSet& other);

  /// Drops pairs with evidence below `min_count`.
  void PruneBelow(uint64_t min_count);

  /// All pairs in ascending pair order (deterministic output).
  std::vector<ColumnPair> SortedPairs() const;

  /// All (pair, count) entries in ascending pair order.
  std::vector<std::pair<ColumnPair, uint64_t>> SortedEntries() const;

  using const_iterator =
      std::unordered_map<ColumnPair, uint64_t, ColumnPairHash>::const_iterator;
  const_iterator begin() const { return counts_.begin(); }
  const_iterator end() const { return counts_.end(); }

 private:
  std::unordered_map<ColumnPair, uint64_t, ColumnPairHash> counts_;
};

}  // namespace sans

#endif  // SANS_CANDGEN_CANDIDATE_SET_H_
