#include "candgen/candidate_set.h"

#include <algorithm>

#include "util/status.h"

namespace sans {

CandidateSet::CandidateSet(std::vector<Entry> entries)
    : entries_(std::move(entries)) {
  SANS_CHECK(std::adjacent_find(entries_.begin(), entries_.end(),
                                [](const Entry& a, const Entry& b) {
                                  return !(a.first < b.first);
                                }) == entries_.end());
}

CandidateSet::const_iterator CandidateSet::Find(ColumnPair pair) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), pair,
      [](const Entry& entry, ColumnPair p) { return entry.first < p; });
  return it != entries_.end() && it->first == pair ? it : entries_.end();
}

std::vector<ColumnPair> CandidateSet::SortedPairs() const {
  std::vector<ColumnPair> pairs;
  pairs.reserve(entries_.size());
  for (const auto& [pair, count] : entries_) pairs.push_back(pair);
  return pairs;
}

}  // namespace sans
