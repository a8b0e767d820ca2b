#include "mine/disjunction_miner.h"

#include <algorithm>
#include <limits>
#include <tuple>
#include <unordered_map>

#include "candgen/candidate_set.h"
#include "candgen/hash_count.h"
#include "matrix/row_stream.h"
#include "mine/boolean_extensions.h"

namespace sans {

Status DisjunctionMinerConfig::Validate() const {
  SANS_RETURN_IF_ERROR(min_hash.Validate());
  if (neighbour_floor < 0.0 || neighbour_floor > 1.0) {
    return Status::InvalidArgument("neighbour_floor must lie in [0, 1]");
  }
  if (max_neighbours < 2) {
    return Status::InvalidArgument("max_neighbours must be >= 2");
  }
  if (estimate_slack <= 0.0 || estimate_slack > 1.0) {
    return Status::InvalidArgument("estimate_slack must lie in (0, 1]");
  }
  return Status::OK();
}

DisjunctionMiner::DisjunctionMiner(const DisjunctionMinerConfig& config)
    : config_(config) {
  SANS_CHECK(config.Validate().ok());
}

double ExactOrSimilarity(const BinaryMatrix& matrix, ColumnId target,
                         ColumnId a, ColumnId b) {
  const auto ct = matrix.Column(target);
  const auto ca = matrix.Column(a);
  const auto cb = matrix.Column(b);
  size_t it = 0;
  size_t ia = 0;
  size_t ib = 0;
  uint64_t inter = 0;
  uint64_t uni = 0;
  while (it < ct.size() || ia < ca.size() || ib < cb.size()) {
    RowId next = std::numeric_limits<RowId>::max();
    if (it < ct.size()) next = std::min(next, ct[it]);
    if (ia < ca.size()) next = std::min(next, ca[ia]);
    if (ib < cb.size()) next = std::min(next, cb[ib]);
    const bool in_target = it < ct.size() && ct[it] == next;
    const bool in_or = (ia < ca.size() && ca[ia] == next) ||
                       (ib < cb.size() && cb[ib] == next);
    ++uni;
    if (in_target && in_or) ++inter;
    if (it < ct.size() && ct[it] == next) ++it;
    if (ia < ca.size() && ca[ia] == next) ++ia;
    if (ib < cb.size() && cb[ib] == next) ++ib;
  }
  return uni == 0 ? 0.0 : static_cast<double>(inter) / uni;
}

Result<DisjunctionReport> DisjunctionMiner::Mine(const BinaryMatrix& matrix,
                                                 double threshold) {
  if (threshold <= 0.0 || threshold > 1.0) {
    return Status::InvalidArgument("threshold must lie in (0, 1]");
  }
  if (!matrix.has_column_major()) {
    return Status::InvalidArgument(
        "matrix must have its column-major view built");
  }
  DisjunctionReport report;

  // Signatures + pairwise neighbourhood in one pass.
  MinHashGenerator generator(config_.min_hash);
  InMemoryRowStream stream(&matrix);
  SANS_ASSIGN_OR_RETURN(SignatureMatrix signatures,
                        generator.Compute(&stream));
  const int k = config_.min_hash.num_hashes;
  const int min_agreements = std::max(
      1, static_cast<int>(config_.neighbour_floor * k));
  const CandidateSet neighbours = HashCountMinHash(signatures, min_agreements);

  // Neighbourhood lists, trimmed to the strongest max_neighbours.
  std::unordered_map<ColumnId, std::vector<std::pair<uint64_t, ColumnId>>>
      adjacency;
  for (const auto& [pair, agreements] : neighbours) {
    adjacency[pair.first].emplace_back(agreements, pair.second);
    adjacency[pair.second].emplace_back(agreements, pair.first);
  }

  std::vector<uint64_t> or_signature;
  for (auto& [target, list] : adjacency) {
    std::sort(list.begin(), list.end(),
              [](const auto& x, const auto& y) {
                if (x.first != y.first) return x.first > y.first;
                return x.second < y.second;
              });
    if (static_cast<int>(list.size()) > config_.max_neighbours) {
      list.resize(config_.max_neighbours);
    }
    for (size_t i = 0; i < list.size(); ++i) {
      for (size_t j = i + 1; j < list.size(); ++j) {
        const ColumnId a = list[i].second;
        const ColumnId b = list[j].second;
        ++report.num_candidates;
        // Estimate S(target, a ∨ b) from signatures.
        auto estimate =
            EstimateOrSimilarity(signatures, target, {a, b});
        SANS_CHECK(estimate.ok());
        if (*estimate < config_.estimate_slack * threshold) continue;
        // Verify exactly; keep only rules that beat both pair rules.
        const double exact = ExactOrSimilarity(matrix, target, a, b);
        if (exact < threshold) continue;
        const double pair_a = matrix.Similarity(target, a);
        const double pair_b = matrix.Similarity(target, b);
        if (exact <= pair_a || exact <= pair_b) continue;
        report.rules.push_back(
            DisjunctionRule{target, std::min(a, b), std::max(a, b),
                            exact, std::min(a, b) == a ? pair_a : pair_b,
                            std::min(a, b) == a ? pair_b : pair_a});
      }
    }
  }
  std::sort(report.rules.begin(), report.rules.end(),
            [](const DisjunctionRule& x, const DisjunctionRule& y) {
              if (x.similarity != y.similarity) {
                return x.similarity > y.similarity;
              }
              return std::tie(x.target, x.disjunct_a, x.disjunct_b) <
                     std::tie(y.target, y.disjunct_a, y.disjunct_b);
            });
  return report;
}

}  // namespace sans
