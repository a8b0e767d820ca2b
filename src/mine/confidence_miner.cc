#include "mine/confidence_miner.h"

#include <algorithm>
#include <cmath>

#include "candgen/candidate_set.h"
#include "candgen/hash_count.h"
#include "mine/miner.h"
#include "mine/verifier.h"
#include "sketch/signature_matrix.h"

namespace sans {

Status ConfidenceMinerConfig::Validate() const {
  SANS_RETURN_IF_ERROR(min_hash.Validate());
  if (similarity_slack <= 0.0 || similarity_slack > 1.0) {
    return Status::InvalidArgument("similarity_slack must lie in (0, 1]");
  }
  if (ratio_tolerance < 0.0 || ratio_tolerance > 1.0) {
    return Status::InvalidArgument("ratio_tolerance must lie in [0, 1]");
  }
  return Status::OK();
}

ConfidenceMiner::ConfidenceMiner(const ConfidenceMinerConfig& config)
    : config_(config) {
  SANS_CHECK(config.Validate().ok());
}

Result<ConfidenceReport> ConfidenceMiner::Mine(const RowStreamSource& source,
                                               double threshold) {
  if (threshold <= 0.0 || threshold > 1.0) {
    return Status::InvalidArgument("threshold must lie in (0, 1]");
  }
  ConfidenceReport report;

  // Phase 1: signatures plus exact cardinalities in one pass.
  SignatureMatrix signatures(1, 0);
  std::vector<uint64_t> cardinalities;
  {
    ScopedPhase phase(&report.timers, kPhaseSignatures);
    MinHashGenerator generator(config_.min_hash);
    SANS_ASSIGN_OR_RETURN(std::unique_ptr<RowStream> stream, source.Open());
    SANS_ASSIGN_OR_RETURN(signatures,
                          generator.Compute(stream.get(), &cardinalities));
  }

  // Phase 2: enumerate pairs sharing at least one min-hash value and
  // apply the Section 6 candidate tests. A rule whose similarity
  // falls below ~1/k is invisible here — the paper's "we may require
  // a bigger table M̂" caveat; raise k for very asymmetric rules. The
  // set is in ascending pair order, so the candidates are too.
  std::vector<ColumnPair> candidates;
  {
    ScopedPhase phase(&report.timers, kPhaseCandidates);
    const CandidateSet sharing = HashCountMinHash(signatures, 1);
    const double floor = config_.similarity_slack * threshold;
    for (const auto& [pair, agreements] : sharing) {
      const double s_hat = static_cast<double>(agreements) /
                           config_.min_hash.num_hashes;
      // (a) similarity lower-bounds both directed confidences.
      bool is_candidate = s_hat >= floor;
      if (!is_candidate) {
        // (b) near-1 confidence: Ŝ ≈ |C_small| / |C_large|.
        const uint64_t ca = cardinalities[pair.first];
        const uint64_t cb = cardinalities[pair.second];
        const uint64_t small = std::min(ca, cb);
        const uint64_t large = std::max(ca, cb);
        if (large > 0) {
          const double ratio =
              static_cast<double>(small) / static_cast<double>(large);
          is_candidate = std::abs(s_hat - ratio) <= config_.ratio_tolerance;
        }
      }
      if (!is_candidate) {
        // Direct estimate conf^ = P[h equal] / P[h(a) <= h(b)], both
        // directions.
        const double leq_ab =
            signatures.FractionLessOrEqual(pair.first, pair.second);
        const double leq_ba =
            signatures.FractionLessOrEqual(pair.second, pair.first);
        const double conf_ab = leq_ab > 0.0 ? s_hat / leq_ab : 0.0;
        const double conf_ba = leq_ba > 0.0 ? s_hat / leq_ba : 0.0;
        is_candidate = std::max(conf_ab, conf_ba) >= floor;
      }
      if (is_candidate) candidates.push_back(pair);
    }
  }
  report.num_candidates = candidates.size();

  // Phase 3: exact verification of both directions of every
  // candidate.
  {
    ScopedPhase phase(&report.timers, kPhaseVerify);
    SANS_ASSIGN_OR_RETURN(std::unique_ptr<RowStream> stream, source.Open());
    SANS_ASSIGN_OR_RETURN(std::vector<VerifiedPair> verified,
                          CountCandidatePairs(stream.get(), candidates));
    for (const VerifiedPair& v : verified) {
      const uint64_t ca = cardinalities[v.pair.first];
      const uint64_t cb = cardinalities[v.pair.second];
      if (ca > 0) {
        const double conf =
            static_cast<double>(v.intersection_count) / ca;
        if (conf >= threshold) {
          report.rules.push_back(
              ConfidenceRule{v.pair.first, v.pair.second, conf});
        }
      }
      if (cb > 0) {
        const double conf =
            static_cast<double>(v.intersection_count) / cb;
        if (conf >= threshold) {
          report.rules.push_back(
              ConfidenceRule{v.pair.second, v.pair.first, conf});
        }
      }
    }
    std::sort(report.rules.begin(), report.rules.end(),
              [](const ConfidenceRule& x, const ConfidenceRule& y) {
                if (x.confidence != y.confidence) {
                  return x.confidence > y.confidence;
                }
                return std::tie(x.antecedent, x.consequent) <
                       std::tie(y.antecedent, y.consequent);
              });
  }
  return report;
}

}  // namespace sans
