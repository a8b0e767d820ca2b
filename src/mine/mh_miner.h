// The MH miner (paper Sections 3, 3.1, 5): Min-Hash signatures with k
// independent permutations; candidates are pairs agreeing on at least
// a (1-δ)·s* fraction of min-hash values, counted by Min-Hash
// Hash-Count (the same counts row-sorting computes, on the flat-bucket
// engine); exact verification removes false positives.

#ifndef SANS_MINE_MH_MINER_H_
#define SANS_MINE_MH_MINER_H_

#include "candgen/candidate_set.h"
#include "mine/miner.h"
#include "sketch/min_hash.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sans {

/// Configuration of the MH miner.
struct MhMinerConfig {
  MinHashConfig min_hash;
  /// δ of Theorem 1: candidates must agree on >= (1-δ)·s*·k values.
  /// Larger δ admits more candidates (fewer false negatives, more
  /// verification work).
  double delta = 0.2;
  /// Parallel execution knobs. Output is identical for any thread
  /// count; one thread runs every phase inline on the caller.
  ExecutionConfig execution;

  Status Validate() const;
};

/// Three-phase Min-Hash miner.
class MhMiner final : public Miner {
 public:
  explicit MhMiner(const MhMinerConfig& config);

  std::string name() const override { return "MH"; }
  Result<MiningReport> Mine(const RowStreamSource& source,
                            double threshold) override;

  /// Phase 1: the k × m Min-Hash signature matrix, from one scan.
  Result<SignatureMatrix> Sketch(const RowStreamSource& source,
                                 ThreadPool* pool) const;

  /// Phase 2: the pairs agreeing on at least max(1, ⌈(1-δ)·s*·k⌉) of
  /// the k min-hash values, each with its agreement count, counted on
  /// `pool`.
  Result<CandidateSet> Candidates(const SignatureMatrix& signatures,
                                  double threshold, ThreadPool* pool) const;

  const MhMinerConfig& config() const { return config_; }

 private:
  MhMinerConfig config_;
};

}  // namespace sans

#endif  // SANS_MINE_MH_MINER_H_
