#include "candgen/hamming_lsh.h"

#include <algorithm>

#include "candgen/flat_buckets.h"
#include "matrix/or_fold.h"
#include "util/hashing.h"
#include "util/random.h"

namespace sans {

Status HammingLshConfig::Validate() const {
  if (rows_per_run <= 0 || rows_per_run > 64) {
    return Status::InvalidArgument("rows_per_run must be in [1, 64]");
  }
  if (num_runs <= 0) {
    return Status::InvalidArgument("num_runs must be positive");
  }
  if (density_band < 2) {
    return Status::InvalidArgument("density_band must be at least 2");
  }
  if (max_levels <= 0) {
    return Status::InvalidArgument("max_levels must be positive");
  }
  return Status::OK();
}

HammingLshCandidateGenerator::HammingLshCandidateGenerator(
    const HammingLshConfig& config)
    : config_(config) {
  SANS_CHECK(config.Validate().ok());
}

CandidateSet HammingLshCandidateGenerator::Generate(
    const BinaryMatrix& matrix) const {
  return Generate(matrix, nullptr, nullptr).value();
}

Result<CandidateSet> HammingLshCandidateGenerator::Generate(
    const BinaryMatrix& matrix, ThreadPool* pool,
    std::vector<HammingLshLevelStats>* stats) const {
  // The pyramid is folded one level at a time: level 0 is `matrix`
  // itself, and level L+1 is folded from level L when its first run
  // arrives, replacing level L. So at most two levels are alive at
  // once, and the fold draws from `fold_rng` in the same order as
  // building the whole pyramid up front would.
  const size_t num_levels = static_cast<size_t>(NumOrFoldLevels(
      matrix.num_rows(), config_.max_levels, config_.min_rows));
  Xoshiro256 fold_rng(Mix64(config_.seed));
  BinaryMatrix folded(0, 0);
  const BinaryMatrix* level_matrix = &matrix;

  const double lo = 1.0 / config_.density_band;
  const double hi =
      static_cast<double>(config_.density_band - 1) / config_.density_band;
  const ColumnId num_cols = matrix.num_cols();
  const size_t num_runs = static_cast<size_t>(config_.num_runs);
  const size_t num_tables = num_levels * num_runs;

  // Table level·num_runs + run holds the eligible columns of the level,
  // keyed by their r-bit patterns over the run's sampled rows; a pair's
  // count is the number of tables it collided in. Tables arrive in
  // order, so each level's first run sets up the level.
  std::vector<HammingLshLevelStats> level_stats(num_levels);
  std::vector<uint8_t> eligible(num_cols);
  std::vector<uint64_t> patterns(num_cols);
  Xoshiro256 run_rng(0);
  const FlatBuckets buckets(
      num_cols, static_cast<uint32_t>(num_tables), 0,
      [&](uint32_t table, const auto& add) {
        const size_t level = table / num_runs;
        if (level > 0 && table % num_runs == 0) {
          folded = OrFold(*level_matrix, &fold_rng);
          level_matrix = &folded;
        }
        const BinaryMatrix& m = *level_matrix;
        HammingLshLevelStats& this_level = level_stats[level];
        if (table % num_runs == 0) {
          this_level.level = static_cast<int>(level);
          this_level.rows = m.num_rows();
          for (ColumnId c = 0; c < num_cols; ++c) {
            const double d = m.ColumnDensity(c);
            eligible[c] = d > lo && d < hi;
            this_level.eligible_columns += eligible[c];
          }
          run_rng = Xoshiro256(
              Mix64(config_.seed ^ (0xa0761d6478bd642fULL * (level + 1))));
        }
        if (this_level.eligible_columns == 0) return;
        const int r = std::min<int>(config_.rows_per_run,
                                    static_cast<int>(m.num_rows()));
        const std::vector<uint64_t> sample =
            run_rng.SampleWithoutReplacement(m.num_rows(), r);
        // Build each column's pattern by scanning the sampled rows once
        // (row-major access; no column-major view needed at fold levels).
        std::fill(patterns.begin(), patterns.end(), 0);
        for (int bit = 0; bit < r; ++bit) {
          for (ColumnId c : m.Row(static_cast<RowId>(sample[bit]))) {
            patterns[c] |= uint64_t{1} << bit;
          }
        }
        for (ColumnId c = 0; c < num_cols; ++c) {
          if (!eligible[c]) continue;
          if (config_.skip_zero_keys && patterns[c] == 0) continue;
          add(c, patterns[c]);
        }
      });
  folded = BinaryMatrix(0, 0);  // the top level's runs are done
  for (size_t table = 0; table < num_tables; ++table) {
    level_stats[table / num_runs].candidate_pairs +=
        buckets.run_stats()[table].pairs;
  }
  if (stats != nullptr) {
    stats->insert(stats->end(), level_stats.begin(), level_stats.end());
  }
  return buckets.Count(pool, KeepEveryPair());
}

}  // namespace sans
