// Fig. 6 reproduction: quality and running time of the K-MH algorithm
// on the (simulated) Sun data as k and s* vary. The headline contrast
// with Fig. 5: signature generation cost is SUBLINEAR in k on sparse
// data, because a column never stores more hash values than it has 1s
// ("the number of hash values extracted from each column is upper
// bounded by the number of 1s of that column").

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "eval/sweep.h"
#include "matrix/row_stream.h"
#include "mine/kmh_miner.h"
#include "mine/parallel.h"
#include "sketch/k_min_hash.h"

int main() {
  const sans::bench::WeblogBench bench = sans::bench::MakeWeblogBench();
  sans::InMemorySource source(&bench.dataset.matrix);

  const auto run = [&](int k, double threshold) {
    sans::KmhMinerConfig config;
    config.sketch.k = k;
    config.sketch.seed = 13;
    config.hash_count_slack = 0.4;
    config.delta = 0.25;
    sans::KmhMiner miner(config);
    sans::SweepOptions options;
    options.threshold = threshold;
    options.scurve_floor = 0.1;
    auto result = sans::RunAndScore(miner, source, bench.truth, options);
    SANS_CHECK(result.ok());
    return std::move(result).value();
  };

  // --- 6a + 6b: k sweep at s* = 0.5. ---
  const int ks[] = {25, 50, 100, 200, 400};
  std::vector<sans::SCurve> curves;
  std::vector<std::string> labels;
  sans::TablePrinter times({"k", "total(s)", "sig(s)", "stored values",
                            "k*m (dense)", "candidates", "FN"});
  for (int k : ks) {
    const sans::RunResult r = run(k, 0.5);
    curves.push_back(r.scurve);
    labels.push_back("k=" + std::to_string(k));
    // Measure the sketch size directly to show the sublinearity.
    sans::KMinHashConfig sketch_config;
    sketch_config.k = k;
    sketch_config.seed = 13;
    auto sketch = sans::ComputeKMinHashParallel(
        sans::InMemorySource(&bench.dataset.matrix), sketch_config,
        sans::ExecutionConfig{}, nullptr);
    SANS_CHECK(sketch.ok());
    times.AddRow({
        sans::TablePrinter::Int(k),
        sans::TablePrinter::Fixed(r.seconds(), 3),
        sans::TablePrinter::Fixed(
            r.report.timers.Total(sans::kPhaseSignatures), 3),
        sans::TablePrinter::Int(sketch->TotalSignatureSize()),
        sans::TablePrinter::Int(static_cast<uint64_t>(k) *
                                bench.dataset.matrix.num_cols()),
        sans::TablePrinter::Int(r.report.num_candidates),
        sans::TablePrinter::Int(r.candidate_metrics.false_negatives),
    });
  }
  sans::bench::PrintSCurves(
      "=== Fig. 6a: K-MH S-curves vs k (s* = 0.5) ===", labels, curves);
  std::printf("\n=== Fig. 6b: K-MH cost vs k — stored values grow "
              "sublinearly in k (vs the dense k*m of MH) ===\n");
  times.Print(std::cout);

  // --- 6c + 6d: s* sweep at k = 100. ---
  const double cutoffs[] = {0.25, 0.5, 0.75};
  curves.clear();
  labels.clear();
  sans::TablePrinter cutoff_times(
      {"s*", "total(s)", "candidates", "pairs", "FN"});
  for (double s : cutoffs) {
    const sans::RunResult r = run(100, s);
    curves.push_back(r.scurve);
    labels.push_back("s*=" + sans::TablePrinter::Fixed(s, 2));
    cutoff_times.AddRow({
        sans::TablePrinter::Fixed(s, 2),
        sans::TablePrinter::Fixed(r.seconds(), 3),
        sans::TablePrinter::Int(r.report.num_candidates),
        sans::TablePrinter::Int(r.report.pairs.size()),
        sans::TablePrinter::Int(r.candidate_metrics.false_negatives),
    });
  }
  sans::bench::PrintSCurves(
      "=== Fig. 6c: K-MH S-curves vs s* (k = 100) ===", labels, curves);
  std::printf("\n=== Fig. 6d: K-MH running time vs s* ===\n");
  cutoff_times.Print(std::cout);
  return 0;
}
