// Wall-clock stopwatch and a phase-timing accumulator used by the
// benchmark harness to report per-phase costs (signature generation,
// candidate generation, verification) the way the paper's Section 5
// figures break them down.

#ifndef SANS_UTIL_TIMER_H_
#define SANS_UTIL_TIMER_H_

#include <chrono>
#include <map>
#include <string>

namespace sans {

/// Simple wall-clock stopwatch. Starts running on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates named phase durations across a pipeline run, e.g.
/// {"signatures": 0.42s, "candidates": 0.10s, "verify": 0.31s}.
class PhaseTimer {
 public:
  /// Adds `seconds` to the accumulator for `phase`.
  void Add(const std::string& phase, double seconds) {
    totals_[phase] += seconds;
  }

  /// Total for one phase (0 if never recorded).
  double Total(const std::string& phase) const {
    auto it = totals_.find(phase);
    return it == totals_.end() ? 0.0 : it->second;
  }

  /// Sum over all phases.
  double GrandTotal() const;

  /// "phase1=1.23s phase2=0.45s ..." in phase-name order.
  std::string ToString() const;

  const std::map<std::string, double>& totals() const { return totals_; }

  void Clear() { totals_.clear(); }

 private:
  std::map<std::string, double> totals_;
};

/// RAII guard that adds the scope's duration to a PhaseTimer on exit.
class ScopedPhase {
 public:
  ScopedPhase(PhaseTimer* timer, std::string phase)
      : timer_(timer), phase_(std::move(phase)) {}
  ~ScopedPhase() { timer_->Add(phase_, watch_.ElapsedSeconds()); }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseTimer* timer_;
  std::string phase_;
  Stopwatch watch_;
};

}  // namespace sans

#endif  // SANS_UTIL_TIMER_H_
