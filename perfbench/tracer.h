// In-memory span recorder for the traced run. Spans are opened around
// calls into libsans from the benchmark's own code (nothing in src/ is
// instrumented), nest on one thread, and are written out once at the
// end of the run.

#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    /// Index of the enclosing span, -1 for a root.
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;

    double seconds() const { return end_s - start_s; }
  };

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    friend class Tracer;
    Scope(Tracer* tracer, int id) : tracer_(tracer), id_(id) {}
    Tracer* tracer_;
    int id_;
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span whose parent is the innermost open one.
  [[nodiscard]] Scope Begin(std::string name);

  /// Begin on `tracer`, or a scope that records nothing when it is null.
  [[nodiscard]] static Scope MaybeBegin(Tracer* tracer, std::string name) {
    return tracer == nullptr ? Scope(nullptr, -1)
                             : tracer->Begin(std::move(name));
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the time the span's children cover. Children run
  /// on the opening thread, one after another, so they never overlap.
  double SelfSeconds(size_t index) const;

  /// Durations of every closed span called `name`, in opening order.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes all spans (name, parent, start, end, self) as JSON.
  sans::Status WriteJson(const std::string& path) const;

 private:
  double Now() const;
  void End(int id);

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
