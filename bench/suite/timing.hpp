#pragma once

/// \file timing.hpp
/// Host-time measurement for the benchmark suite: the calibration loop that
/// normalizes every timed repetition, the in-memory span recorder of the
/// traced run, and the order statistics the reports use.

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace dsouth::suite {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A fixed streaming-plus-arithmetic loop over three 8 MiB arrays (well
/// past the 2 MiB per-core L2), run after every timed repetition so its
/// samples spread over the whole run. Every timing a run reports is
/// multiplied by factor() = ref_s / (median loop time of the run), where
/// ref_s is the loop's time on the reference machine: a run that lands on
/// a slow stretch of a shared host moves both together (README.md, Noise).
class Calibrator {
 public:
  explicit Calibrator(double ref_s);

  /// Time one loop.
  double run();

  /// Time `work()`, then one loop. Returns the raw seconds of `work()`.
  template <typename Fn>
  double time(Fn&& work) {
    const double t0 = now_s();
    work();
    const double raw = now_s() - t0;
    run();
    return raw;
  }

  double ref_s() const { return ref_s_; }
  double factor() const;
  const std::vector<double>& samples() const { return samples_; }

 private:
  double ref_s_;
  double sink_ = 0.0;
  std::vector<double> a_, b_, c_;
  std::vector<double> samples_;
};

/// One traced interval: named `layer.operation`, nested under `parent`
/// (-1 for a root), tagged with the solve it belongs to (-1 outside a
/// solve). Times are seconds on the steady clock.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int solve = -1;
};

/// In-memory span recorder; written out once, at exit. Names must be
/// string literals (the recorder keeps the pointers).
class Spans {
 public:
  int begin(const char* name, int solve);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the parts covered by direct children, per span.
  std::vector<double> self_times() const;

  void write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; inert when `spans` is null (untraced runs pay one branch).
class Scope {
 public:
  Scope(Spans* spans, const char* name, int solve = -1)
      : spans_(spans), id_(spans ? spans->begin(name, solve) : -1) {}
  ~Scope() {
    if (spans_) spans_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  int id_;
};

/// Order statistics with linear interpolation (NumPy's default method).
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

}  // namespace dsouth::suite
