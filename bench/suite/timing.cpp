#include "timing.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>

#include "util/error.hpp"
#include "util/json.hpp"

namespace dsouth::suite {

namespace {
constexpr std::size_t kCalDoubles = std::size_t{1} << 20;  // 8 MiB per array
constexpr int kCalPasses = 6;
}  // namespace

Calibrator::Calibrator(double ref_s)
    : ref_s_(ref_s), a_(kCalDoubles), b_(kCalDoubles), c_(kCalDoubles) {
  DSOUTH_CHECK_MSG(ref_s > 0.0, "calibration reference must be positive");
  for (std::size_t i = 0; i < kCalDoubles; ++i) {
    b_[i] = 1.0 + 1e-7 * static_cast<double>(i % 1000);
    c_[i] = 0.5 - 1e-7 * static_cast<double>(i % 777);
  }
}

double Calibrator::run() {
  const double t0 = now_s();
  double acc = 0.0;
  for (int pass = 0; pass < kCalPasses; ++pass) {
    const double s = 0.25 + 0.125 * pass;
    // Triad (streaming) and a dependent multiply-add chain (arithmetic).
    for (std::size_t i = 0; i < kCalDoubles; ++i) {
      const double v = b_[i] * s + c_[i];
      a_[i] = v;
      acc += v * v;
    }
    std::swap(a_, b_);
  }
  sink_ += acc;
  samples_.push_back(now_s() - t0);
  return samples_.back();
}

double Calibrator::factor() const { return ref_s_ / median(samples_); }

int Spans::begin(const char* name, int solve) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.solve = solve < 0 && s.parent >= 0
                ? spans_[static_cast<std::size_t>(s.parent)].solve
                : solve;
  s.start = now_s();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Spans::end(int id) {
  const double t = now_s();
  DSOUTH_CHECK_MSG(!open_.empty() && open_.back() == id,
                   "spans must close innermost first");
  spans_[static_cast<std::size_t>(id)].end = t;
  open_.pop_back();
}

std::vector<double> Spans::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
  }
  return self;
}

void Spans::write_json(const std::string& path) const {
  DSOUTH_CHECK_MSG(open_.empty(), "writing spans with one still open");
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  std::string out = "{\"schema\":\"dsouth.suite_spans\",\"version\":1,"
                    "\"spans\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += "{\"id\":" + std::to_string(i) + ",\"name\":" +
           util::json_quote(s.name) + ",\"start\":";
    util::append_json_number(out, s.start - t0);
    out += ",\"end\":";
    util::append_json_number(out, s.end - t0);
    out += ",\"parent\":" + std::to_string(s.parent) +
           ",\"solve\":" + std::to_string(s.solve) + "}";
    out += i + 1 < spans_.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  std::ofstream f(path);
  DSOUTH_CHECK_MSG(f.good(), "cannot write " << path);
  f << out;
  DSOUTH_CHECK_MSG(f.good(), "write failed: " << path);
}

double quantile(std::vector<double> v, double q) {
  DSOUTH_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace dsouth::suite
