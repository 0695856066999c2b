#include "ledger.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <utility>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double QuietTime(std::vector<double> values) {
  return Quantile(std::move(values), kQuietQuantile);
}

double QuietRate(std::vector<double> values) {
  return Quantile(std::move(values), 1.0 - kQuietQuantile);
}

size_t SamplesBeyond(size_t n, double q) {
  // The epsilon keeps 100 * (1 - 0.9) = 9.999... from flooring to 9.
  return static_cast<size_t>(std::floor(
      static_cast<double>(n) * (1.0 - std::clamp(q, 0.0, 1.0)) + 1e-9));
}

Percentiles Summarize(std::vector<double> samples) {
  Percentiles p;
  p.n = samples.size();
  std::sort(samples.begin(), samples.end());
  p.p50 = Quantile(samples, 0.50);
  p.p90 = Quantile(samples, 0.90);
  p.p99 = Quantile(samples, 0.99);
  return p;
}

std::string FormatPercentiles(const std::string& name, const Percentiles& p,
                              const std::string& unit) {
  const size_t beyond90 = SamplesBeyond(p.n, 0.90);
  const size_t beyond99 = SamplesBeyond(p.n, 0.99);
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "%s p50=%.3f p90=%.3f%s p99=%.3f%s %s (n=%zu, beyond p90=%zu, "
                "beyond p99=%zu)",
                name.c_str(), p.p50, p.p90, beyond90 < 10 ? " (thin)" : "",
                p.p99, beyond99 < 10 ? " (thin)" : "", unit.c_str(), p.n,
                beyond90, beyond99);
  return buf;
}

int Trace::Add(std::string name, int64_t start_ns, int64_t end_ns, int parent,
               uint64_t request) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

int Trace::Open(std::string name, int parent, uint64_t request) {
  const int64_t now = NowNs();
  return Add(std::move(name), now, now, parent, request);
}

void Trace::Close(int id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }

void Trace::WriteJsonLines(std::FILE* out) const {
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                 "\"start_ns\": %" PRId64 ", \"end_ns\": %" PRId64
                 ", \"request\": %" PRIu64 "}\n",
                 i, s.parent, s.name.c_str(), s.start_ns, s.end_ns, s.request);
  }
}

int64_t CoveredNs(int64_t start, int64_t end,
                  std::vector<std::pair<int64_t, int64_t>> intervals) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, start);
    iv.second = std::min(iv.second, end);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = start;
  for (const auto& [lo, hi] : intervals) {
    if (hi <= lo) continue;
    const int64_t from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return covered;
}

namespace {

std::vector<std::vector<std::pair<int64_t, int64_t>>> ChildIntervals(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  return children;
}

}  // namespace

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  auto children = ChildIntervals(spans);
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_ns() -
              CoveredNs(spans[i].start_ns, spans[i].end_ns,
                        std::move(children[i]));
  }
  return self;
}

Coverage StageCoverage(const std::vector<Span>& spans, int root) {
  Coverage c;
  if (root < 0 || static_cast<size_t>(root) >= spans.size()) return c;
  const Span& r = spans[static_cast<size_t>(root)];
  std::vector<std::pair<int64_t, int64_t>> stages;
  for (const Span& s : spans) {
    if (s.parent == root) stages.emplace_back(s.start_ns, s.end_ns);
  }
  c.total_ns = r.duration_ns();
  c.covered_ns = CoveredNs(r.start_ns, r.end_ns, std::move(stages));
  c.residual_ns = c.total_ns - c.covered_ns;
  return c;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::string FormatRatio(const std::string& name, double num,
                        const std::string& num_name, double den,
                        const std::string& den_name) {
  char buf[320];
  std::snprintf(buf, sizeof(buf), "%s=%.6g (base: %s=%.17g %s=%.17g)",
                name.c_str(), Ratio(num, den), num_name.c_str(), num,
                den_name.c_str(), den);
  return buf;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // JSON has no NaN/Inf; a non-finite value is reported as 0.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
