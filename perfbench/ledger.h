// Arithmetic of the benchmark's latency ledger: percentiles with their
// sample counts, spans with self time and stage coverage, ratios printed
// with their bases, and the one-line JSON result. Kept free of sqlfacil
// dependencies so ledger_test.cc can check it in isolation.
#ifndef SQLFACIL_PERFBENCH_LEDGER_H_
#define SQLFACIL_PERFBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Quantile q in [0, 1] of `values` with linear interpolation between the
/// two closest ranks (Hyndman-Fan type 7, the numpy default). Empty input
/// gives 0.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// The benchmark runs on virtual machines that share their host's caches
/// and cores. There, the same fixed work switches between a fast mode and
/// one up to 1.5x slower, for seconds at a time, and a 20-second run can
/// spend most of its time in either, so the median over rounds moved by a
/// quarter between identical runs. A run reports what its quiet rounds
/// reach instead: this quantile over rounds of a time (the mirror quantile
/// of a rate), which stays in the fast mode while a tenth of the run is.
inline constexpr double kQuietQuantile = 0.10;
double QuietTime(std::vector<double> values);
double QuietRate(std::vector<double> values);

/// Samples strictly above the q-quantile's rank: floor(n * (1 - q)). A
/// percentile is worth reporting only with at least ten samples beyond it.
size_t SamplesBeyond(size_t n, double q);

/// p50 / p90 / p99 of one sample set, with its size.
struct Percentiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  size_t n = 0;
};
Percentiles Summarize(std::vector<double> samples);

/// "name p50=.. p90=.. p99=.. unit (n=.., beyond p90=.., beyond p99=..)".
/// A percentile with fewer than ten samples beyond it is flagged "(thin)".
std::string FormatPercentiles(const std::string& name, const Percentiles& p,
                              const std::string& unit);

/// A timed interval. `parent` indexes the enclosing span in the same
/// Trace (-1 for a root); spans of one served request share `request`.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t request = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// In-memory span store, written out once when the run ends. Not
/// synchronized: one thread records, or the owner merges per-thread lists.
class Trace {
 public:
  /// Appends a finished span and returns its index.
  int Add(std::string name, int64_t start_ns, int64_t end_ns, int parent = -1,
          uint64_t request = 0);
  /// Opens a span starting now; Close stamps its end.
  int Open(std::string name, int parent = -1, uint64_t request = 0);
  void Close(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// One JSON object per span per line; a span's id is its index.
  void WriteJsonLines(std::FILE* out) const;

 private:
  std::vector<Span> spans_;
};

/// Nanoseconds of [start, end) covered by the union of `intervals`
/// (each clipped to [start, end)).
int64_t CoveredNs(int64_t start, int64_t end,
                  std::vector<std::pair<int64_t, int64_t>> intervals);

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Overlapping children count once.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// How much of span `root` its direct children (the stages) cover.
struct Coverage {
  int64_t total_ns = 0;
  int64_t covered_ns = 0;
  int64_t residual_ns = 0;  ///< total - covered: time no stage accounts for
  double residual_share() const {
    return total_ns <= 0 ? 0.0
                         : static_cast<double>(residual_ns) /
                               static_cast<double>(total_ns);
  }
  /// True when the uncovered share is at most `tolerance`.
  bool Within(double tolerance) const { return residual_share() <= tolerance; }
};
Coverage StageCoverage(const std::vector<Span>& spans, int root);

/// "name=value (base: num_name=num den_name=den)"; value = num / den, or 0
/// when den is 0.
double Ratio(double num, double den);
std::string FormatRatio(const std::string& name, double num,
                        const std::string& num_name, double den,
                        const std::string& den_name);

/// The result line: {"correct": .., "attempted": .., "failed": ..,
/// "metrics": {"<name>": {"value": .., "unit": ".."}, ...}} with every
/// value printed to full double precision.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // SQLFACIL_PERFBENCH_LEDGER_H_
