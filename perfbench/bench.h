// Shared plumbing of the three workloads: run options, the metric
// catalogue, setup repetition, round loops and report helpers.
#ifndef SQLFACIL_PERFBENCH_BENCH_H_
#define SQLFACIL_PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ledger.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (durable tables live here).
  std::string work_dir;
  /// Span dump of a traced run (JSON lines); empty = do not write.
  std::string trace_out;
};

/// Every workload reports every end-to-end metric (untraced rounds) and,
/// in a traced run, every per-layer metric; a layer a workload does not
/// exercise reports 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};

inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},      {"peak_rss_mb", "MiB"},
    {"wall_s", "s"},       {"throughput_per_s", "1/s"},
    {"p50_us", "us"},      {"p90_us", "us"},
};

inline constexpr MetricSpec kPerLayer[] = {
    {"serving.queue_us.p50", "us"},
    {"serving.queue_us.p90", "us"},
    {"serving.batch_us.p50", "us"},
    {"serving.batch_us.p90", "us"},
    {"serving.handoff_us.p50", "us"},
    {"serving.cache_path_us.p50", "us"},
    {"serving.batch_size.mean", "count"},
    {"serving.cache_hit_ratio", "ratio"},
    {"serving.cache_hits", "count"},
    {"serving.cache_misses", "count"},
    {"serving.cache_evictions", "count"},
    {"serving.normalize_us.p50", "us"},
    {"serving.degraded", "count"},
    {"models.predict_calls", "count"},
    {"models.predict_stmts", "count"},
    {"models.predict_us.p50", "us"},
    {"models.predict_us_per_stmt", "us"},
    {"models.fit_s", "s"},
    {"nn.train_examples_per_s", "1/s"},
    {"sql.char_tokens_us.p50", "us"},
    {"sql.parse_us.p50", "us"},
    {"workload.build_s", "s"},
    {"workload.label_us.p50", "us"},
    {"workload.label_us.p90", "us"},
    {"engine.catalog_build_s", "s"},
    {"engine.cost_units", "count"},
    {"core.build_task_s", "s"},
    {"core.evaluate_s", "s"},
    {"storage.load_s", "s"},
    {"storage.load_rows_per_s", "1/s"},
    {"storage.wal_syncs", "count"},
    {"storage.wal_sync_requests", "count"},
    {"storage.wal_syncs_coalesced", "count"},
    {"storage.wal_checkpoints", "count"},
    {"storage.write_bytes_per_row", "B"},
    {"storage.pool_hit_ratio", "ratio"},
    {"storage.pool_hits", "count"},
    {"storage.pool_misses", "count"},
    {"storage.pages_read", "count"},
    {"storage.pool_evictions", "count"},
    {"storage.disk_vs_mem_label", "ratio"},
    {"storage.reopen_s", "s"},
    {"ledger.stage_residual_share", "ratio"},
    {"ledger.trace_overhead", "ratio"},
};

using Values = std::map<std::string, double>;

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Values end_to_end;
  Values per_layer;
};

/// The workload's set-up (everything before its first timed round),
/// timed several times across a run: kSetupRepeats times before the first
/// round, then again between rounds every kSetupEvery seconds. setup_s is
/// the median, so it samples the whole run rather than its first second,
/// which the host may have spent in a slow mode. Each repetition rebuilds
/// everything it produces from the same seed.
inline constexpr int kSetupRepeats = 3;
inline constexpr double kSetupEvery = 3.0;

class SetupTimer {
 public:
  explicit SetupTimer(std::function<void()> setup)
      : setup_(std::move(setup)) {}

  /// The kSetupRepeats timings before the first round.
  void TimeUpFront() {
    for (int i = 0; i < kSetupRepeats; ++i) Time();
  }
  /// Runs the set-up once and records how long it took.
  void Time() {
    const int64_t t0 = NowNs();
    setup_();
    const int64_t t1 = NowNs();
    seconds_.push_back(static_cast<double>(t1 - t0) * 1e-9);
    last_ns_ = t1;
  }
  /// Times the set-up again when kSetupEvery seconds have passed since the
  /// last time.
  void TimeIfDue() {
    if (static_cast<double>(NowNs() - last_ns_) * 1e-9 >= kSetupEvery) Time();
  }
  double median_s() const { return Median(seconds_); }
  size_t count() const { return seconds_.size(); }

 private:
  std::function<void()> setup_;
  std::vector<double> seconds_;
  int64_t last_ns_ = 0;
};

/// Calls `round()` until `seconds` have passed since the first call, and
/// at least `min_rounds` times; before a round, lets `setup` time itself
/// again when due.
template <typename F>
void RunRounds(double seconds, int min_rounds, SetupTimer* setup, F&& round) {
  const int64_t start = NowNs();
  for (int rounds = 0; rounds < min_rounds ||
                       static_cast<double>(NowNs() - start) * 1e-9 < seconds;
       ++rounds) {
    if (rounds > 0) setup->TimeIfDue();
    round();
  }
}

/// Stores setup_s (the median set-up time) and prints it with its count
/// and what the set-up does.
void ReportSetup(const SetupTimer& setup, const char* what, Values* out);

/// Per-round end-to-end figures; a run reports their quiet quantile.
struct RoundFigures {
  double wall_s = 0.0;
  double throughput_per_s = 0.0;
  Percentiles latency_us;
};

/// Fills wall_s / throughput_per_s / p50_us / p90_us with the quiet
/// quantile over `rounds` and prints them, the medians over rounds and the
/// sample counts under `label`.
void ReportRounds(const std::string& label,
                  const std::vector<RoundFigures>& rounds, Values* out);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Prints "name=value" per entry, full precision.
void PrintValues(const Values& values);

/// Writes the traced run's spans to options.trace_out (no-op when empty).
void WriteTrace(const Options& options, const Trace& trace);

/// Prints the tracing overhead (traced vs untraced median wall_s) and
/// stores it as ledger.trace_overhead.
void ReportOverhead(const Values& untraced, const Values& traced,
                    Values* per_layer);

/// Time each call of `fn(i)` for i in [0, n); returns microseconds.
template <typename F>
std::vector<double> TimeEach(size_t n, F&& fn) {
  std::vector<double> us(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t t0 = NowNs();
    fn(i);
    us[i] = static_cast<double>(NowNs() - t0) * 1e-3;
  }
  return us;
}

Result RunServeSession(const Options& options);
Result RunPipeline(const Options& options);
Result RunLabelDisk(const Options& options);

}  // namespace perfbench

#endif  // SQLFACIL_PERFBENCH_BENCH_H_
