#ifndef SQLFACIL_LIFECYCLE_DRIFT_DETECTOR_H_
#define SQLFACIL_LIFECYCLE_DRIFT_DETECTOR_H_

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace sqlfacil::lifecycle {

/// Workload drift detection (ISSUE 10 tentpole, part 4).
///
/// Watches the live (statement, label) stream along two axes:
///
///  1. **Per-feature CUSUM.** Eight cheap lexical features are extracted
///     from every statement (length, token count, identifier shape, digit
///     and punctuation mix — the things a schema shift moves first). The
///     first `reference_window` samples freeze a per-feature mean/variance
///     reference (Welford); afterwards each sample's standardized
///     deviation feeds a two-sided CUSUM per feature
///     (S+ = max(0, S+ + z - k), S- = max(0, S- - z - k)) and any
///     accumulator crossing `cusum_threshold` raises the alarm. CUSUM
///     integrates persistent small shifts, so a schema-shifted "new user"
///     session class trips it even when single-sample z-scores look tame.
///
///  2. **Label-histogram distance.** The reference phase also freezes a
///     label histogram; afterwards a rolling window of `detect_window`
///     labels is compared to it by total-variation distance and the alarm
///     raises past `Options::tv_threshold`.
///
/// The detector is single-writer (the lifecycle loop feeds it); it holds
/// no locks. `Rearm()` clears the alarm and the CUSUM/rolling state after
/// a retrain; `RefreezeReference()` additionally re-learns the reference
/// on the post-retrain stream (the new workload IS the new normal).
class DriftDetector {
 public:
  static constexpr int kNumFeatures = 8;

  struct Options {
    int reference_window = 256;  ///< samples used to freeze the reference
    int detect_window = 128;     ///< rolling label-histogram window
    double cusum_slack = 0.5;    ///< k: per-step drift allowance (in sigmas)
    /// h: alarm level for any S+/S-. Session-mix SQL traffic is heavy-
    /// tailed (bot statements are many sigma longer than the median), so
    /// the level sits well above textbook values: 16 rides out stationary
    /// excursions of the SDSS/SQLShare mix while a persistent schema
    /// shift still alarms within ~50 samples.
    double cusum_threshold = 16.0;
    double tv_threshold = 0.25;  ///< label-histogram TV alarm level
    int num_classes = 0;         ///< label arity (0 = grow on the fly)
  };

  struct Stats {
    uint64_t samples = 0;
    uint64_t alarms = 0;          ///< total alarm raises (edges, not levels)
    bool reference_frozen = false;
    bool alarmed = false;
    double max_cusum = 0.0;       ///< hottest accumulator right now
    int max_cusum_feature = -1;   ///< which feature it belongs to
    double label_tv = 0.0;        ///< current rolling TV distance
  };

  explicit DriftDetector(const Options& options);

  /// Feeds one live sample. Returns true when this sample RAISED the alarm
  /// (false while already alarmed — callers trigger one retrain per raise).
  bool Observe(const std::string& statement, int label);

  bool alarmed() const { return alarmed_; }
  Stats GetStats() const;

  /// Clears the alarm and resets CUSUM accumulators + the rolling label
  /// window, keeping the frozen reference. Call after a retrain round.
  void Rearm();

  /// Rearm + discard the reference: the next `reference_window` samples
  /// re-learn what "normal" looks like.
  void RefreezeReference();

  /// The lexical feature vector (exposed for tests).
  static std::array<double, kNumFeatures> Featurize(
      const std::string& statement);

 private:
  void AccumulateReference(const std::array<double, kNumFeatures>& f,
                           int label);
  void FreezeReference();
  bool Detect(const std::array<double, kNumFeatures>& f, int label);

  Options options_;
  uint64_t samples_ = 0;
  uint64_t alarms_ = 0;
  bool frozen_ = false;
  bool alarmed_ = false;

  // Welford accumulators during the reference phase; mean_/stddev_ after.
  std::array<double, kNumFeatures> mean_{};
  std::array<double, kNumFeatures> m2_{};
  std::array<double, kNumFeatures> stddev_{};
  uint64_t reference_samples_ = 0;

  std::array<double, kNumFeatures> cusum_pos_{};
  std::array<double, kNumFeatures> cusum_neg_{};

  std::vector<double> reference_hist_;  // normalized label frequencies
  std::vector<uint64_t> reference_counts_;
  std::vector<uint64_t> window_counts_;
  std::deque<int> window_labels_;
  double last_tv_ = 0.0;
};

}  // namespace sqlfacil::lifecycle

#endif  // SQLFACIL_LIFECYCLE_DRIFT_DETECTOR_H_
