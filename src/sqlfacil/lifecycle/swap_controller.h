#ifndef SQLFACIL_LIFECYCLE_SWAP_CONTROLLER_H_
#define SQLFACIL_LIFECYCLE_SWAP_CONTROLLER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

#include "sqlfacil/lifecycle/model_registry.h"
#include "sqlfacil/models/model.h"
#include "sqlfacil/util/status.h"

namespace sqlfacil::lifecycle {

/// Shadow scorer + auto-rollback controller (ISSUE 10 tentpole, part 3).
///
/// State machine:
///
///   kIdle --SubmitCandidate--> kShadowing
///   kShadowing: each live sample is scored by BOTH incumbent and
///     candidate; the candidate's predictions are discarded (never
///     served). After `shadow_window` samples the gate compares accuracy
///     and mean latency:
///       - mode=shadow: verdict recorded, nothing published -> kIdle
///       - mode=auto, gate FAIL: candidate rejected            -> kIdle
///       - mode=auto, gate PASS: candidate published           -> kWatching
///   kWatching: the next `watch_window` live samples score the (new)
///     incumbent; if live accuracy drops more than `rollback_delta`
///     below the pre-swap baseline the controller rolls the registry
///     back to the previous generation                          -> kIdle
///
/// Knobs: Options::mode (off|shadow|auto), shadow_window and
/// rollback_delta, set by the caller. A candidate that throws
/// during shadow scoring — or whose scoring is failed by the
/// `lifecycle.shadow_score` failpoint — counts those samples as wrong, so
/// a broken candidate cannot pass the gate. A rollback whose publish is
/// failed by `lifecycle.swap` stays pending and retries on the next
/// sample until it lands.
///
/// All entry points are mutex-serialized; the registry publish inside is
/// atomic for readers, so serving threads are never blocked by any of it.
class SwapController {
 public:
  enum class Mode { kOff = 0, kShadow = 1, kAuto = 2 };
  enum class State { kIdle = 0, kShadowing = 1, kWatching = 2 };

  /// What this Observe call concluded (kNone for ordinary samples).
  enum class Event {
    kNone = 0,
    kShadowPass,   ///< gate passed in shadow mode (recorded only)
    kShadowFail,   ///< gate failed in shadow mode (recorded only)
    kPromoted,     ///< gate passed in auto mode; candidate published
    kRejected,     ///< gate failed in auto mode; candidate dropped
    kRolledBack,   ///< live regression detected; previous generation restored
    kWatchPassed,  ///< watch window completed without regression
  };

  struct Options {
    Mode mode = Mode::kOff;
    int shadow_window = 64;
    int watch_window = 0;  ///< 0 -> same as shadow_window
    double rollback_delta = 0.02;
    /// Gate also fails when the candidate's mean scoring latency exceeds
    /// the incumbent's by more than this factor.
    double max_latency_ratio = 5.0;
  };

  /// Outcome of the most recent completed shadow window.
  struct Verdict {
    bool evaluated = false;
    bool passed = false;
    double candidate_accuracy = 0.0;
    double incumbent_accuracy = 0.0;
    double candidate_mean_us = 0.0;
    double incumbent_mean_us = 0.0;
    uint64_t candidate_failures = 0;  ///< throws + failpoint-failed scores
    std::string reason;
  };

  struct Stats {
    State state = State::kIdle;
    uint64_t samples = 0;
    uint64_t submitted = 0;
    uint64_t promoted = 0;   ///< gate-passed publishes (auto mode)
    uint64_t rejected = 0;   ///< gate failures in auto mode
    uint64_t shadow_verdicts = 0;
    uint64_t rollbacks = 0;
    uint64_t publish_failures = 0;  ///< lifecycle.swap-failed publishes
    uint64_t forced = 0;     ///< ForcePromote publishes (chaos hook)
    double incumbent_rolling_accuracy = 0.0;
    double watch_baseline_accuracy = 0.0;
    Verdict last_verdict;
  };

  SwapController(ModelRegistry* registry, const Options& options);

  /// Starts shadowing `candidate`. Rejected with kInvalidArgument when the
  /// lifecycle is off, the candidate is null, or a shadow run is already
  /// in flight (one candidate at a time; Quiesce or let it finish).
  Status SubmitCandidate(std::shared_ptr<const models::Model> candidate,
                         std::string note);

  /// Feeds one live labeled sample through the state machine. Scores the
  /// incumbent always (rolling baseline), the candidate while shadowing,
  /// and the watch window after a promotion. Returns the lifecycle event
  /// this sample triggered, if any.
  Event Observe(const std::string& statement, double opt_cost, int label);

  /// Chaos/ops hook: publishes `candidate` immediately, BYPASSING the
  /// shadow gate, but still arming the post-promotion watch in auto mode —
  /// this is how the chaos driver proves auto-rollback fires on a live
  /// regression. Drops any in-flight shadow run.
  Status ForcePromote(std::shared_ptr<const models::Model> candidate,
                      std::string note);

  /// Drain hook: abandons any in-flight shadow run and resolves nothing
  /// else. Because every publish happens inside the same mutex, returning
  /// from Quiesce guarantees no swap is mid-flight — there is no
  /// half-published generation to leak at shutdown.
  void Quiesce();

  State state() const;
  Stats GetStats() const;
  const ModelRegistry* registry() const { return registry_; }

 private:
  /// Argmax(prediction) == label, with throws counted as wrong.
  bool ScoreIncumbent(const std::string& statement, double opt_cost,
                      int label, double* elapsed_us);
  Event EvaluateGateLocked();
  Event EvaluateWatchLocked();
  void ArmWatchLocked();
  void PushIncumbentSample(bool correct);
  double IncumbentRollingAccuracyLocked() const;

  ModelRegistry* registry_;
  Options options_;

  mutable std::mutex mu_;
  State state_ = State::kIdle;

  // Shadow run.
  std::shared_ptr<const models::Model> candidate_;
  std::string candidate_note_;
  int shadow_seen_ = 0;
  int shadow_candidate_correct_ = 0;
  int shadow_incumbent_correct_ = 0;
  double shadow_candidate_us_ = 0.0;
  double shadow_incumbent_us_ = 0.0;
  uint64_t shadow_failures_ = 0;

  // Post-promotion watch.
  int watch_seen_ = 0;
  int watch_correct_ = 0;
  double watch_baseline_ = 0.0;
  bool rollback_pending_ = false;

  // Rolling incumbent accuracy (baseline source), newest last.
  std::deque<bool> incumbent_window_;
  size_t incumbent_window_correct_ = 0;

  // Counters.
  uint64_t samples_ = 0;
  uint64_t submitted_ = 0;
  uint64_t promoted_ = 0;
  uint64_t rejected_ = 0;
  uint64_t shadow_verdicts_ = 0;
  uint64_t rollbacks_ = 0;
  uint64_t publish_failures_ = 0;
  uint64_t forced_ = 0;
  Verdict last_verdict_;
};

const char* ToString(SwapController::Event event);
const char* ToString(SwapController::State state);

}  // namespace sqlfacil::lifecycle

#endif  // SQLFACIL_LIFECYCLE_SWAP_CONTROLLER_H_
