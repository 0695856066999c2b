#include "sqlfacil/lifecycle/swap_controller.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>
#include <vector>

#include "sqlfacil/util/failpoint.h"
#include "sqlfacil/util/logging.h"

namespace sqlfacil::lifecycle {

namespace {

int ArgMax(const std::vector<float>& probs) {
  if (probs.empty()) return -1;
  return static_cast<int>(
      std::max_element(probs.begin(), probs.end()) - probs.begin());
}

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SwapController::SwapController(ModelRegistry* registry, const Options& options)
    : registry_(registry), options_(options) {
  SQLFACIL_CHECK(registry_ != nullptr);
  if (options_.shadow_window < 1) options_.shadow_window = 1;
  if (options_.watch_window < 1) options_.watch_window = options_.shadow_window;
  if (options_.rollback_delta < 0.0) options_.rollback_delta = 0.0;
  if (options_.max_latency_ratio < 1.0) options_.max_latency_ratio = 1.0;
}

Status SwapController::SubmitCandidate(
    std::shared_ptr<const models::Model> candidate, std::string note) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.mode == Mode::kOff) {
    return Status::InvalidArgument(
        "lifecycle is off (Options::mode = kOff); candidate rejected");
  }
  if (candidate == nullptr) {
    return Status::InvalidArgument("cannot shadow a null candidate");
  }
  if (state_ != State::kIdle) {
    return Status::ResourceExhausted(
        "a lifecycle run is already in flight; one candidate at a time");
  }
  candidate_ = std::move(candidate);
  candidate_note_ = std::move(note);
  shadow_seen_ = 0;
  shadow_candidate_correct_ = 0;
  shadow_incumbent_correct_ = 0;
  shadow_candidate_us_ = 0.0;
  shadow_incumbent_us_ = 0.0;
  shadow_failures_ = 0;
  state_ = State::kShadowing;
  ++submitted_;
  return Status::Ok();
}

bool SwapController::ScoreIncumbent(const std::string& statement,
                                    double opt_cost, int label,
                                    double* elapsed_us) {
  const VersionPtr version = registry_->Current();
  if (version == nullptr || version->model == nullptr) {
    *elapsed_us = 0.0;
    return false;  // nothing published yet: no incumbent signal
  }
  const double start = NowUs();
  bool correct = false;
  try {
    correct = ArgMax(version->model->Predict(statement, opt_cost)) == label;
  } catch (const std::exception&) {
    correct = false;  // a failing incumbent scores as wrong, never crashes us
  }
  *elapsed_us = NowUs() - start;
  return correct;
}

void SwapController::PushIncumbentSample(bool correct) {
  const size_t cap = static_cast<size_t>(
      std::max(options_.shadow_window, options_.watch_window));
  incumbent_window_.push_back(correct);
  if (correct) ++incumbent_window_correct_;
  while (incumbent_window_.size() > cap) {
    if (incumbent_window_.front()) --incumbent_window_correct_;
    incumbent_window_.pop_front();
  }
}

double SwapController::IncumbentRollingAccuracyLocked() const {
  if (incumbent_window_.empty()) return 0.0;
  return static_cast<double>(incumbent_window_correct_) /
         static_cast<double>(incumbent_window_.size());
}

void SwapController::ArmWatchLocked() {
  watch_baseline_ = IncumbentRollingAccuracyLocked();
  watch_seen_ = 0;
  watch_correct_ = 0;
  rollback_pending_ = false;
  state_ = State::kWatching;
}

SwapController::Event SwapController::EvaluateGateLocked() {
  const double n = static_cast<double>(options_.shadow_window);
  Verdict v;
  v.evaluated = true;
  v.candidate_accuracy = shadow_candidate_correct_ / n;
  v.incumbent_accuracy = shadow_incumbent_correct_ / n;
  v.candidate_mean_us = shadow_candidate_us_ / n;
  v.incumbent_mean_us = shadow_incumbent_us_ / n;
  v.candidate_failures = shadow_failures_;
  const bool accuracy_ok = v.candidate_accuracy + 1e-12 >=
                           v.incumbent_accuracy - options_.rollback_delta;
  const bool latency_ok =
      v.incumbent_mean_us <= 0.0 ||
      v.candidate_mean_us <=
          v.incumbent_mean_us * options_.max_latency_ratio;
  v.passed = accuracy_ok && latency_ok;
  if (!accuracy_ok) {
    v.reason = "accuracy regression beyond rollback_delta";
  } else if (!latency_ok) {
    v.reason = "latency regression beyond max_latency_ratio";
  } else {
    v.reason = "gate passed";
  }
  ++shadow_verdicts_;

  std::shared_ptr<const models::Model> candidate = std::move(candidate_);
  std::string note = std::move(candidate_note_);
  candidate_.reset();
  state_ = State::kIdle;

  Event event;
  if (options_.mode == Mode::kShadow) {
    event = v.passed ? Event::kShadowPass : Event::kShadowFail;
  } else if (!v.passed) {
    ++rejected_;
    event = Event::kRejected;
  } else {
    // Baseline BEFORE the swap: the watch compares the new generation's
    // live accuracy to what the old one was delivering.
    const double baseline = IncumbentRollingAccuracyLocked();
    StatusOr<uint64_t> published =
        registry_->Publish(std::move(candidate), std::move(note));
    if (!published.ok()) {
      ++publish_failures_;
      v.passed = false;
      v.reason = "publish failed: " + published.status().message();
      event = Event::kRejected;
    } else {
      ++promoted_;
      ArmWatchLocked();
      watch_baseline_ = baseline;
      event = Event::kPromoted;
    }
  }
  last_verdict_ = std::move(v);
  return event;
}

SwapController::Event SwapController::EvaluateWatchLocked() {
  const double live = static_cast<double>(watch_correct_) /
                      static_cast<double>(options_.watch_window);
  if (live + 1e-12 < watch_baseline_ - options_.rollback_delta) {
    rollback_pending_ = true;
    StatusOr<uint64_t> rolled = registry_->Rollback(
        "auto-rollback: live accuracy " + std::to_string(live) +
        " fell below baseline " + std::to_string(watch_baseline_));
    if (!rolled.ok()) {
      ++publish_failures_;
      // Stay in kWatching with the flag set: the next Observe retries the
      // rollback until it lands (a lifecycle.swap failpoint storm delays
      // the rollback, it never loses it).
      watch_seen_ = 0;
      watch_correct_ = 0;
      return Event::kNone;
    }
    rollback_pending_ = false;
    ++rollbacks_;
    state_ = State::kIdle;
    return Event::kRolledBack;
  }
  state_ = State::kIdle;
  return Event::kWatchPassed;
}

SwapController::Event SwapController::Observe(const std::string& statement,
                                              double opt_cost, int label) {
  std::lock_guard<std::mutex> lock(mu_);
  ++samples_;

  if (rollback_pending_) {
    StatusOr<uint64_t> rolled = registry_->Rollback("auto-rollback (retry)");
    if (rolled.ok()) {
      rollback_pending_ = false;
      ++rollbacks_;
      state_ = State::kIdle;
      return Event::kRolledBack;
    }
    ++publish_failures_;
  }

  double incumbent_us = 0.0;
  const bool incumbent_correct =
      ScoreIncumbent(statement, opt_cost, label, &incumbent_us);
  PushIncumbentSample(incumbent_correct);

  if (state_ == State::kShadowing) {
    bool candidate_correct = false;
    double candidate_us = 0.0;
    switch (failpoint::Eval("lifecycle.shadow_score")) {
      case failpoint::Mode::kError:
      case failpoint::Mode::kThrow:
        // Injected scoring failure: the sample counts as WRONG for the
        // candidate, so a failpoint storm makes the gate reject it — the
        // safe direction.
        ++shadow_failures_;
        break;
      default: {
        const double start = NowUs();
        try {
          candidate_correct =
              ArgMax(candidate_->Predict(statement, opt_cost)) == label;
        } catch (const std::exception&) {
          ++shadow_failures_;
          candidate_correct = false;
        }
        candidate_us = NowUs() - start;
        break;
      }
    }
    ++shadow_seen_;
    shadow_candidate_correct_ += candidate_correct ? 1 : 0;
    shadow_incumbent_correct_ += incumbent_correct ? 1 : 0;
    shadow_candidate_us_ += candidate_us;
    shadow_incumbent_us_ += incumbent_us;
    if (shadow_seen_ >= options_.shadow_window) return EvaluateGateLocked();
    return Event::kNone;
  }

  if (state_ == State::kWatching) {
    ++watch_seen_;
    watch_correct_ += incumbent_correct ? 1 : 0;
    if (watch_seen_ >= options_.watch_window) return EvaluateWatchLocked();
    return Event::kNone;
  }

  return Event::kNone;
}

Status SwapController::ForcePromote(
    std::shared_ptr<const models::Model> candidate, std::string note) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.mode == Mode::kOff) {
    return Status::InvalidArgument("lifecycle is off; ForcePromote rejected");
  }
  if (candidate == nullptr) {
    return Status::InvalidArgument("cannot promote a null candidate");
  }
  candidate_.reset();  // drop any in-flight shadow run
  const double baseline = IncumbentRollingAccuracyLocked();
  StatusOr<uint64_t> published =
      registry_->Publish(std::move(candidate), std::move(note));
  if (!published.ok()) {
    ++publish_failures_;
    state_ = State::kIdle;
    return published.status();
  }
  ++forced_;
  if (options_.mode == Mode::kAuto) {
    ArmWatchLocked();
    watch_baseline_ = baseline;
  } else {
    state_ = State::kIdle;
  }
  return Status::Ok();
}

void SwapController::Quiesce() {
  std::lock_guard<std::mutex> lock(mu_);
  // Holding mu_ proves no Publish/Rollback is mid-flight (they all run
  // under this mutex): the registry is either pre- or post-swap, never
  // between. An in-flight shadow run is abandoned.
  candidate_.reset();
  candidate_note_.clear();
  rollback_pending_ = false;
  state_ = State::kIdle;
}

SwapController::State SwapController::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

SwapController::Stats SwapController::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.state = state_;
  s.samples = samples_;
  s.submitted = submitted_;
  s.promoted = promoted_;
  s.rejected = rejected_;
  s.shadow_verdicts = shadow_verdicts_;
  s.rollbacks = rollbacks_;
  s.publish_failures = publish_failures_;
  s.forced = forced_;
  s.incumbent_rolling_accuracy = IncumbentRollingAccuracyLocked();
  s.watch_baseline_accuracy = watch_baseline_;
  s.last_verdict = last_verdict_;
  return s;
}

const char* ToString(SwapController::Event event) {
  switch (event) {
    case SwapController::Event::kNone: return "none";
    case SwapController::Event::kShadowPass: return "shadow_pass";
    case SwapController::Event::kShadowFail: return "shadow_fail";
    case SwapController::Event::kPromoted: return "promoted";
    case SwapController::Event::kRejected: return "rejected";
    case SwapController::Event::kRolledBack: return "rolled_back";
    case SwapController::Event::kWatchPassed: return "watch_passed";
  }
  return "unknown";
}

const char* ToString(SwapController::State state) {
  switch (state) {
    case SwapController::State::kIdle: return "idle";
    case SwapController::State::kShadowing: return "shadowing";
    case SwapController::State::kWatching: return "watching";
  }
  return "unknown";
}

}  // namespace sqlfacil::lifecycle
