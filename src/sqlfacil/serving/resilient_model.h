#ifndef SQLFACIL_SERVING_RESILIENT_MODEL_H_
#define SQLFACIL_SERVING_RESILIENT_MODEL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "sqlfacil/lifecycle/model_registry.h"
#include "sqlfacil/models/model.h"
#include "sqlfacil/serving/prediction_cache.h"
#include "sqlfacil/util/status.h"

namespace sqlfacil::serving {

/// Provenance of a served prediction, ordered from best to worst.
enum class Tier {
  kPrimary,     ///< fresh inference from the primary (learned) model
  kStaleCache,  ///< cache entry from an earlier successful primary call
  kBaseline,    ///< mfreq/median-style baseline answer
  kFailed,      ///< every tier failed; the prediction slot is empty
};

const char* TierName(Tier tier);

/// Consecutive-failure circuit breaker with a *call-counted* cool-down so
/// behaviour is deterministic (no wall-clock timers): after
/// `failure_threshold` consecutive failures the breaker opens; the next
/// `cooldown_requests` requests are rejected outright; the request after
/// that is a half-open probe. A probe success closes the breaker, a probe
/// failure re-opens it for another full cool-down.
///
/// Not internally synchronized — callers (ResilientModel) serialize access.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  CircuitBreaker(int failure_threshold, int cooldown_requests);

  /// True when the caller should attempt the primary. Open-state calls count
  /// toward the cool-down and flip the breaker to half-open once it elapses.
  bool AllowRequest();
  void RecordSuccess();
  void RecordFailure();

  State state() const { return state_; }
  int consecutive_failures() const { return consecutive_failures_; }

  /// Cumulative state transitions (monotonic; serve_bench --json reports
  /// them so soaks can assert the breaker actually cycled).
  struct Transitions {
    uint64_t opens = 0;       ///< closed/half-open -> open
    uint64_t half_opens = 0;  ///< open -> half-open (probe admitted)
    uint64_t closes = 0;      ///< half-open/open -> closed (probe success)
  };
  const Transitions& transitions() const { return transitions_; }

 private:
  void SetState(State next);

  const int failure_threshold_;
  const int cooldown_requests_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int rejected_in_open_ = 0;
  Transitions transitions_;
};

struct ResilientOptions {
  int breaker_failure_threshold = 3;
  int breaker_cooldown_requests = 4;
  /// Per-batch deadline for the primary tier, in milliseconds. A primary
  /// batch that completes but overruns the deadline is *discarded* (its
  /// results neither reach the caller nor the cache) and counts as a
  /// breaker failure. 0 disables the deadline (the default: wall-clock
  /// deadlines are inherently nondeterministic, so determinism sweeps leave
  /// this off).
  double batch_deadline_ms = 0.0;
};

/// One served batch: predictions plus per-query provenance. `status` is OK
/// whenever every query got *some* answer (possibly degraded); it is a typed
/// error (kDeadlineExceeded / kInternal) when at least one slot is kFailed.
struct ServedBatch {
  std::vector<std::vector<float>> predictions;
  std::vector<Tier> provenance;
  Status status = Status::Ok();
  bool deadline_exceeded = false;
};

/// A serving shard's whole chain over immutable model versions:
///
///   cached primary  ->  stale cache entry  ->  baseline  ->  failed
///
/// Each PredictBatch pins one lifecycle::ModelVersion (the registry's
/// Current(), or the fixed version of a shard built from a plain model) and
/// looks every statement up in the shard's prediction cache under
/// (pinned generation, precision tier, opt-cost bits, normalized
/// statement). The distinct misses go through the pinned version's
/// PredictBatch in one call and are cached under the same keys — only
/// after the batch met its deadline. A cached value is therefore always
/// the answer of the generation its key names: a hot swap needs no clear
/// and no epoch re-check, and entries of older generations are never
/// looked up again and age out of the LRU. The paper's workloads repeat
/// heavily (fig20_repetition), and a hit is bit-identical to a cold miss
/// because the cached vector IS the miss's answer and normalization is
/// semantics-preserving (see NormalizeStatement).
///
/// When the primary throws (or the breaker is open, or the batch deadline
/// is exceeded) earlier answers of the pinned generation are served from
/// the cache, and cache misses fall back to an always-available baseline
/// (mfreq for classification, median for regression). Every response is
/// tagged with its tier so callers can observe degradation.
///
/// Determinism: with a fixed failpoint configuration and deadline disabled,
/// the tier chosen per query and the bits of every prediction are identical
/// across SQLFACIL_THREADS x SQLFACIL_SIMD settings — the breaker cool-down
/// is call-counted, not timed.
class ResilientModel {
 public:
  /// Serves `primary` (already trained or loaded) as a fixed generation-1
  /// version. `primary` may be null: serving then starts degraded (baseline
  /// tier), which is exactly the posture after a failed checkpoint load.
  /// `baseline` must be non-null, trained, and cheap enough to never fail.
  ResilientModel(models::ModelPtr primary, models::ModelPtr baseline,
                 ResilientOptions options = {});

  /// Serves whatever `registry` publishes; an empty (or null) registry
  /// serves the baseline tier. The registry must outlive this model.
  ResilientModel(const lifecycle::ModelRegistry* registry,
                 models::ModelPtr baseline, ResilientOptions options = {});

  /// Serves a batch through the degradation chain. Never throws and never
  /// aborts: failures surface as lower-tier provenance or a typed status.
  ServedBatch PredictBatch(std::span<const std::string> statements,
                           std::span<const double> opt_costs = {}) const;

  CircuitBreaker::State breaker_state() const;
  CircuitBreaker::Transitions breaker_transitions() const;
  PredictionCache::Stats cache_stats() const { return cache_.GetStats(); }

  /// Cumulative per-tier response counts (monotonic; for tests/telemetry).
  struct TierCounts {
    size_t primary = 0;
    size_t stale_cache = 0;
    size_t baseline = 0;
    size_t failed = 0;
  };
  TierCounts tier_counts() const;

 private:
  /// Serves `batch` from the primary tier: cache hits under `keys` plus one
  /// `model.PredictBatch` over the distinct misses, which are then cached.
  /// Returns false, leaving `batch`'s slots and the cache untouched, when
  /// the call throws or overruns the batch deadline.
  bool ServePrimary(const models::Model& model,
                    const std::vector<std::string>& keys,
                    std::span<const std::string> statements,
                    std::span<const double> opt_costs,
                    ServedBatch* batch) const;
  /// Answers every kFailed slot from the stale cache (under `keys`; none
  /// when empty) or the baseline.
  void ServeFallback(const std::vector<std::string>& keys,
                     std::span<const std::string> statements,
                     std::span<const double> opt_costs,
                     ServedBatch* batch) const;

  const lifecycle::ModelRegistry* registry_ = nullptr;
  lifecycle::VersionPtr fixed_;  ///< plain-model shards; null = none
  models::ModelPtr baseline_;
  ResilientOptions options_;
  mutable PredictionCache cache_;

  mutable std::mutex mu_;
  mutable CircuitBreaker breaker_;
  mutable TierCounts counts_;
};

}  // namespace sqlfacil::serving

#endif  // SQLFACIL_SERVING_RESILIENT_MODEL_H_
