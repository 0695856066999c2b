#include "sqlfacil/serving/resilient_model.h"

#include <chrono>
#include <cstring>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "sqlfacil/nn/quant.h"
#include "sqlfacil/util/failpoint.h"
#include "sqlfacil/util/logging.h"

namespace sqlfacil::serving {

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kPrimary:
      return "primary";
    case Tier::kStaleCache:
      return "stale_cache";
    case Tier::kBaseline:
      return "baseline";
    case Tier::kFailed:
      return "failed";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(int failure_threshold, int cooldown_requests)
    : failure_threshold_(failure_threshold),
      cooldown_requests_(cooldown_requests) {
  SQLFACIL_CHECK(failure_threshold_ >= 1);
  SQLFACIL_CHECK(cooldown_requests_ >= 0);
}

void CircuitBreaker::SetState(State next) {
  if (state_ == next) return;
  switch (next) {
    case State::kOpen:
      ++transitions_.opens;
      break;
    case State::kHalfOpen:
      ++transitions_.half_opens;
      break;
    case State::kClosed:
      ++transitions_.closes;
      break;
  }
  state_ = next;
}

bool CircuitBreaker::AllowRequest() {
  switch (state_) {
    case State::kClosed:
    case State::kHalfOpen:
      return true;
    case State::kOpen:
      // Call-counted cool-down: the first `cooldown_requests_` requests are
      // rejected, the one after becomes the half-open probe.
      if (++rejected_in_open_ > cooldown_requests_) {
        SetState(State::kHalfOpen);
        return true;
      }
      return false;
  }
  return true;
}

void CircuitBreaker::RecordSuccess() {
  SetState(State::kClosed);
  consecutive_failures_ = 0;
  rejected_in_open_ = 0;
}

void CircuitBreaker::RecordFailure() {
  ++consecutive_failures_;
  if (state_ == State::kHalfOpen ||
      consecutive_failures_ >= failure_threshold_) {
    SetState(State::kOpen);
    rejected_in_open_ = 0;
  }
}

namespace {

/// Prediction-cache entries per shard.
constexpr size_t kCacheCapacity = 1 << 16;
/// Miss index of a slot the cache answered.
constexpr size_t kHit = static_cast<size_t>(-1);

/// Cache keys of a batch under one pinned generation and the active
/// precision tier: (generation, tier, opt-cost bits, normalized statement).
/// opt_cost keys by exact bit pattern: only the opt baseline reads it, but
/// merging two calls that differ in it would be wrong for that model.
std::vector<std::string> CacheKeys(uint64_t generation,
                                   std::span<const std::string> statements,
                                   std::span<const double> opt_costs) {
  std::string prefix = std::to_string(generation);
  prefix.push_back('\x1f');
  prefix += nn::quant::PrecisionName(nn::quant::ActivePrecision());
  prefix.push_back('\x1f');
  std::vector<std::string> keys(statements.size());
  for (size_t i = 0; i < statements.size(); ++i) {
    const double cost = opt_costs.empty() ? 0.0 : opt_costs[i];
    uint64_t cost_bits = 0;
    static_assert(sizeof(cost_bits) == sizeof(cost));
    std::memcpy(&cost_bits, &cost, sizeof(cost_bits));
    keys[i] = prefix;
    keys[i] += std::to_string(cost_bits);
    keys[i].push_back('\x1f');
    keys[i] += NormalizeStatement(statements[i]);
  }
  return keys;
}

}  // namespace

ResilientModel::ResilientModel(models::ModelPtr primary,
                               models::ModelPtr baseline,
                               ResilientOptions options)
    : baseline_(std::move(baseline)),
      options_(options),
      cache_(kCacheCapacity),
      breaker_(options.breaker_failure_threshold,
               options.breaker_cooldown_requests) {
  SQLFACIL_CHECK(baseline_ != nullptr);
  if (primary != nullptr) {
    // Never published: the lifecycle.swap failpoint and the registry's
    // counters do not see a plain model.
    fixed_ = std::make_shared<const lifecycle::ModelVersion>(
        lifecycle::ModelVersion{.generation = 1,
                                .source_generation = 1,
                                .model = std::move(primary),
                                .note = "fixed"});
  }
}

ResilientModel::ResilientModel(const lifecycle::ModelRegistry* registry,
                               models::ModelPtr baseline,
                               ResilientOptions options)
    : ResilientModel(models::ModelPtr(), std::move(baseline), options) {
  registry_ = registry;
}

bool ResilientModel::ServePrimary(const models::Model& model,
                                  const std::vector<std::string>& keys,
                                  std::span<const std::string> statements,
                                  std::span<const double> opt_costs,
                                  ServedBatch* batch) const {
  const size_t n = statements.size();
  std::vector<std::vector<float>> preds(n);
  // Dedup the misses so each distinct key costs one inference even when
  // the batch repeats statements; first_slot[m] holds miss m's key.
  std::unordered_map<std::string_view, size_t> miss_of_key;
  std::vector<size_t> miss_of(n, kHit);
  std::vector<size_t> first_slot;
  std::vector<std::string> miss_statements;
  std::vector<double> miss_costs;
  try {
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < n; ++i) {
      if (auto hit = cache_.Get(keys[i])) {
        preds[i] = std::move(*hit);
        continue;
      }
      auto [it, inserted] = miss_of_key.emplace(keys[i], first_slot.size());
      if (inserted) {
        first_slot.push_back(i);
        miss_statements.push_back(statements[i]);
        miss_costs.push_back(opt_costs.empty() ? 0.0 : opt_costs[i]);
      }
      miss_of[i] = it->second;
    }
    std::vector<std::vector<float>> miss_preds;
    if (!miss_statements.empty()) {
      miss_preds = model.PredictBatch(miss_statements, miss_costs);
    }
    const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
    if (options_.batch_deadline_ms > 0.0 &&
        elapsed_ms > options_.batch_deadline_ms) {
      // Late primary results are discarded — a caller with a deadline has
      // already moved on, so serving them would be a lie about latency —
      // and never cached, so the stale tier cannot pass them off as the
      // answer of an earlier, successful call.
      batch->deadline_exceeded = true;
      return false;
    }
    for (size_t i = 0; i < n; ++i) {
      if (miss_of[i] != kHit) preds[i] = miss_preds[miss_of[i]];
    }
    for (size_t m = 0; m < miss_preds.size(); ++m) {
      cache_.Put(keys[first_slot[m]], std::move(miss_preds[m]));
    }
  } catch (...) {
    // Primary inference failed (model bug, failpoint, broken cache
    // backend). The caller degrades.
    return false;
  }
  batch->predictions = std::move(preds);
  batch->provenance.assign(n, Tier::kPrimary);
  return true;
}

void ResilientModel::ServeFallback(const std::vector<std::string>& keys,
                                   std::span<const std::string> statements,
                                   std::span<const double> opt_costs,
                                   ServedBatch* batch) const {
  for (size_t i = 0; i < statements.size(); ++i) {
    if (batch->provenance[i] != Tier::kFailed) continue;
    // Tier 2: the pinned generation's entry from an earlier successful
    // primary batch (no keys without a version). The cache itself may be
    // failing (cache.get failpoint) — a throw here just skips the tier.
    if (!keys.empty()) {
      try {
        if (auto hit = cache_.Get(keys[i])) {
          batch->predictions[i] = std::move(*hit);
          batch->provenance[i] = Tier::kStaleCache;
          continue;
        }
      } catch (...) {
        // Cache unavailable; fall through to the baseline.
      }
    }
    // Tier 3: the always-cheap baseline.
    try {
      failpoint::MaybeFail("baseline.predict");
      batch->predictions[i] = baseline_->Predict(
          statements[i], opt_costs.empty() ? 0.0 : opt_costs[i]);
      batch->provenance[i] = Tier::kBaseline;
    } catch (...) {
      // Tier 4: nothing left; the slot stays empty and kFailed.
    }
  }
}

ServedBatch ResilientModel::PredictBatch(
    std::span<const std::string> statements,
    std::span<const double> opt_costs) const {
  SQLFACIL_CHECK(opt_costs.empty() || opt_costs.size() == statements.size())
      << "PredictBatch opt_costs size mismatch";
  const size_t n = statements.size();
  ServedBatch batch;
  batch.predictions.resize(n);
  batch.provenance.assign(n, Tier::kFailed);
  if (n == 0) return batch;

  // One pin per batch: every slot is answered and keyed by this version,
  // however many publishes land while the batch runs.
  const lifecycle::VersionPtr version =
      registry_ != nullptr ? registry_->Current() : fixed_;
  std::vector<std::string> keys;
  bool try_primary = false;
  if (version != nullptr) {
    keys = CacheKeys(version->generation, statements, opt_costs);
    std::lock_guard<std::mutex> lock(mu_);
    try_primary = breaker_.AllowRequest();
  }
  if (try_primary) {
    const bool ok =
        ServePrimary(*version->model, keys, statements, opt_costs, &batch);
    std::lock_guard<std::mutex> lock(mu_);
    if (ok) {
      breaker_.RecordSuccess();
    } else {
      breaker_.RecordFailure();
    }
  }

  if (batch.provenance[0] != Tier::kPrimary) {
    ServeFallback(keys, statements, opt_costs, &batch);
  }

  size_t failed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Tier t : batch.provenance) {
      switch (t) {
        case Tier::kPrimary:
          ++counts_.primary;
          break;
        case Tier::kStaleCache:
          ++counts_.stale_cache;
          break;
        case Tier::kBaseline:
          ++counts_.baseline;
          break;
        case Tier::kFailed:
          ++counts_.failed;
          ++failed;
          break;
      }
    }
  }
  if (failed > 0) {
    const std::string msg =
        "all serving tiers failed for " + std::to_string(failed) + " of " +
        std::to_string(n) + " queries";
    batch.status = batch.deadline_exceeded ? Status::DeadlineExceeded(msg)
                                           : Status::Internal(msg);
  }
  return batch;
}

CircuitBreaker::State ResilientModel::breaker_state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return breaker_.state();
}

CircuitBreaker::Transitions ResilientModel::breaker_transitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return breaker_.transitions();
}

ResilientModel::TierCounts ResilientModel::tier_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

}  // namespace sqlfacil::serving
