#ifndef SQLFACIL_SERVING_SERVER_H_
#define SQLFACIL_SERVING_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "sqlfacil/models/model.h"
#include "sqlfacil/serving/admission_queue.h"
#include "sqlfacil/serving/prediction_cache.h"
#include "sqlfacil/serving/resilient_model.h"
#include "sqlfacil/util/latency_histogram.h"
#include "sqlfacil/util/status.h"

namespace sqlfacil::serving {

/// Non-owning Model adapter: forwards every call to a borrowed model. The
/// server's shard pool uses it to share one trained parameter set across
/// shards (inference state is thread-local throughout the nn layer, so
/// concurrent Predict/PredictBatch on one model is safe) while each shard
/// keeps its *own* ResilientModel — its own prediction cache, degradation
/// chain and circuit breaker.
class ModelRef : public models::Model {
 public:
  explicit ModelRef(models::Model* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  void Fit(const models::Dataset& train, const models::Dataset& valid,
           Rng* rng) override {
    inner_->Fit(train, valid, rng);
  }
  std::vector<float> Predict(const std::string& statement,
                             double opt_cost) const override {
    return inner_->Predict(statement, opt_cost);
  }
  std::vector<std::vector<float>> PredictBatch(
      std::span<const std::string> statements,
      std::span<const double> opt_costs = {}) const override {
    return inner_->PredictBatch(statements, opt_costs);
  }
  size_t vocab_size() const override { return inner_->vocab_size(); }
  size_t num_parameters() const override { return inner_->num_parameters(); }
  Status Quantize(std::span<const std::string> calibration) override {
    return inner_->Quantize(calibration);
  }
  Status SaveTo(std::ostream& out) const override {
    return inner_->SaveTo(out);
  }
  Status LoadFrom(std::istream& in) override { return inner_->LoadFrom(in); }

 private:
  models::Model* inner_;
};

/// Server configuration.
struct ServerOptions {
  /// Worker shards. Each shard owns a batcher thread, a bounded admission
  /// queue and a ResilientModel; requests route to shards by statement hash
  /// so repeated statements land on a warm per-shard cache.
  size_t num_shards = 1;
  /// Per-shard admission queue bound; a full queue rejects with
  /// kResourceExhausted instead of blocking (load shedding at the door).
  size_t queue_depth = 1024;
  /// Largest batch flushed into PredictBatch.
  size_t max_batch = 32;
  /// How long a partial batch stays open for more requests, measured from
  /// the moment the batch's first request is popped. 0 disables coalescing:
  /// every request is served alone (the per-query baseline configuration).
  int64_t batch_window_us = 50;
  /// Default per-request deadline (admission to reply), 0 = none. A request
  /// whose deadline expires while it waits in a batch window is answered
  /// with kDeadlineExceeded and never reaches the model.
  int64_t default_deadline_us = 0;
};

/// One served reply. `status` is OK exactly when `prediction` holds a model
/// (or degraded-tier) answer; rejections and expiries carry a typed status
/// and an empty prediction.
struct ServerReply {
  Status status;
  std::vector<float> prediction;
  Tier tier = Tier::kFailed;
  /// Size of the inference batch this request was served in (0 for
  /// rejected/expired requests that never reached the model).
  size_t batch_size = 0;
  double queue_us = 0.0;  ///< admission -> batch formation
  double total_us = 0.0;  ///< admission -> reply
};

/// Production serving front end (ISSUE 7 tentpole): a multi-threaded request
/// router with
///   * bounded admission (reject-with-status when full, never block),
///   * a deadline-aware dynamic micro-batcher per shard that coalesces
///     concurrent single-query requests within `batch_window_us` (or until
///     `max_batch`) and flushes them through the model's PredictBatch fast
///     path (length-bucketed int8 LSTM, stacked-CNN slices),
///   * a per-model shard pool of ResilientModels — the degradation chain and
///     circuit breaker of PR 4 are preserved *per shard*, so one shard's
///     breaker opening does not blind the others,
///   * merged latency telemetry (log-bucketed histograms, p50/p99/p999).
///
/// Determinism contract: a reply's prediction bits equal
/// Model::Predict(statement) under the active precision tier regardless of
/// batch composition — PredictBatch guarantees per-slot bit-identity with
/// Predict, and the batcher only permutes batch membership. Turning the
/// batch window on or off therefore never changes any answer, only latency.
///
/// Callbacks run on the shard's batcher thread and must be cheap and
/// non-blocking (fulfil a promise, record a latency); heavy post-processing
/// belongs on the caller's side of the callback.
class Server {
 public:
  using ReplyCallback = std::function<void(ServerReply)>;
  /// Builds shard `i`'s ResilientModel. Shards share weights by serving
  /// one lifecycle::ModelRegistry (the registry constructor) or by wrapping
  /// one trained model in ModelRef; the ResilientModel itself (cache,
  /// breaker) must be exclusive to the shard.
  using ShardFactory =
      std::function<std::unique_ptr<ResilientModel>(size_t shard)>;

  Server(const ShardFactory& factory, ServerOptions options);
  /// Stops and drains (Shutdown) if the caller has not already.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Asynchronous submission. Returns true when the request was admitted
  /// (the callback fires later from a batcher thread); on rejection —
  /// draining server (kUnavailable) or full shard queue
  /// (kResourceExhausted) — the callback fires inline with the typed status
  /// and the return value is false. Every submitted request gets exactly
  /// one callback invocation, shutdown included. `deadline_us` < 0 uses
  /// options.default_deadline_us; 0 means no deadline.
  bool Submit(std::string statement, double opt_cost, ReplyCallback done,
              int64_t deadline_us = -1);

  /// Synchronous convenience wrapper (tests, closed-loop clients): submits
  /// and blocks for the reply.
  ServerReply Call(const std::string& statement, double opt_cost = 0.0,
                   int64_t deadline_us = -1);

  /// Graceful drain: stops admitting, serves every already-accepted request
  /// through the normal batch path, then joins the shard threads.
  /// Idempotent; also invoked by the destructor.
  void Shutdown();

  bool accepting() const {
    return accepting_.load(std::memory_order_acquire);
  }

  /// Snapshot of the server's counters and merged per-shard telemetry.
  struct Stats {
    uint64_t accepted = 0;
    uint64_t rejected_queue_full = 0;
    uint64_t rejected_unavailable = 0;
    uint64_t expired = 0;    ///< deadline passed inside a batch window
    uint64_t completed = 0;  ///< replies that reached the model chain
    uint64_t batches = 0;    ///< PredictBatch flushes
    double mean_batch_size = 0.0;
    LatencyHistogram queue_ns;  ///< admission -> batch formation
    LatencyHistogram total_ns;  ///< admission -> reply
    ResilientModel::TierCounts tiers;  ///< summed over shards
    PredictionCache::Stats cache;      ///< summed over shard caches
    CircuitBreaker::Transitions breaker;  ///< summed over shard breakers
  };
  Stats GetStats() const;

  /// Polls util/drain: once a SIGTERM/SIGINT drain has been requested the
  /// server stops admitting (new Submits reject with kUnavailable) while
  /// already-accepted requests still drain through the batch path. Cheap
  /// enough to call per Submit; binaries call it from their load loop.
  /// Returns true when draining.
  bool PollDrain();

  size_t num_shards() const { return shards_.size(); }
  const ServerOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    std::string statement;
    double opt_cost = 0.0;
    Clock::time_point enqueue{};
    Clock::time_point deadline = Clock::time_point::max();
    ReplyCallback done;
  };

  struct Shard {
    explicit Shard(size_t depth) : queue(depth) {}
    AdmissionQueue<Request> queue;
    std::unique_ptr<ResilientModel> model;
    std::thread worker;
    /// Guards the telemetry below (written once per batch by the shard's
    /// batcher thread, read by GetStats from any thread).
    mutable std::mutex stats_mu;
    LatencyHistogram queue_ns;
    LatencyHistogram total_ns;
    uint64_t batches = 0;
    uint64_t batched_requests = 0;
    uint64_t expired = 0;
    uint64_t completed = 0;
  };

  size_t ShardFor(const std::string& statement) const;
  void WorkerLoop(Shard* shard);
  void ServeBatch(Shard* shard, std::vector<Request> batch);

  ServerOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> accepting_{true};
  std::atomic<bool> joined_{false};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_queue_full_{0};
  std::atomic<uint64_t> rejected_unavailable_{0};
  std::mutex shutdown_mu_;
};

}  // namespace sqlfacil::serving

#endif  // SQLFACIL_SERVING_SERVER_H_
