#include "sqlfacil/serving/server.h"

#include <future>
#include <utility>

#include "sqlfacil/util/drain.h"
#include "sqlfacil/util/logging.h"

namespace sqlfacil::serving {

Server::Server(const ShardFactory& factory, ServerOptions options)
    : options_(options) {
  SQLFACIL_CHECK(options_.num_shards >= 1);
  SQLFACIL_CHECK(options_.max_batch >= 1);
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>(options_.queue_depth);
    shard->model = factory(i);
    SQLFACIL_CHECK(shard->model != nullptr);
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, s = shard.get()] { WorkerLoop(s); });
  }
}

Server::~Server() { Shutdown(); }

size_t Server::ShardFor(const std::string& statement) const {
  if (shards_.size() == 1) return 0;
  // Route by normalized statement so whitespace variants of a repeated query
  // land on the same shard's warm cache.
  return std::hash<std::string>{}(NormalizeStatement(statement)) %
         shards_.size();
}

bool Server::PollDrain() {
  if (train::DrainRequested() && accepting_.load(std::memory_order_acquire)) {
    // SIGTERM-initiated drain: stop admitting, keep serving what is queued.
    // Shutdown (join) stays with the owner — a signal handler must never
    // join threads, and the owner may still want GetStats first.
    accepting_.store(false, std::memory_order_release);
  }
  return !accepting_.load(std::memory_order_acquire);
}

bool Server::Submit(std::string statement, double opt_cost,
                    ReplyCallback done, int64_t deadline_us) {
  SQLFACIL_CHECK(done != nullptr);
  PollDrain();
  if (!accepting_.load(std::memory_order_acquire)) {
    rejected_unavailable_.fetch_add(1, std::memory_order_relaxed);
    ServerReply reply;
    reply.status = Status::Unavailable("server is draining");
    done(std::move(reply));
    return false;
  }
  Request req;
  req.statement = std::move(statement);
  req.opt_cost = opt_cost;
  req.enqueue = Clock::now();
  if (deadline_us < 0) deadline_us = options_.default_deadline_us;
  if (deadline_us > 0) {
    req.deadline = req.enqueue + std::chrono::microseconds(deadline_us);
  }
  req.done = std::move(done);
  Shard& shard = *shards_[ShardFor(req.statement)];
  // Move the callback back out on rejection: TryPush only consumes the
  // request when it admits it.
  ReplyCallback cb = req.done;
  // Counted before the push: once queued, the batcher may complete the
  // request before this thread runs again, and no stats snapshot may show
  // more completed than accepted requests. A rejection takes it back.
  accepted_.fetch_add(1, std::memory_order_relaxed);
  if (!shard.queue.TryPush(std::move(req))) {
    accepted_.fetch_sub(1, std::memory_order_relaxed);
    rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
    ServerReply reply;
    reply.status = Status::ResourceExhausted("admission queue full");
    cb(std::move(reply));
    return false;
  }
  return true;
}

ServerReply Server::Call(const std::string& statement, double opt_cost,
                         int64_t deadline_us) {
  std::promise<ServerReply> promise;
  std::future<ServerReply> future = promise.get_future();
  Submit(
      statement, opt_cost,
      [&promise](ServerReply reply) { promise.set_value(std::move(reply)); },
      deadline_us);
  return future.get();
}

void Server::WorkerLoop(Shard* shard) {
  const bool batching = options_.batch_window_us > 0 && options_.max_batch > 1;
  Request first;
  while (shard->queue.PopWait(&first)) {
    std::vector<Request> batch;
    batch.reserve(batching ? options_.max_batch : 1);
    batch.push_back(std::move(first));
    if (batching) {
      // The window opens when the batch's first request is popped; the
      // batcher greedily takes whatever is already queued, then waits out
      // the remainder of the window for stragglers (or until max_batch).
      const auto window_end =
          Clock::now() + std::chrono::microseconds(options_.batch_window_us);
      shard->queue.PopUpTo(&batch, options_.max_batch - 1, window_end);
    }
    ServeBatch(shard, std::move(batch));
  }
}

void Server::ServeBatch(Shard* shard, std::vector<Request> batch) {
  const Clock::time_point formed = Clock::now();
  // Deadline triage: a request that expired while the window was open is
  // answered immediately and never occupies a slot in the model batch.
  std::vector<size_t> live;
  live.reserve(batch.size());
  std::vector<std::string> statements;
  std::vector<double> opt_costs;
  size_t expired = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].deadline < formed) {
      ++expired;
      ServerReply reply;
      reply.status =
          Status::DeadlineExceeded("deadline expired in batch window");
      reply.queue_us = std::chrono::duration<double, std::micro>(
                           formed - batch[i].enqueue)
                           .count();
      reply.total_us = reply.queue_us;
      batch[i].done(std::move(reply));
      continue;
    }
    live.push_back(i);
    // The request's statement is not needed after inference; move it.
    statements.push_back(std::move(batch[i].statement));
    opt_costs.push_back(batch[i].opt_cost);
  }

  ServedBatch served;
  if (!live.empty()) {
    // The shard's ResilientModel never throws: failures surface as degraded
    // tiers or a typed per-batch status.
    served = shard->model->PredictBatch(statements, opt_costs);
  }
  const Clock::time_point done = Clock::now();

  {
    std::lock_guard<std::mutex> lock(shard->stats_mu);
    shard->expired += expired;
    if (!live.empty()) {
      ++shard->batches;
      shard->batched_requests += live.size();
      shard->completed += live.size();
      for (size_t i : live) {
        shard->queue_ns.Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                formed - batch[i].enqueue)
                .count()));
        shard->total_ns.Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                done - batch[i].enqueue)
                .count()));
      }
    }
  }

  for (size_t slot = 0; slot < live.size(); ++slot) {
    Request& req = batch[live[slot]];
    ServerReply reply;
    reply.tier = served.provenance[slot];
    if (reply.tier == Tier::kFailed) {
      reply.status = served.status.ok()
                         ? Status::Internal("all serving tiers failed")
                         : served.status;
    } else {
      reply.prediction = std::move(served.predictions[slot]);
    }
    reply.batch_size = live.size();
    reply.queue_us =
        std::chrono::duration<double, std::micro>(formed - req.enqueue)
            .count();
    reply.total_us =
        std::chrono::duration<double, std::micro>(done - req.enqueue).count();
    req.done(std::move(reply));
  }
}

void Server::Shutdown() {
  accepting_.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (joined_.load(std::memory_order_acquire)) return;
  for (auto& shard : shards_) shard->queue.Close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  joined_.store(true, std::memory_order_release);
}

Server::Stats Server::GetStats() const {
  Stats stats;
  stats.rejected_queue_full =
      rejected_queue_full_.load(std::memory_order_relaxed);
  stats.rejected_unavailable =
      rejected_unavailable_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->stats_mu);
      stats.expired += shard->expired;
      stats.completed += shard->completed;
      stats.batches += shard->batches;
      stats.queue_ns.Merge(shard->queue_ns);
      stats.total_ns.Merge(shard->total_ns);
    }
    const ResilientModel::TierCounts tiers = shard->model->tier_counts();
    stats.tiers.primary += tiers.primary;
    stats.tiers.stale_cache += tiers.stale_cache;
    stats.tiers.baseline += tiers.baseline;
    stats.tiers.failed += tiers.failed;
    const PredictionCache::Stats cache = shard->model->cache_stats();
    stats.cache.hits += cache.hits;
    stats.cache.misses += cache.misses;
    stats.cache.evictions += cache.evictions;
    stats.cache.size += cache.size;
    const CircuitBreaker::Transitions transitions =
        shard->model->breaker_transitions();
    stats.breaker.opens += transitions.opens;
    stats.breaker.half_opens += transitions.half_opens;
    stats.breaker.closes += transitions.closes;
  }
  // Read after the shard counters: a request is counted as accepted before
  // the queue hands it to a batcher, so this sees every completed one.
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.mean_batch_size =
      stats.batches == 0
          ? 0.0
          : static_cast<double>(stats.completed) / stats.batches;
  return stats;
}

}  // namespace sqlfacil::serving
