// Micro-benchmarks of the serving fast path: single-query Predict latency
// (p50/p99), batched PredictBatch throughput vs a per-query Predict loop,
// the prediction cache at hit rates 0% / 50% / 90%, and the full serving
// front end (serving::Server) under closed-loop concurrent clients with the
// micro-batch window on vs off.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sqlfacil/models/baselines.h"
#include "sqlfacil/models/cnn_model.h"
#include "sqlfacil/models/lstm_model.h"
#include "sqlfacil/models/tfidf_model.h"
#include "sqlfacil/serving/server.h"
#include "sqlfacil/util/latency_histogram.h"
#include "sqlfacil/util/random.h"

namespace sqlfacil {
namespace {

using models::Dataset;
using models::TaskKind;

Dataset SyntheticClassification(size_t n, uint64_t seed) {
  Dataset data;
  data.kind = TaskKind::kClassification;
  data.num_classes = 2;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const bool agg = rng.Bernoulli(0.5);
    const int64_t id = rng.UniformInt(1, 500);
    data.statements.push_back(
        agg ? "SELECT COUNT(*) FROM photoobj WHERE objid = " +
                  std::to_string(id) + " AND ra > 0 AND dec < 10"
            : "SELECT ra, dec, objid FROM specobj WHERE specobjid = " +
                  std::to_string(id) + " ORDER BY specobjid");
    data.labels.push_back(agg ? 1 : 0);
    data.opt_costs.push_back(rng.Uniform(1.0, 100.0));
  }
  return data;
}

const Dataset& TrainData() {
  static const Dataset data = SyntheticClassification(96, 1);
  return data;
}

// Distinct statements served repeatedly (one serving batch).
const std::vector<std::string>& ServeQueries() {
  static const std::vector<std::string> queries =
      SyntheticClassification(64, 2).statements;
  return queries;
}

template <typename Model>
const Model& Trained(typename Model::Config config) {
  static Model* model = [](typename Model::Config cfg) {
    auto* m = new Model(std::move(cfg));
    Rng rng(7);
    m->Fit(TrainData(), TrainData(), &rng);
    return m;
  }(std::move(config));
  return *model;
}

const models::TfidfModel& Tfidf() {
  models::TfidfModel::Config config;
  config.epochs = 2;
  return Trained<models::TfidfModel>(config);
}

const models::CnnModel& Cnn() {
  models::CnnModel::Config config;
  config.epochs = 1;
  return Trained<models::CnnModel>(config);
}

const models::LstmModel& Lstm() {
  models::LstmModel::Config config;
  config.epochs = 1;
  config.num_layers = 2;
  return Trained<models::LstmModel>(config);
}

// Single-query latency with p50/p99 counters (queries rotate so cache-like
// locality in the model itself cannot flatter the numbers).
void SingleLatency(benchmark::State& state, const models::Model& model) {
  const auto& queries = ServeQueries();
  LatencyHistogram lat;
  size_t qi = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    auto pred = model.Predict(queries[qi], 0.0);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(pred.data());
    lat.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
    qi = (qi + 1) % queries.size();
  }
  state.counters["p50_us"] = lat.PercentileUs(50.0);
  state.counters["p99_us"] = lat.PercentileUs(99.0);
}

// Whole-batch cost: per-query Predict loop (baseline) vs PredictBatch
// (fast path). items/s is queries served per second.
void BatchThroughput(benchmark::State& state, const models::Model& model,
                     bool batched) {
  const auto& queries = ServeQueries();
  for (auto _ : state) {
    if (batched) {
      auto preds = model.PredictBatch(queries);
      benchmark::DoNotOptimize(preds.data());
    } else {
      for (const auto& q : queries) {
        auto pred = model.Predict(q, 0.0);
        benchmark::DoNotOptimize(pred.data());
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}

void BM_PredictSingle_tfidf(benchmark::State& state) {
  SingleLatency(state, Tfidf());
}
void BM_PredictSingle_ccnn(benchmark::State& state) {
  SingleLatency(state, Cnn());
}
void BM_PredictSingle_clstm(benchmark::State& state) {
  SingleLatency(state, Lstm());
}
BENCHMARK(BM_PredictSingle_tfidf)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PredictSingle_ccnn)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PredictSingle_clstm)->Unit(benchmark::kMicrosecond);

void BM_PredictLoop_tfidf(benchmark::State& state) {
  BatchThroughput(state, Tfidf(), /*batched=*/false);
}
void BM_PredictBatch_tfidf(benchmark::State& state) {
  BatchThroughput(state, Tfidf(), /*batched=*/true);
}
void BM_PredictLoop_ccnn(benchmark::State& state) {
  BatchThroughput(state, Cnn(), /*batched=*/false);
}
void BM_PredictBatch_ccnn(benchmark::State& state) {
  BatchThroughput(state, Cnn(), /*batched=*/true);
}
void BM_PredictLoop_clstm(benchmark::State& state) {
  BatchThroughput(state, Lstm(), /*batched=*/false);
}
void BM_PredictBatch_clstm(benchmark::State& state) {
  BatchThroughput(state, Lstm(), /*batched=*/true);
}
BENCHMARK(BM_PredictLoop_tfidf)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PredictBatch_tfidf)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PredictLoop_ccnn)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PredictBatch_ccnn)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PredictLoop_clstm)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PredictBatch_clstm)->Unit(benchmark::kMicrosecond);

// Cache hit-rate sweep. Each iteration serves through a fresh
// ResilientModel (a cold cache), warms hit_pct% of the serving set, then
// times one PredictBatch over the whole set — so the measured batch sees
// exactly the advertised hit rate. Manual timing keeps the set-up and
// warm-up out of the measurement.
void CachedBatch(benchmark::State& state, models::Model* model) {
  const auto& queries = ServeQueries();
  const size_t hit_pct = static_cast<size_t>(state.range(0));
  const size_t warm = queries.size() * hit_pct / 100;
  const std::vector<std::string> warm_queries(queries.begin(),
                                              queries.begin() + warm);
  for (auto _ : state) {
    serving::ResilientModel serving(std::make_unique<serving::ModelRef>(model),
                                    std::make_unique<models::MfreqModel>());
    if (!warm_queries.empty()) {
      auto warmed = serving.PredictBatch(warm_queries);
      benchmark::DoNotOptimize(warmed.predictions.data());
    }
    const auto t0 = std::chrono::steady_clock::now();
    auto served = serving.PredictBatch(queries);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(served.predictions.data());
    state.SetIterationTime(
        std::chrono::duration<double>(t1 - t0).count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}

models::Model* CachedCnn() {
  static models::Model* model = [] {
    models::CnnModel::Config config;
    config.epochs = 1;
    auto* m = new models::CnnModel(config);
    Rng rng(7);
    m->Fit(TrainData(), TrainData(), &rng);
    return m;
  }();
  return model;
}

models::Model* CachedLstm() {
  static models::Model* model = [] {
    models::LstmModel::Config config;
    config.epochs = 1;
    config.num_layers = 2;
    auto* m = new models::LstmModel(config);
    Rng rng(7);
    m->Fit(TrainData(), TrainData(), &rng);
    return m;
  }();
  return model;
}

void BM_CachedBatch_ccnn(benchmark::State& state) {
  CachedBatch(state, CachedCnn());
}
void BM_CachedBatch_clstm(benchmark::State& state) {
  CachedBatch(state, CachedLstm());
}
BENCHMARK(BM_CachedBatch_ccnn)
    ->Arg(0)
    ->Arg(50)
    ->Arg(90)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CachedBatch_clstm)
    ->Arg(0)
    ->Arg(50)
    ->Arg(90)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

// Full serving front end under closed-loop concurrent clients. Arg(0) is the
// per-query baseline (batch window off); Arg(N) opens an N-microsecond batch
// window so concurrent arrivals coalesce into PredictBatch flushes. One
// iteration = every client serving its whole slice, so items/s is end-to-end
// server throughput and the counters expose client-observed percentiles plus
// the realized mean batch size.
void ServerClosedLoop(benchmark::State& state) {
  const auto& queries = ServeQueries();
  constexpr size_t kClients = 16;
  constexpr size_t kPerClient = 32;

  static models::CnnModel* shared = [] {
    models::CnnModel::Config config;
    config.epochs = 1;
    auto* m = new models::CnnModel(config);
    Rng rng(7);
    m->Fit(TrainData(), TrainData(), &rng);
    return m;
  }();

  serving::ServerOptions options;
  options.num_shards = 2;
  // Small enough that the closed-loop client pool can complete a batch
  // before the window expires (threshold wake-up, not a timeout flush).
  options.max_batch = 4;
  options.batch_window_us = state.range(0);
  serving::Server server(
      [&](size_t) {
        return std::make_unique<serving::ResilientModel>(
            std::make_unique<serving::ModelRef>(shared),
            std::make_unique<models::MfreqModel>());
      },
      options);

  LatencyHistogram lat;
  std::mutex lat_mu;
  for (auto _ : state) {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        LatencyHistogram local;
        for (size_t i = 0; i < kPerClient; ++i) {
          const std::string& q = queries[(c * 13 + i * 5) % queries.size()];
          const auto t0 = std::chrono::steady_clock::now();
          auto reply = server.Call(q);
          const auto t1 = std::chrono::steady_clock::now();
          benchmark::DoNotOptimize(reply.prediction.data());
          local.Record(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()));
        }
        std::lock_guard<std::mutex> lock(lat_mu);
        lat.Merge(local);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const auto stats = server.GetStats();
  server.Shutdown();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kClients * kPerClient));
  state.counters["p50_us"] = lat.PercentileUs(50.0);
  state.counters["p99_us"] = lat.PercentileUs(99.0);
  state.counters["mean_batch"] = stats.mean_batch_size;
}
BENCHMARK(ServerClosedLoop)
    ->Name("BM_ServerClosedLoop_ccnn")
    ->Arg(0)
    ->Arg(200)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace sqlfacil
