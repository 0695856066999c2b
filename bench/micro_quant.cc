// Micro-benchmarks of the int8 precision tier: quantized vs fp32 GEMM
// kernels on the model hot-path shapes, single-query Predict latency
// (p50/p99) and batch throughput per tier for ccnn/clstm, and the tier's
// accuracy delta on a held-out synthetic workload (counters, not timing).
//
// The serving-shape numbers use the same trained models as micro_serving.cc
// (epochs, dims, seeds), so BENCH_<n>.json can compare
// predict_clstm_int8_p50_us directly against the fp32 predict_clstm_p50_us
// of earlier snapshots.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sqlfacil/models/cnn_model.h"
#include "sqlfacil/models/lstm_model.h"
#include "sqlfacil/nn/infer.h"
#include "sqlfacil/nn/quant.h"
#include "sqlfacil/nn/simd_int8.h"
#include "sqlfacil/util/logging.h"
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

const std::vector<std::string>& ServeQueries() {
  static const std::vector<std::string> queries =
      SyntheticClassification(64, 2).statements;
  return queries;
}

// Larger labeled split for the accuracy-delta counters.
const Dataset& EvalData() {
  static const Dataset data = SyntheticClassification(256, 3);
  return data;
}

// One family's trained fp32 model and its int8 copy: the fp32 checkpoint
// loaded into a fresh model, then quantized. The LSTM calibrates over the
// training split, the held-out slice the models were fit against.
template <typename Model>
struct Tiers {
  Model fp32;
  Model int8;
};

template <typename Model>
const Tiers<Model>& Trained(const typename Model::Config& config) {
  static const Tiers<Model>* tiers = [&config] {
    auto* t = new Tiers<Model>{Model(config), Model(config)};
    Rng rng(7);
    t->fp32.Fit(TrainData(), TrainData(), &rng);
    std::stringstream checkpoint;
    SQLFACIL_CHECK(t->fp32.SaveTo(checkpoint).ok());
    SQLFACIL_CHECK(t->int8.LoadFrom(checkpoint).ok());
    SQLFACIL_CHECK(t->int8.Quantize(TrainData().statements).ok());
    return t;
  }();
  return *tiers;
}

const Tiers<models::CnnModel>& Cnn() {
  models::CnnModel::Config config;
  config.epochs = 1;
  return Trained<models::CnnModel>(config);
}

const Tiers<models::LstmModel>& Lstm() {
  models::LstmModel::Config config;
  config.epochs = 1;
  config.num_layers = 2;
  return Trained<models::LstmModel>(config);
}

double PercentileUs(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(
      v.size() - 1, static_cast<size_t>(p / 100.0 * static_cast<double>(
                                                        v.size())));
  return v[idx];
}

// --- kernel-level: fp32 MatMul vs int8 quad-dot GEMM -----------------------

// Hot-path shapes: (m x k) @ (k x n). m=1 is the LSTM single-query step
// (hidden -> gates, H=32 like the serving model); m=64 is a serving batch;
// (188 x 36) @ (36 x 32) is the ccnn width-3 conv as unfolded GEMM.
void GemmArgs(benchmark::internal::Benchmark* b) {
  b->Args({1, 32, 128});
  b->Args({64, 32, 128});
  b->Args({188, 36, 32});
}

void BM_GemmFp32(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  Rng rng(5);
  std::vector<float> a(static_cast<size_t>(m) * k), w(static_cast<size_t>(k) * n),
      c(static_cast<size_t>(m) * n);
  for (auto& v : a) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (auto& v : w) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (auto _ : state) {
    nn::infer::MatMul(a.data(), w.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * k * n);
}
BENCHMARK(BM_GemmFp32)->Apply(GemmArgs);

void BM_GemmInt8(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  Rng rng(5);
  std::vector<float> a(static_cast<size_t>(m) * k), w(static_cast<size_t>(k) * n);
  for (auto& v : a) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (auto& v : w) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  const nn::quant::QuantizedTensor q = nn::quant::QuantizeWeights(w.data(), k, n);
  // Pre-quantized activations: the model paths quantize once per tensor and
  // reuse the bytes across every output column, so the steady-state kernel
  // cost is the integer GEMM + dequant.
  const int k4 = q.k4;
  std::vector<uint8_t> qa(static_cast<size_t>(m) * k4 * 4,
                          nn::quant::kActZeroPoint);
  const float act_scale = 1.0f / 127.0f;
  for (int i = 0; i < m; ++i) {
    nn::quant::QuantizeActivations(a.data() + static_cast<size_t>(i) * k, k,
                                   127.0f, qa.data() + static_cast<size_t>(i) * k4 * 4);
  }
  std::vector<int32_t> acc(static_cast<size_t>(m) * q.n_pad);
  std::vector<float> c(static_cast<size_t>(m) * n);
  const std::vector<float> bias(static_cast<size_t>(n), 0.0f);
  for (auto _ : state) {
    nn::simd::Int8GemmRows(qa.data(), k4 * 4, q.packed.data(), k4, q.n_pad,
                           acc.data(), q.n_pad, 0, m);
    nn::simd::Int8DequantRows(acc.data(), q.n_pad, q.col_corr.data(),
                              act_scale * q.scale, bias.data(), 0, c.data(),
                              n, 0, m, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * k * n);
}
BENCHMARK(BM_GemmInt8)->Apply(GemmArgs);

// --- serving shapes per tier ----------------------------------------------

void SingleLatency(benchmark::State& state, const models::Model& model) {
  const auto& queries = ServeQueries();
  std::vector<double> lat_us;
  lat_us.reserve(1 << 12);
  size_t qi = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    auto pred = model.Predict(queries[qi], 0.0);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(pred.data());
    lat_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    qi = (qi + 1) % queries.size();
  }
  state.counters["p50_us"] = PercentileUs(lat_us, 50.0);
  state.counters["p99_us"] = PercentileUs(lat_us, 99.0);
}

void BatchThroughput(benchmark::State& state, const models::Model& model) {
  const auto& queries = ServeQueries();
  for (auto _ : state) {
    auto preds = model.PredictBatch(queries);
    benchmark::DoNotOptimize(preds.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}

void BM_PredictSingle_ccnn_fp32(benchmark::State& state) {
  SingleLatency(state, Cnn().fp32);
}
void BM_PredictSingle_ccnn_int8(benchmark::State& state) {
  SingleLatency(state, Cnn().int8);
}
void BM_PredictSingle_clstm_fp32(benchmark::State& state) {
  SingleLatency(state, Lstm().fp32);
}
void BM_PredictSingle_clstm_int8(benchmark::State& state) {
  SingleLatency(state, Lstm().int8);
}
BENCHMARK(BM_PredictSingle_ccnn_fp32)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PredictSingle_ccnn_int8)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PredictSingle_clstm_fp32)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PredictSingle_clstm_int8)->Unit(benchmark::kMicrosecond);

void BM_PredictBatch_ccnn_fp32(benchmark::State& state) {
  BatchThroughput(state, Cnn().fp32);
}
void BM_PredictBatch_ccnn_int8(benchmark::State& state) {
  BatchThroughput(state, Cnn().int8);
}
void BM_PredictBatch_clstm_fp32(benchmark::State& state) {
  BatchThroughput(state, Lstm().fp32);
}
void BM_PredictBatch_clstm_int8(benchmark::State& state) {
  BatchThroughput(state, Lstm().int8);
}
BENCHMARK(BM_PredictBatch_ccnn_fp32)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PredictBatch_ccnn_int8)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PredictBatch_clstm_fp32)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PredictBatch_clstm_int8)->Unit(benchmark::kMicrosecond);

// --- accuracy delta (counters; the loop only re-reads precomputed values) --

void AccuracyDelta(benchmark::State& state, const models::Model& fp32,
                   const models::Model& int8) {
  const Dataset& eval = EvalData();
  double acc[2] = {0.0, 0.0};
  double mean_dp = 0.0, max_dp = 0.0;
  std::vector<std::vector<float>> preds[2];
  for (int tier = 0; tier < 2; ++tier) {
    preds[tier] = (tier == 0 ? fp32 : int8).PredictBatch(eval.statements);
    size_t correct = 0;
    for (size_t i = 0; i < eval.size(); ++i) {
      const auto& p = preds[tier][i];
      const int arg = static_cast<int>(
          std::max_element(p.begin(), p.end()) - p.begin());
      if (arg == eval.labels[i]) ++correct;
    }
    acc[tier] = static_cast<double>(correct) / static_cast<double>(eval.size());
  }
  size_t count = 0;
  for (size_t i = 0; i < eval.size(); ++i) {
    for (size_t c = 0; c < preds[0][i].size(); ++c) {
      const double d = std::fabs(double{preds[0][i][c]} - preds[1][i][c]);
      mean_dp += d;
      max_dp = std::max(max_dp, d);
      ++count;
    }
  }
  mean_dp /= static_cast<double>(count);
  for (auto _ : state) benchmark::DoNotOptimize(acc);
  state.counters["acc_fp32"] = acc[0];
  state.counters["acc_int8"] = acc[1];
  state.counters["rel_acc_delta_pct"] =
      acc[0] > 0.0 ? (acc[0] - acc[1]) / acc[0] * 100.0 : 0.0;
  state.counters["mean_abs_dprob"] = mean_dp;
  state.counters["max_abs_dprob"] = max_dp;
}

void BM_Int8AccuracyDelta_ccnn(benchmark::State& state) {
  AccuracyDelta(state, Cnn().fp32, Cnn().int8);
}
void BM_Int8AccuracyDelta_clstm(benchmark::State& state) {
  AccuracyDelta(state, Lstm().fp32, Lstm().int8);
}
BENCHMARK(BM_Int8AccuracyDelta_ccnn)->Iterations(1);
BENCHMARK(BM_Int8AccuracyDelta_clstm)->Iterations(1);

}  // namespace
}  // namespace sqlfacil
