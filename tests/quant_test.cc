// Int8 precision tier: quantization round-trip bounds, scalar-vs-AVX2
// bit-identity of the quantized kernels, tier determinism across
// SQLFACIL_THREADS x SQLFACIL_SIMD, int8-vs-fp32 closeness, and quantized
// checkpoint round-trips including corrupt / truncated frames.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "sqlfacil/models/checkpoint.h"
#include "sqlfacil/models/cnn_model.h"
#include "sqlfacil/models/lstm_model.h"
#include "sqlfacil/models/serialize_util.h"
#include "sqlfacil/nn/quant.h"
#include "sqlfacil/nn/simd.h"
#include "sqlfacil/nn/simd_int8.h"
#include "sqlfacil/util/random.h"
#include "sqlfacil/util/thread_pool.h"

namespace sqlfacil {
namespace {

using models::Dataset;
using models::TaskKind;
using nn::quant::QuantizedTensor;

class SimdGuard {
 public:
  SimdGuard() : saved_(nn::simd::Enabled()) {}
  ~SimdGuard() { nn::simd::SetEnabled(saved_); }

 private:
  bool saved_;
};

class PrecisionGuard {
 public:
  PrecisionGuard() : saved_(nn::quant::ActivePrecision()) {}
  ~PrecisionGuard() { nn::quant::SetActivePrecision(saved_); }

 private:
  nn::quant::Precision saved_;
};

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
                  std::to_string(id)
            : "SELECT ra, dec FROM specobj WHERE specobjid = " +
                  std::to_string(id));
    data.labels.push_back(agg ? 1 : 0);
    data.opt_costs.push_back(rng.Uniform(1.0, 100.0));
  }
  return data;
}

// --- scheme-level tests ----------------------------------------------------

TEST(QuantTest, WeightRoundTripWithinHalfStep) {
  Rng rng(5);
  const int k = 37, n = 19;
  std::vector<float> w(static_cast<size_t>(k) * n);
  for (auto& v : w) v = static_cast<float>(rng.Uniform(-2.0, 2.0));
  const QuantizedTensor q = nn::quant::QuantizeWeights(w.data(), k, n);
  ASSERT_EQ(q.k, k);
  ASSERT_EQ(q.n, n);
  ASSERT_GT(q.scale, 0.0f);
  // Round-to-nearest: every element reconstructs within half a step; the
  // packed code never leaves the +-63 no-saturation range.
  for (int kk = 0; kk < k; ++kk) {
    for (int j = 0; j < n; ++j) {
      const float err = std::fabs(q.Dequant(kk, j) - w[kk * n + j]);
      EXPECT_LE(err, q.scale * 0.5f + 1e-6f) << kk << "," << j;
    }
  }
  for (int8_t b : q.packed) {
    EXPECT_GE(b, -nn::quant::kWeightQmax);
    EXPECT_LE(b, nn::quant::kWeightQmax);
  }
  // col_corr is 128 * column sum of the packed codes.
  for (int j = 0; j < q.n; ++j) {
    int32_t sum = 0;
    for (int kk = 0; kk < k; ++kk) {
      sum += q.packed[(static_cast<size_t>(kk / 4) * q.n_pad + j) * 4 +
                      kk % 4];
    }
    EXPECT_EQ(q.col_corr[j], nn::quant::kActZeroPoint * sum) << j;
  }
}

TEST(QuantTest, ActivationQuantScalarVsAvx2BitIdentical) {
  SimdGuard guard;
  Rng rng(9);
  const size_t n = 1003;  // odd length exercises the vector tail
  std::vector<float> x(n);
  for (auto& v : x) v = static_cast<float>(rng.Uniform(-5.0, 5.0));
  x[0] = 0.0f;
  x[1] = 1e30f;    // clamps to +127
  x[2] = -1e30f;   // clamps to -127
  const float inv_scale = 127.0f / 3.0f;
  std::vector<uint8_t> spec(n), scalar(n), vec(n);
  nn::quant::QuantizeActivations(x.data(), n, inv_scale, spec.data());
  nn::simd::SetEnabled(false);
  nn::simd::Int8Quantize(x.data(), n, inv_scale, scalar.data());
  nn::simd::SetEnabled(true);
  nn::simd::Int8Quantize(x.data(), n, inv_scale, vec.data());
  EXPECT_EQ(spec, scalar);
  EXPECT_EQ(spec, vec);
}

// Reference quad-dot per the documented contract: per quad
// sat16(a0*b0 + a1*b1) + sat16(a2*b2 + a3*b3), s32 accumulation.
std::vector<int32_t> RefGemm(const std::vector<uint8_t>& A, size_t a_stride,
                             const QuantizedTensor& W, int m) {
  std::vector<int32_t> C(static_cast<size_t>(m) * W.n_pad);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < W.n_pad; ++j) {
      int32_t acc = 0;
      for (int q = 0; q < W.k4; ++q) {
        const uint8_t* a = &A[i * a_stride + static_cast<size_t>(q) * 4];
        const int8_t* b =
            &W.packed[(static_cast<size_t>(q) * W.n_pad + j) * 4];
        const auto sat16 = [](int v) { return std::clamp(v, -32768, 32767); };
        acc += sat16(a[0] * b[0] + a[1] * b[1]) +
               sat16(a[2] * b[2] + a[3] * b[3]);
      }
      C[static_cast<size_t>(i) * W.n_pad + j] = acc;
    }
  }
  return C;
}

TEST(QuantTest, GemmScalarVsAvx2BitIdentical) {
  SimdGuard guard;
  Rng rng(17);
  const int m = 5, k = 45, n = 21;  // ragged: quad tail + column tail
  std::vector<float> w(static_cast<size_t>(k) * n);
  for (auto& v : w) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  const QuantizedTensor W = nn::quant::QuantizeWeights(w.data(), k, n);
  const size_t a_stride = static_cast<size_t>(W.k4) * 4;
  std::vector<uint8_t> A(static_cast<size_t>(m) * a_stride);
  for (auto& v : A) v = static_cast<uint8_t>(rng.UniformInt(0, 255));
  const std::vector<int32_t> ref = RefGemm(A, a_stride, W, m);
  std::vector<int32_t> scalar(ref.size()), vec(ref.size());
  nn::simd::SetEnabled(false);
  nn::simd::Int8GemmRows(A.data(), a_stride, W.packed.data(), W.k4, W.n_pad,
                         scalar.data(), W.n_pad, 0, m);
  nn::simd::SetEnabled(true);
  nn::simd::Int8GemmRows(A.data(), a_stride, W.packed.data(), W.k4, W.n_pad,
                         vec.data(), W.n_pad, 0, m);
  EXPECT_EQ(ref, scalar);
  EXPECT_EQ(ref, vec);
}

TEST(QuantTest, GemmNoSatMatchesSaturatingSpec) {
  // Int8GemmRowsNoSat carries the QuantizedTensor +-63 precondition, under
  // which the sat16 can never clip — so every dispatch path (scalar exact
  // dot, AVX2 quad-dot, AVX-VNNI vpdpbusd where the CPU has it) must agree
  // bit-for-bit with the saturating spec kernel. Odd shapes exercise the
  // chunked kernels' quad and column tails.
  SimdGuard guard;
  Rng rng(23);
  for (const auto& [m, k, n] :
       {std::tuple{1, 32, 128}, {3, 70, 9}, {2, 130, 72}}) {
    std::vector<float> w(static_cast<size_t>(k) * n);
    for (auto& v : w) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
    const QuantizedTensor W = nn::quant::QuantizeWeights(w.data(), k, n);
    const size_t a_stride = static_cast<size_t>(W.k4) * 4;
    std::vector<uint8_t> A(static_cast<size_t>(m) * a_stride);
    for (auto& v : A) v = static_cast<uint8_t>(rng.UniformInt(0, 255));
    std::vector<int32_t> ref(static_cast<size_t>(m) * W.n_pad);
    nn::simd::Int8GemmRows(A.data(), a_stride, W.packed.data(), W.k4, W.n_pad,
                           ref.data(), W.n_pad, 0, m);
    std::vector<int32_t> scalar(ref.size()), vec(ref.size());
    nn::simd::SetEnabled(false);
    nn::simd::Int8GemmRowsNoSat(A.data(), a_stride, W.packed.data(), W.k4,
                                W.n_pad, scalar.data(), W.n_pad, 0, m);
    nn::simd::SetEnabled(true);
    nn::simd::Int8GemmRowsNoSat(A.data(), a_stride, W.packed.data(), W.k4,
                                W.n_pad, vec.data(), W.n_pad, 0, m);
    EXPECT_EQ(ref, scalar) << m << "x" << k << "x" << n;
    EXPECT_EQ(ref, vec) << m << "x" << k << "x" << n;
  }
}

TEST(QuantTest, GemmSaturationParity) {
  // Hand-built +-127 codes (outside what QuantizeWeights emits) force the
  // pairwise s16 saturation; scalar Sat16 and maddubs must clip alike.
  SimdGuard guard;
  QuantizedTensor W;
  W.k = 8;
  W.n = 8;
  W.k4 = 2;
  W.n_pad = 8;
  W.scale = 1.0f;
  W.packed.assign(static_cast<size_t>(W.k4) * W.n_pad * 4, 127);
  for (size_t i = 0; i < W.packed.size(); i += 3) W.packed[i] = -128;
  nn::quant::ComputeColCorr(&W);
  const size_t a_stride = 8;
  std::vector<uint8_t> A(a_stride, 255);
  const std::vector<int32_t> ref = RefGemm(A, a_stride, W, 1);
  std::vector<int32_t> scalar(ref.size()), vec(ref.size());
  nn::simd::SetEnabled(false);
  nn::simd::Int8GemmRows(A.data(), a_stride, W.packed.data(), W.k4, W.n_pad,
                         scalar.data(), W.n_pad, 0, 1);
  nn::simd::SetEnabled(true);
  nn::simd::Int8GemmRows(A.data(), a_stride, W.packed.data(), W.k4, W.n_pad,
                         vec.data(), W.n_pad, 0, 1);
  EXPECT_EQ(ref, scalar);
  EXPECT_EQ(ref, vec);
}

// --- model-level tests -----------------------------------------------------

template <typename Model>
std::vector<std::vector<float>> PredictAll(const Model& model,
                                           const Dataset& data) {
  return model.PredictBatch(data.statements);
}

void ExpectAllBitIdentical(const std::vector<std::vector<float>>& a,
                           const std::vector<std::vector<float>>& b,
                           const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << what << " example " << i;
    for (size_t c = 0; c < a[i].size(); ++c) {
      EXPECT_EQ(a[i][c], b[i][c]) << what << " example " << i;
    }
  }
}

TEST(QuantTest, LstmInt8BitIdenticalAcrossThreadsAndSimd) {
  SimdGuard simd_guard;
  PrecisionGuard prec_guard;
  const Dataset train = SyntheticClassification(60, 33);
  const Dataset valid = SyntheticClassification(24, 44);
  models::LstmModel::Config config;
  config.embed_dim = 8;
  config.hidden_dim = 16;
  config.num_layers = 2;
  config.epochs = 2;
  ThreadPool::SetGlobalThreads(4);
  models::LstmModel model(config);
  Rng rng(7);
  model.Fit(train, valid, &rng);
  ASSERT_TRUE(model.quantized());
  EXPECT_GT(model.hidden_scale(), 0.0f);

  nn::quant::SetActivePrecision(nn::quant::Precision::kInt8);
  ThreadPool::SetGlobalThreads(1);
  nn::simd::SetEnabled(false);
  const auto ref = PredictAll(model, valid);
  for (int threads : {1, 2, 8}) {
    for (bool simd_on : {false, true}) {
      ThreadPool::SetGlobalThreads(threads);
      nn::simd::SetEnabled(simd_on);
      const auto got = PredictAll(model, valid);
      ExpectAllBitIdentical(ref, got,
                            "threads=" + std::to_string(threads) +
                                " simd=" + std::to_string(simd_on));
    }
  }
  // Predict (a batch of one) is bit-identical to the batched path.
  for (size_t i = 0; i < valid.size(); ++i) {
    const auto one = model.Predict(valid.statements[i], 0.0);
    ASSERT_EQ(one.size(), ref[i].size());
    for (size_t c = 0; c < one.size(); ++c) EXPECT_EQ(one[c], ref[i][c]);
  }
}

TEST(QuantTest, LstmInt8CloseToFp32) {
  PrecisionGuard prec_guard;
  const Dataset train = SyntheticClassification(60, 3);
  const Dataset valid = SyntheticClassification(30, 4);
  models::LstmModel::Config config;
  config.embed_dim = 8;
  config.hidden_dim = 16;
  config.num_layers = 2;
  config.epochs = 2;
  ThreadPool::SetGlobalThreads(4);
  models::LstmModel model(config);
  Rng rng(7);
  model.Fit(train, valid, &rng);
  ASSERT_TRUE(model.quantized());

  nn::quant::SetActivePrecision(nn::quant::Precision::kFp32);
  const auto fp32 = PredictAll(model, valid);
  nn::quant::SetActivePrecision(nn::quant::Precision::kInt8);
  const auto int8 = PredictAll(model, valid);
  double sum_abs = 0.0, max_abs = 0.0;
  size_t count = 0;
  for (size_t i = 0; i < fp32.size(); ++i) {
    ASSERT_EQ(fp32[i].size(), int8[i].size());
    for (size_t c = 0; c < fp32[i].size(); ++c) {
      const double d = std::fabs(fp32[i][c] - int8[i][c]);
      sum_abs += d;
      max_abs = std::max(max_abs, d);
      ++count;
    }
  }
  EXPECT_LT(sum_abs / count, 0.05) << "mean |dp| too large";
  EXPECT_LT(max_abs, 0.25) << "max |dp| too large";
}

TEST(QuantTest, CnnInt8BitIdenticalAcrossThreadsAndSimdAndCloseToFp32) {
  SimdGuard simd_guard;
  PrecisionGuard prec_guard;
  const Dataset train = SyntheticClassification(60, 13);
  const Dataset valid = SyntheticClassification(24, 14);
  models::CnnModel::Config config;
  config.embed_dim = 8;
  config.kernels_per_width = 8;
  config.epochs = 2;
  ThreadPool::SetGlobalThreads(4);
  models::CnnModel model(config);
  Rng rng(7);
  model.Fit(train, valid, &rng);
  ASSERT_TRUE(model.quantized());

  nn::quant::SetActivePrecision(nn::quant::Precision::kFp32);
  const auto fp32 = PredictAll(model, valid);
  nn::quant::SetActivePrecision(nn::quant::Precision::kInt8);
  ThreadPool::SetGlobalThreads(1);
  nn::simd::SetEnabled(false);
  const auto ref = PredictAll(model, valid);
  for (int threads : {1, 2, 8}) {
    for (bool simd_on : {false, true}) {
      ThreadPool::SetGlobalThreads(threads);
      nn::simd::SetEnabled(simd_on);
      const auto got = PredictAll(model, valid);
      ExpectAllBitIdentical(ref, got,
                            "threads=" + std::to_string(threads) +
                                " simd=" + std::to_string(simd_on));
    }
  }
  // Predict routes through the int8 batch path (bit-identical).
  for (size_t i = 0; i < valid.size(); ++i) {
    const auto one = model.Predict(valid.statements[i], 0.0);
    ASSERT_EQ(one.size(), ref[i].size());
    for (size_t c = 0; c < one.size(); ++c) EXPECT_EQ(one[c], ref[i][c]);
  }
  double sum_abs = 0.0, max_abs = 0.0;
  size_t count = 0;
  for (size_t i = 0; i < fp32.size(); ++i) {
    for (size_t c = 0; c < fp32[i].size(); ++c) {
      const double d = std::fabs(fp32[i][c] - ref[i][c]);
      sum_abs += d;
      max_abs = std::max(max_abs, d);
      ++count;
    }
  }
  EXPECT_LT(sum_abs / count, 0.05) << "mean |dp| too large";
  EXPECT_LT(max_abs, 0.25) << "max |dp| too large";
}

// Validation scores the fp32 weights being trained whatever tier serves:
// after the first fit a model already holds an int8 tier, and a re-fit or
// fine-tune scored through it would pick best epochs from stale weights.
// The per-epoch ValidLoss trajectory must not depend on the active tier.
TEST(QuantTest, ValidHistoryIndependentOfActivePrecision) {
  PrecisionGuard prec_guard;
  ThreadPool::SetGlobalThreads(2);
  const Dataset train = SyntheticClassification(48, 61);
  const Dataset valid = SyntheticClassification(20, 62);
  const Dataset train2 = SyntheticClassification(32, 63);
  const Dataset valid2 = SyntheticClassification(16, 64);
  using History = std::vector<double>;
  auto cnn_histories = [&](nn::quant::Precision p) {
    nn::quant::SetActivePrecision(p);
    models::CnnModel::Config config;
    config.embed_dim = 8;
    config.kernels_per_width = 8;
    config.epochs = 2;
    models::CnnModel model(config);
    Rng rng(7);
    model.Fit(train, valid, &rng);
    EXPECT_TRUE(model.quantized());
    const History fit = model.valid_history();
    model.FineTune(train2, valid2, 2, &rng);
    return std::pair<History, History>(fit, model.valid_history());
  };
  auto lstm_histories = [&](nn::quant::Precision p) {
    nn::quant::SetActivePrecision(p);
    models::LstmModel::Config config;
    config.embed_dim = 8;
    config.hidden_dim = 16;
    config.num_layers = 2;
    config.epochs = 2;
    models::LstmModel model(config);
    Rng rng(7);
    model.Fit(train, valid, &rng);
    EXPECT_TRUE(model.quantized());
    const History first = model.valid_history();
    model.Fit(train2, valid2, &rng);
    return std::pair<History, History>(first, model.valid_history());
  };
  const auto cnn_fp32 = cnn_histories(nn::quant::Precision::kFp32);
  const auto cnn_int8 = cnn_histories(nn::quant::Precision::kInt8);
  EXPECT_EQ(cnn_fp32.first, cnn_int8.first) << "ccnn Fit";
  EXPECT_EQ(cnn_fp32.second, cnn_int8.second) << "ccnn FineTune";
  const auto lstm_fp32 = lstm_histories(nn::quant::Precision::kFp32);
  const auto lstm_int8 = lstm_histories(nn::quant::Precision::kInt8);
  EXPECT_EQ(lstm_fp32.first, lstm_int8.first) << "clstm first Fit";
  EXPECT_EQ(lstm_fp32.second, lstm_int8.second) << "clstm second Fit";
  ThreadPool::SetGlobalThreads(1);
}

// --- checkpoint tests ------------------------------------------------------

TEST(QuantTest, LstmQuantizedCheckpointRoundTrip) {
  PrecisionGuard prec_guard;
  const Dataset train = SyntheticClassification(50, 23);
  const Dataset valid = SyntheticClassification(16, 24);
  models::LstmModel::Config config;
  config.embed_dim = 8;
  config.hidden_dim = 16;
  config.num_layers = 2;
  config.epochs = 1;
  ThreadPool::SetGlobalThreads(4);
  models::LstmModel model(config);
  Rng rng(7);
  model.Fit(train, valid, &rng);
  ASSERT_TRUE(model.quantized());

  std::ostringstream out;
  ASSERT_TRUE(model.SaveTo(out).ok());
  models::LstmModel loaded(config);
  std::istringstream in(out.str());
  ASSERT_TRUE(loaded.LoadFrom(in).ok());
  ASSERT_TRUE(loaded.quantized());
  EXPECT_EQ(loaded.hidden_scale(), model.hidden_scale());

  // Both tiers survive the round trip bit-for-bit.
  nn::quant::SetActivePrecision(nn::quant::Precision::kFp32);
  ExpectAllBitIdentical(PredictAll(model, valid), PredictAll(loaded, valid),
                        "fp32 round trip");
  nn::quant::SetActivePrecision(nn::quant::Precision::kInt8);
  ExpectAllBitIdentical(PredictAll(model, valid), PredictAll(loaded, valid),
                        "int8 round trip");

  // Truncated payloads are rejected at every sampled cut point.
  const std::string bytes = out.str();
  for (size_t frac = 1; frac <= 19; ++frac) {
    std::istringstream cut(bytes.substr(0, bytes.size() * frac / 20));
    models::LstmModel victim(config);
    EXPECT_FALSE(victim.LoadFrom(cut).ok()) << "cut at " << frac << "/20";
  }
}

TEST(QuantTest, CnnQuantizedCheckpointRoundTrip) {
  PrecisionGuard prec_guard;
  const Dataset train = SyntheticClassification(50, 25);
  const Dataset valid = SyntheticClassification(16, 26);
  models::CnnModel::Config config;
  config.embed_dim = 8;
  config.kernels_per_width = 8;
  config.epochs = 1;
  ThreadPool::SetGlobalThreads(4);
  models::CnnModel model(config);
  Rng rng(7);
  model.Fit(train, valid, &rng);
  ASSERT_TRUE(model.quantized());

  std::ostringstream out;
  ASSERT_TRUE(model.SaveTo(out).ok());
  models::CnnModel loaded(config);
  std::istringstream in(out.str());
  ASSERT_TRUE(loaded.LoadFrom(in).ok());
  ASSERT_TRUE(loaded.quantized());

  nn::quant::SetActivePrecision(nn::quant::Precision::kInt8);
  ExpectAllBitIdentical(PredictAll(model, valid), PredictAll(loaded, valid),
                        "int8 round trip");
}

TEST(QuantTest, CorruptQuantTensorRejected) {
  Rng rng(31);
  const int k = 16, n = 8;
  std::vector<float> w(static_cast<size_t>(k) * n);
  for (auto& v : w) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  const QuantizedTensor q = nn::quant::QuantizeWeights(w.data(), k, n);

  {  // clean round trip first
    std::ostringstream out;
    models::serialize::WriteQuantTensor(out, q);
    std::istringstream in(out.str());
    auto back = models::serialize::ReadQuantTensor(in);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->packed, q.packed);
    EXPECT_EQ(back->col_corr, q.col_corr);
    EXPECT_EQ(back->scale, q.scale);
  }
  {  // a packed byte outside +-63 violates the no-saturation invariant
    QuantizedTensor bad = q;
    bad.packed[5] = 127;
    std::ostringstream out;
    models::serialize::WriteQuantTensor(out, bad);
    std::istringstream in(out.str());
    EXPECT_FALSE(models::serialize::ReadQuantTensor(in).ok());
  }
  {  // non-positive scale
    QuantizedTensor bad = q;
    bad.scale = -1.0f;
    std::ostringstream out;
    models::serialize::WriteQuantTensor(out, bad);
    std::istringstream in(out.str());
    EXPECT_FALSE(models::serialize::ReadQuantTensor(in).ok());
  }
}

TEST(QuantTest, FramedQuantizedCheckpointDetectsBitFlips) {
  const Dataset train = SyntheticClassification(40, 27);
  const Dataset valid = SyntheticClassification(8, 28);
  models::CnnModel::Config config;
  config.embed_dim = 8;
  config.kernels_per_width = 8;
  config.epochs = 1;
  ThreadPool::SetGlobalThreads(4);
  models::CnnModel model(config);
  Rng rng(7);
  model.Fit(train, valid, &rng);
  ASSERT_TRUE(model.quantized());

  std::ostringstream out;
  ASSERT_TRUE(model.SaveTo(out).ok());
  const std::string framed = models::FrameCheckpoint(out.str());
  ASSERT_TRUE(models::ParseCheckpoint(framed).ok());
  // Flip one byte in the quantized trailer (the payload tail): the CRC in
  // the existing resilience framing must reject the file.
  std::string damaged = framed;
  damaged[damaged.size() - 8] ^= 0x10;
  EXPECT_FALSE(models::ParseCheckpoint(damaged).ok());
}

}  // namespace
}  // namespace sqlfacil
