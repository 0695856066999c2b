#include "sqlfacil/nn/infer.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "sqlfacil/nn/simd.h"
#include "sqlfacil/nn/simd_int8.h"
#include "sqlfacil/util/logging.h"

namespace sqlfacil::nn::infer {

void MatMul(const float* A, const float* B, float* C, int m, int k, int n) {
  std::memset(C, 0,
              static_cast<size_t>(m) * static_cast<size_t>(n) * sizeof(float));
  simd::MatMulRows(A, B, C, 0, static_cast<size_t>(m), k, n);
}

void BiasAdd(float* X, const float* bias, int rows, int cols) {
  for (int i = 0; i < rows; ++i) {
    simd::AddAcc(X + static_cast<size_t>(i) * cols, bias,
                 static_cast<size_t>(cols));
  }
}

void GatherRows(const float* table, int d, const int* ids, int n,
                float* out) {
  for (int i = 0; i < n; ++i) {
    float* row = out + static_cast<size_t>(i) * d;
    if (ids[i] < 0) {
      std::memset(row, 0, static_cast<size_t>(d) * sizeof(float));
    } else {
      std::memcpy(row, table + static_cast<size_t>(ids[i]) * d,
                  static_cast<size_t>(d) * sizeof(float));
    }
  }
}

void Unfold(const float* in, int t, int d, int window, float* out) {
  const int out_rows = t - window + 1;
  const size_t row_floats = static_cast<size_t>(window) * d;
  for (int i = 0; i < out_rows; ++i) {
    // Windows are contiguous in the (t x d) input, so each output row is
    // one straight copy of window*d floats starting at input row i.
    std::memcpy(out + static_cast<size_t>(i) * row_floats,
                in + static_cast<size_t>(i) * d, row_floats * sizeof(float));
  }
}

void Int8GatherRows(const uint8_t* qtable, int d, const int* ids, int n,
                    uint8_t* out, int stride) {
  for (int i = 0; i < n; ++i) {
    uint8_t* row = out + static_cast<size_t>(i) * stride;
    if (ids[i] < 0) {
      std::memset(row, quant::kActZeroPoint, static_cast<size_t>(stride));
    } else {
      std::memcpy(row, qtable + static_cast<size_t>(ids[i]) * d,
                  static_cast<size_t>(d));
      std::memset(row + d, quant::kActZeroPoint,
                  static_cast<size_t>(stride - d));
    }
  }
}

void Int8Unfold(const uint8_t* in, int t, int d, int window, uint8_t* out,
                int stride) {
  const int out_rows = t - window + 1;
  const size_t row_bytes = static_cast<size_t>(window) * d;
  for (int i = 0; i < out_rows; ++i) {
    uint8_t* row = out + static_cast<size_t>(i) * stride;
    std::memcpy(row, in + static_cast<size_t>(i) * d, row_bytes);
    std::memset(row + row_bytes, quant::kActZeroPoint,
                static_cast<size_t>(stride) - row_bytes);
  }
}

void Int8MatMul(const uint8_t* A, int a_stride,
                const quant::QuantizedTensor& W, float act_scale,
                const float* bias, int m, int32_t* acc, float* C) {
  simd::Int8GemmRowsNoSat(A, static_cast<size_t>(a_stride), W.packed.data(),
                          W.k4, W.n_pad, acc, static_cast<size_t>(W.n_pad), 0,
                          static_cast<size_t>(m));
  simd::Int8DequantRows(acc, static_cast<size_t>(W.n_pad), W.col_corr.data(),
                        act_scale * W.scale, bias, 0, C,
                        static_cast<size_t>(W.n), 0, static_cast<size_t>(m),
                        W.n);
}

void SoftmaxInPlace(float* v, size_t n) {
  const float max_v = *std::max_element(v, v + n);
  double denom = 0.0;
  for (size_t i = 0; i < n; ++i) {
    v[i] = std::exp(v[i] - max_v);
    denom += v[i];
  }
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(v[i] / denom);
  }
}

float SoftmaxCrossEntropy(const float* logits, int b, int c,
                          const int* labels, float* probs) {
  double loss_sum = 0.0;
  for (int i = 0; i < b; ++i) {
    SQLFACIL_CHECK(labels[i] >= 0 && labels[i] < c);
    const float* row = logits + static_cast<size_t>(i) * c;
    float max_logit = row[0];
    for (int j = 1; j < c; ++j) max_logit = std::max(max_logit, row[j]);
    double denom = 0.0;
    for (int j = 0; j < c; ++j) {
      denom += std::exp(static_cast<double>(row[j] - max_logit));
    }
    float p_label = 0.0f;
    for (int j = 0; j < c; ++j) {
      const float p = static_cast<float>(
          std::exp(static_cast<double>(row[j] - max_logit)) / denom);
      if (probs != nullptr) probs[static_cast<size_t>(i) * c + j] = p;
      if (j == labels[i]) p_label = p;
    }
    loss_sum -= std::log(std::max(1e-12, static_cast<double>(p_label)));
  }
  return static_cast<float>(loss_sum / b);
}

float HuberLoss(const float* pred, const float* targets, int b, float delta,
                float* residuals) {
  double loss_sum = 0.0;
  for (int i = 0; i < b; ++i) {
    const float r = pred[i] - targets[i];
    if (residuals != nullptr) residuals[i] = r;
    const float ar = std::fabs(r);
    loss_sum += (ar <= delta) ? 0.5f * r * r : delta * (ar - 0.5f * delta);
  }
  return static_cast<float>(loss_sum / b);
}

float SquaredLoss(const float* pred, const float* targets, int b,
                  float* residuals) {
  double loss_sum = 0.0;
  for (int i = 0; i < b; ++i) {
    const float r = pred[i] - targets[i];
    if (residuals != nullptr) residuals[i] = r;
    loss_sum += 0.5f * r * r;
  }
  return static_cast<float>(loss_sum / b);
}

}  // namespace sqlfacil::nn::infer
