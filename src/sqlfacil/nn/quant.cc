#include "sqlfacil/nn/quant.h"

#include <algorithm>
#include <cmath>

namespace sqlfacil::nn::quant {

QuantizedTensor QuantizeWeights(const float* w, int k, int n) {
  QuantizedTensor q;
  q.k = k;
  q.n = n;
  q.k4 = (k + 3) / 4;
  q.n_pad = (n + 7) / 8 * 8;
  float max_abs = 0.0f;
  const size_t total = static_cast<size_t>(k) * n;
  for (size_t i = 0; i < total; ++i) {
    const float a = std::fabs(w[i]);
    if (a > max_abs) max_abs = a;
  }
  q.scale = (max_abs > 1e-12f ? max_abs : 1e-12f) /
            static_cast<float>(kWeightQmax);
  const float inv_scale = 1.0f / q.scale;
  q.packed.assign(static_cast<size_t>(q.k4) * q.n_pad * 4, 0);
  q.col_corr.assign(q.n_pad, 0);
  for (int kk = 0; kk < k; ++kk) {
    const float* row = w + static_cast<size_t>(kk) * n;
    for (int j = 0; j < n; ++j) {
      const float scaled = row[j] * inv_scale;
      const int v = std::clamp(static_cast<int>(nearbyintf(scaled)),
                               -kWeightQmax, kWeightQmax);
      q.packed[(static_cast<size_t>(kk / 4) * q.n_pad + j) * 4 + (kk % 4)] =
          static_cast<int8_t>(v);
      q.col_corr[j] += kActZeroPoint * v;
    }
  }
  return q;
}

void ComputeColCorr(QuantizedTensor* q) {
  q->col_corr.assign(q->n_pad, 0);
  for (int quad = 0; quad < q->k4; ++quad) {
    for (int j = 0; j < q->n_pad; ++j) {
      const int8_t* p =
          q->packed.data() + (static_cast<size_t>(quad) * q->n_pad + j) * 4;
      q->col_corr[j] += kActZeroPoint * (static_cast<int>(p[0]) + p[1] +
                                         p[2] + p[3]);
    }
  }
}

void QuantizeActivations(const float* x, size_t n, float inv_scale,
                         uint8_t* q) {
  for (size_t i = 0; i < n; ++i) {
    const int v = std::clamp(static_cast<int>(nearbyintf(x[i] * inv_scale)),
                             -kActQmax, kActQmax);
    q[i] = static_cast<uint8_t>(v + kActZeroPoint);
  }
}

}  // namespace sqlfacil::nn::quant
