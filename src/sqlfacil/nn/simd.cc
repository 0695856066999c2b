#include "sqlfacil/nn/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>

#include "sqlfacil/nn/quant.h"
#include "sqlfacil/util/env.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define SQLFACIL_X86 1
#else
#define SQLFACIL_X86 0
#endif

namespace sqlfacil::nn::simd {

namespace {

// Dispatch flag. Relaxed atomics: SetEnabled must not race with running
// kernels (same contract as ThreadPool::SetGlobalThreads), the atomic only
// keeps the flag itself TSan-clean.
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_initialized{false};

void InitOnce() {
  if (g_initialized.load(std::memory_order_acquire)) return;
  const int knob = GetSimdFromEnv();
  const bool on = HasAvx2() && knob != 0;
  g_enabled.store(on, std::memory_order_relaxed);
  g_initialized.store(true, std::memory_order_release);
}

// --- Scalar fallbacks -------------------------------------------------------
// Each fallback is the operation spec: the AVX2 variant must match it
// bit-for-bit (see the contract in simd.h).

void AxpyScalar(float* dst, const float* x, float a, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += a * x[i];
}

void AddAccScalar(float* dst, const float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += x[i];
}

void SubAccScalar(float* dst, const float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] -= x[i];
}

void MulScalar(float* dst, const float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] *= x[i];
}

void MulAccScalar(float* dst, const float* x, const float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += x[i] * y[i];
}

void ScaleScalar(float* dst, float s, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] *= s;
}

void ReluScalar(float* dst, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = dst[i] > 0.0f ? dst[i] : 0.0f;
}

void SigmoidGradAccScalar(float* dst, const float* g, const float* y,
                          size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += g[i] * (y[i] * (1.0f - y[i]));
}

void TanhGradAccScalar(float* dst, const float* g, const float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += g[i] * (1.0f - y[i] * y[i]);
}

void ReluGradAccScalar(float* dst, const float* g, const float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += y[i] > 0.0f ? g[i] : 0.0f;
}

// --- Shared polynomial exp --------------------------------------------------
// exp(x) = 2^n * P(r): z = x*log2e clamped to [-43, 43] (past which sigmoid
// and tanh saturate in float anyway), n = nearbyint(z), r = z - n in
// [-0.5, 0.5], P = degree-7 Taylor of 2^r (max error ~1e-8 on that range),
// and the 2^n scale built directly in the exponent bits. Every step is one
// IEEE op in a fixed Horner order with no FMA; the AVX2 lanes below run the
// identical sequence, so scalar and vector results match bit-for-bit. The
// nearbyint/roundps pair agrees because both round-to-nearest-even under
// the default FP environment, which this project never changes.

constexpr float kExpLog2e = 1.442695040888963f;
constexpr float kExpClamp = 43.0f;
constexpr float kExpC7 = 1.52527338040598e-5f;  // ln2^7 / 7!
constexpr float kExpC6 = 1.54035303933816e-4f;  // ln2^6 / 6!
constexpr float kExpC5 = 1.33335581464284e-3f;  // ln2^5 / 5!
constexpr float kExpC4 = 9.61812910762848e-3f;  // ln2^4 / 4!
constexpr float kExpC3 = 5.55041086648216e-2f;  // ln2^3 / 3!
constexpr float kExpC2 = 2.40226506959101e-1f;  // ln2^2 / 2!
constexpr float kExpC1 = 6.93147180559945e-1f;  // ln2
constexpr float kExpC0 = 1.0f;

inline float ExpPolyScalar(float x) {
  float z = x * kExpLog2e;
  z = std::min(std::max(z, -kExpClamp), kExpClamp);
  const float nf = std::nearbyintf(z);
  const float r = z - nf;
  float p = kExpC7;
  p = p * r + kExpC6;
  p = p * r + kExpC5;
  p = p * r + kExpC4;
  p = p * r + kExpC3;
  p = p * r + kExpC2;
  p = p * r + kExpC1;
  p = p * r + kExpC0;
  // 2^n via the exponent field; n is integral and |n| <= 63 after the clamp.
  const uint32_t bits =
      static_cast<uint32_t>(static_cast<int>(nf) + 127) << 23;
  float s;
  std::memcpy(&s, &bits, sizeof(s));
  return p * s;
}

inline float SigmoidPolyScalar(float x) {
  return 1.0f / (1.0f + ExpPolyScalar(-x));
}

inline float TanhPolyScalar(float x) {
  const float e = ExpPolyScalar(x + x);
  return (e - 1.0f) / (e + 1.0f);
}

void SigmoidInPlaceScalar(float* v, size_t n) {
  for (size_t i = 0; i < n; ++i) v[i] = SigmoidPolyScalar(v[i]);
}

void TanhInPlaceScalar(float* v, size_t n) {
  for (size_t i = 0; i < n; ++i) v[i] = TanhPolyScalar(v[i]);
}

void LstmCellForwardScalar(const float* u, const float* f, const float* o,
                           const float* cand, const float* ci, float* co,
                           float* ho, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float c_new = u[i] * cand[i] + f[i] * ci[i];
    co[i] = c_new;
    ho[i] = o[i] * TanhPolyScalar(c_new);
  }
}

void LstmGatesScalar(const float* x, const float* wx, const float* bias,
                     const float* h, const float* wh, float* gates,
                     size_t row_begin, size_t row_end, int in_dim,
                     int hidden_dim, int n) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const float* x_row = x + i * static_cast<size_t>(in_dim);
    const float* h_row = h + i * static_cast<size_t>(hidden_dim);
    float* out = gates + i * static_cast<size_t>(n);
    std::memset(out, 0, static_cast<size_t>(n) * sizeof(float));
    for (int kk = 0; kk < in_dim; ++kk) {
      const float av = x_row[kk];
      if (av == 0.0f) continue;
      AxpyScalar(out, wx + static_cast<size_t>(kk) * n, av,
                 static_cast<size_t>(n));
    }
    AddAccScalar(out, bias, static_cast<size_t>(n));
    for (int kk = 0; kk < hidden_dim; ++kk) {
      const float av = h_row[kk];
      if (av == 0.0f) continue;
      AxpyScalar(out, wh + static_cast<size_t>(kk) * n, av,
                 static_cast<size_t>(n));
    }
  }
}

void LstmCellBackwardScalar(const float* u, const float* f, const float* o,
                            const float* cand, const float* co,
                            const float* ci, const float* dh, const float* dc,
                            float* dgu, float* dgf, float* dgo, float* dgc,
                            float* dci, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float tc = TanhPolyScalar(co[i]);
    const float dc_total = dc[i] + (dh[i] * o[i]) * (1.0f - tc * tc);
    dci[i] = dc_total * f[i];
    dgu[i] = (dc_total * cand[i]) * (u[i] * (1.0f - u[i]));
    dgf[i] = (dc_total * ci[i]) * (f[i] * (1.0f - f[i]));
    dgo[i] = (dh[i] * tc) * (o[i] * (1.0f - o[i]));
    dgc[i] = (dc_total * u[i]) * (1.0f - cand[i] * cand[i]);
  }
}

void SgdStepScalar(float* w, const float* g, float lr, float wd, size_t n) {
  for (size_t i = 0; i < n; ++i) w[i] -= lr * (g[i] + wd * w[i]);
}

void AdamStepScalar(float* w, const float* g, float* m, float* v, float beta1,
                    float beta2, float bc1, float bc2, float lr, float eps,
                    float wd, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float grad = g[i] + wd * w[i];
    m[i] = beta1 * m[i] + (1.0f - beta1) * grad;
    v[i] = beta2 * v[i] + ((1.0f - beta2) * grad) * grad;
    const float m_hat = m[i] / bc1;
    const float v_hat = v[i] / bc2;
    w[i] -= (lr * m_hat) / (std::sqrt(v_hat) + eps);
  }
}

void AdaMaxStepScalar(float* w, const float* g, float* m, float* u,
                      float beta1, float beta2, float bc1, float lr, float eps,
                      float wd, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float grad = g[i] + wd * w[i];
    m[i] = beta1 * m[i] + (1.0f - beta1) * grad;
    u[i] = std::max(beta2 * u[i], std::fabs(grad));
    w[i] -= (lr * (m[i] / bc1)) / (u[i] + eps);
  }
}

// Fixed combine tree of the canonical 8-lane dot decomposition.
float CombineLanes(const float lanes[8]) {
  const float s01 = lanes[0] + lanes[1];
  const float s23 = lanes[2] + lanes[3];
  const float s45 = lanes[4] + lanes[5];
  const float s67 = lanes[6] + lanes[7];
  return (s01 + s23) + (s45 + s67);
}

float DotScalar(const float* x, const float* y, size_t n) {
  float lanes[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int l = 0; l < 8; ++l) lanes[l] += x[i + l] * y[i + l];
  }
  for (int l = 0; i + l < n; ++l) lanes[l] += x[i + l] * y[i + l];
  return CombineLanes(lanes);
}

// Max-over-time spec for one later row i: columns [j_begin, k) replace the
// running max when strictly greater.
void MaxOverTimeRowScalar(const float* row, size_t i, int j_begin, int k,
                          float* out, int* argmax) {
  for (int j = j_begin; j < k; ++j) {
    if (row[j] > out[j]) {
      out[j] = row[j];
      if (argmax != nullptr) argmax[j] = static_cast<int>(i);
    }
  }
}

// --- AVX2 variants ----------------------------------------------------------
// target("avx2") only — no "fma", so the compiler cannot contract the
// explicit mul+add pairs below into fused multiply-adds, which would change
// rounding vs the scalar spec.

#if SQLFACIL_X86

__attribute__((target("avx2"))) void AxpyAvx2(float* dst, const float* x,
                                              float a, size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vd = _mm256_loadu_ps(dst + i);
    _mm256_storeu_ps(dst + i, _mm256_add_ps(vd, _mm256_mul_ps(va, vx)));
  }
  for (; i < n; ++i) dst[i] += a * x[i];
}

__attribute__((target("avx2"))) void AddAccAvx2(float* dst, const float* x,
                                                size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) dst[i] += x[i];
}

__attribute__((target("avx2"))) void SubAccAvx2(float* dst, const float* x,
                                                size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_sub_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) dst[i] -= x[i];
}

__attribute__((target("avx2"))) void MulAvx2(float* dst, const float* x,
                                             size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) dst[i] *= x[i];
}

__attribute__((target("avx2"))) void MulAccAvx2(float* dst, const float* x,
                                                const float* y, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod =
        _mm256_mul_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), prod));
  }
  for (; i < n; ++i) dst[i] += x[i] * y[i];
}

__attribute__((target("avx2"))) void ScaleAvx2(float* dst, float s,
                                               size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(dst + i), vs));
  }
  for (; i < n; ++i) dst[i] *= s;
}

__attribute__((target("avx2"))) void ReluAvx2(float* dst, size_t n) {
  // max_ps(v, 0) matches `v > 0 ? v : 0` for every input: on equality
  // (v == ±0) and on NaN in the first operand, maxps returns the second
  // operand (+0), exactly like the scalar branch.
  const __m256 zero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_max_ps(_mm256_loadu_ps(dst + i), zero));
  }
  for (; i < n; ++i) dst[i] = dst[i] > 0.0f ? dst[i] : 0.0f;
}

__attribute__((target("avx2"))) float DotAvx2(const float* x, const float* y,
                                              size_t n) {
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (int l = 0; i + l < n; ++l) lanes[l] += x[i + l] * y[i + l];
  return CombineLanes(lanes);
}

__attribute__((target("avx2"))) void SigmoidGradAccAvx2(float* dst,
                                                        const float* g,
                                                        const float* y,
                                                        size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy = _mm256_loadu_ps(y + i);
    const __m256 d = _mm256_mul_ps(vy, _mm256_sub_ps(one, vy));
    const __m256 t = _mm256_mul_ps(_mm256_loadu_ps(g + i), d);
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), t));
  }
  for (; i < n; ++i) dst[i] += g[i] * (y[i] * (1.0f - y[i]));
}

__attribute__((target("avx2"))) void TanhGradAccAvx2(float* dst,
                                                     const float* g,
                                                     const float* y,
                                                     size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy = _mm256_loadu_ps(y + i);
    const __m256 d = _mm256_sub_ps(one, _mm256_mul_ps(vy, vy));
    const __m256 t = _mm256_mul_ps(_mm256_loadu_ps(g + i), d);
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), t));
  }
  for (; i < n; ++i) dst[i] += g[i] * (1.0f - y[i] * y[i]);
}

__attribute__((target("avx2"))) void ReluGradAccAvx2(float* dst,
                                                     const float* g,
                                                     const float* y,
                                                     size_t n) {
  // cmp GT_OQ is false for y == ±0 and for NaN y, matching the scalar
  // `y > 0` branch; the masked lanes then add +0, same as the scalar path.
  const __m256 zero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask =
        _mm256_cmp_ps(_mm256_loadu_ps(y + i), zero, _CMP_GT_OQ);
    const __m256 t = _mm256_and_ps(_mm256_loadu_ps(g + i), mask);
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), t));
  }
  for (; i < n; ++i) dst[i] += y[i] > 0.0f ? g[i] : 0.0f;
}

__attribute__((target("avx2"))) void SgdStepAvx2(float* w, const float* g,
                                                 float lr, float wd,
                                                 size_t n) {
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 vwd = _mm256_set1_ps(wd);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vw = _mm256_loadu_ps(w + i);
    const __m256 grad =
        _mm256_add_ps(_mm256_loadu_ps(g + i), _mm256_mul_ps(vwd, vw));
    _mm256_storeu_ps(w + i, _mm256_sub_ps(vw, _mm256_mul_ps(vlr, grad)));
  }
  for (; i < n; ++i) w[i] -= lr * (g[i] + wd * w[i]);
}

__attribute__((target("avx2"))) void AdamStepAvx2(float* w, const float* g,
                                                  float* m, float* v,
                                                  float beta1, float beta2,
                                                  float bc1, float bc2,
                                                  float lr, float eps,
                                                  float wd, size_t n) {
  const __m256 vb1 = _mm256_set1_ps(beta1);
  const __m256 vb2 = _mm256_set1_ps(beta2);
  const __m256 vob1 = _mm256_set1_ps(1.0f - beta1);
  const __m256 vob2 = _mm256_set1_ps(1.0f - beta2);
  const __m256 vbc1 = _mm256_set1_ps(bc1);
  const __m256 vbc2 = _mm256_set1_ps(bc2);
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 veps = _mm256_set1_ps(eps);
  const __m256 vwd = _mm256_set1_ps(wd);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vw = _mm256_loadu_ps(w + i);
    const __m256 grad =
        _mm256_add_ps(_mm256_loadu_ps(g + i), _mm256_mul_ps(vwd, vw));
    const __m256 vm = _mm256_add_ps(
        _mm256_mul_ps(vb1, _mm256_loadu_ps(m + i)), _mm256_mul_ps(vob1, grad));
    _mm256_storeu_ps(m + i, vm);
    const __m256 vv =
        _mm256_add_ps(_mm256_mul_ps(vb2, _mm256_loadu_ps(v + i)),
                      _mm256_mul_ps(_mm256_mul_ps(vob2, grad), grad));
    _mm256_storeu_ps(v + i, vv);
    const __m256 m_hat = _mm256_div_ps(vm, vbc1);
    const __m256 v_hat = _mm256_div_ps(vv, vbc2);
    const __m256 denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), veps);
    const __m256 upd = _mm256_div_ps(_mm256_mul_ps(vlr, m_hat), denom);
    _mm256_storeu_ps(w + i, _mm256_sub_ps(vw, upd));
  }
  for (; i < n; ++i) {
    const float grad = g[i] + wd * w[i];
    m[i] = beta1 * m[i] + (1.0f - beta1) * grad;
    v[i] = beta2 * v[i] + ((1.0f - beta2) * grad) * grad;
    w[i] -= (lr * (m[i] / bc1)) / (std::sqrt(v[i] / bc2) + eps);
  }
}

__attribute__((target("avx2"))) void AdaMaxStepAvx2(float* w, const float* g,
                                                    float* m, float* u,
                                                    float beta1, float beta2,
                                                    float bc1, float lr,
                                                    float eps, float wd,
                                                    size_t n) {
  const __m256 vb1 = _mm256_set1_ps(beta1);
  const __m256 vb2 = _mm256_set1_ps(beta2);
  const __m256 vob1 = _mm256_set1_ps(1.0f - beta1);
  const __m256 vbc1 = _mm256_set1_ps(bc1);
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 veps = _mm256_set1_ps(eps);
  const __m256 vwd = _mm256_set1_ps(wd);
  const __m256 abs_mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vw = _mm256_loadu_ps(w + i);
    const __m256 grad =
        _mm256_add_ps(_mm256_loadu_ps(g + i), _mm256_mul_ps(vwd, vw));
    const __m256 vm = _mm256_add_ps(
        _mm256_mul_ps(vb1, _mm256_loadu_ps(m + i)), _mm256_mul_ps(vob1, grad));
    _mm256_storeu_ps(m + i, vm);
    // max_ps(b2*u, |grad|): both operands are non-negative for finite
    // inputs, so the tie-break (second operand on equality) is bit-neutral.
    const __m256 vu = _mm256_max_ps(_mm256_mul_ps(vb2, _mm256_loadu_ps(u + i)),
                                    _mm256_and_ps(grad, abs_mask));
    _mm256_storeu_ps(u + i, vu);
    const __m256 upd = _mm256_div_ps(_mm256_mul_ps(vlr, _mm256_div_ps(vm, vbc1)),
                                     _mm256_add_ps(vu, veps));
    _mm256_storeu_ps(w + i, _mm256_sub_ps(vw, upd));
  }
  for (; i < n; ++i) {
    const float grad = g[i] + wd * w[i];
    m[i] = beta1 * m[i] + (1.0f - beta1) * grad;
    u[i] = std::max(beta2 * u[i], std::fabs(grad));
    w[i] -= (lr * (m[i] / bc1)) / (u[i] + eps);
  }
}

// Lane-parallel twin of ExpPolyScalar: same clamp, same round, same Horner
// order, same exponent-bit scale.
__attribute__((target("avx2"))) inline __m256 ExpPolyAvx2(__m256 x) {
  __m256 z = _mm256_mul_ps(x, _mm256_set1_ps(kExpLog2e));
  z = _mm256_min_ps(_mm256_max_ps(z, _mm256_set1_ps(-kExpClamp)),
                    _mm256_set1_ps(kExpClamp));
  const __m256 nf =
      _mm256_round_ps(z, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256 r = _mm256_sub_ps(z, nf);
  __m256 p = _mm256_set1_ps(kExpC7);
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC6));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC5));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC4));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC3));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC2));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC1));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC0));
  const __m256i e = _mm256_cvtps_epi32(nf);
  const __m256 s = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(e, _mm256_set1_epi32(127)), 23));
  return _mm256_mul_ps(p, s);
}

__attribute__((target("avx2"))) inline __m256 SigmoidPolyAvx2(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  // xor with the sign mask is the same bit flip as scalar negation.
  const __m256 e = ExpPolyAvx2(_mm256_xor_ps(x, _mm256_set1_ps(-0.0f)));
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

__attribute__((target("avx2"))) inline __m256 TanhPolyAvx2(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = ExpPolyAvx2(_mm256_add_ps(x, x));
  return _mm256_div_ps(_mm256_sub_ps(e, one), _mm256_add_ps(e, one));
}

__attribute__((target("avx2"))) void SigmoidInPlaceAvx2(float* v, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(v + i, SigmoidPolyAvx2(_mm256_loadu_ps(v + i)));
  }
  for (; i < n; ++i) v[i] = SigmoidPolyScalar(v[i]);
}

__attribute__((target("avx2"))) void TanhInPlaceAvx2(float* v, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(v + i, TanhPolyAvx2(_mm256_loadu_ps(v + i)));
  }
  for (; i < n; ++i) v[i] = TanhPolyScalar(v[i]);
}

__attribute__((target("avx2"))) void LstmCellForwardAvx2(
    const float* u, const float* f, const float* o, const float* cand,
    const float* ci, float* co, float* ho, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 c_new =
        _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(u + i),
                                    _mm256_loadu_ps(cand + i)),
                      _mm256_mul_ps(_mm256_loadu_ps(f + i),
                                    _mm256_loadu_ps(ci + i)));
    _mm256_storeu_ps(co + i, c_new);
    _mm256_storeu_ps(
        ho + i, _mm256_mul_ps(_mm256_loadu_ps(o + i), TanhPolyAvx2(c_new)));
  }
  for (; i < n; ++i) {
    const float c_new = u[i] * cand[i] + f[i] * ci[i];
    co[i] = c_new;
    ho[i] = o[i] * TanhPolyScalar(c_new);
  }
}

__attribute__((target("avx2"))) void LstmCellBackwardAvx2(
    const float* u, const float* f, const float* o, const float* cand,
    const float* co, const float* ci, const float* dh, const float* dc,
    float* dgu, float* dgf, float* dgo, float* dgc, float* dci, size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vu = _mm256_loadu_ps(u + i);
    const __m256 vf = _mm256_loadu_ps(f + i);
    const __m256 vo = _mm256_loadu_ps(o + i);
    const __m256 vc = _mm256_loadu_ps(cand + i);
    const __m256 vdh = _mm256_loadu_ps(dh + i);
    const __m256 tc = TanhPolyAvx2(_mm256_loadu_ps(co + i));
    const __m256 dc_total = _mm256_add_ps(
        _mm256_loadu_ps(dc + i),
        _mm256_mul_ps(_mm256_mul_ps(vdh, vo),
                      _mm256_sub_ps(one, _mm256_mul_ps(tc, tc))));
    _mm256_storeu_ps(dci + i, _mm256_mul_ps(dc_total, vf));
    _mm256_storeu_ps(
        dgu + i,
        _mm256_mul_ps(_mm256_mul_ps(dc_total, vc),
                      _mm256_mul_ps(vu, _mm256_sub_ps(one, vu))));
    _mm256_storeu_ps(
        dgf + i,
        _mm256_mul_ps(_mm256_mul_ps(dc_total, _mm256_loadu_ps(ci + i)),
                      _mm256_mul_ps(vf, _mm256_sub_ps(one, vf))));
    _mm256_storeu_ps(
        dgo + i,
        _mm256_mul_ps(_mm256_mul_ps(vdh, tc),
                      _mm256_mul_ps(vo, _mm256_sub_ps(one, vo))));
    _mm256_storeu_ps(
        dgc + i,
        _mm256_mul_ps(_mm256_mul_ps(dc_total, vu),
                      _mm256_sub_ps(one, _mm256_mul_ps(vc, vc))));
  }
  for (; i < n; ++i) {
    const float tc = TanhPolyScalar(co[i]);
    const float dc_total = dc[i] + (dh[i] * o[i]) * (1.0f - tc * tc);
    dci[i] = dc_total * f[i];
    dgu[i] = (dc_total * cand[i]) * (u[i] * (1.0f - u[i]));
    dgf[i] = (dc_total * ci[i]) * (f[i] * (1.0f - f[i]));
    dgo[i] = (dh[i] * tc) * (o[i] * (1.0f - o[i]));
    dgc[i] = (dc_total * u[i]) * (1.0f - cand[i] * cand[i]);
  }
}

// Register-blocked matmul kernels. A saxpy through memory (load C, mul,
// add, store C per term) is a store-to-load latency chain, and a single ymm
// accumulator makes every term wait for the previous add. SaxpyRowAvx2
// instead holds up to eight 8-column groups of a C row in ymm accumulators
// across the whole reduction: the 64-column blocks, then every remaining
// whole group in one block, then a scalar tail, so every column count runs
// at full register width. Each C element still receives its a[r]*b[r][j]
// terms with r ascending, one rounding after the multiply and one after the
// add, and the same zero-skips, so results are bit-identical to the spec.

// c[j] += a[r * a_stride] * b[r * b_stride + j] for j < 8 * kGroups, r
// ascending over [r_begin, r_end), zero a entries skipped. GCC keeps acc[]
// in registers only when the group loops are fully unrolled (it spills the
// array otherwise), hence the pragmas.
template <int kGroups>
__attribute__((target("avx2"))) void SaxpyBlockAvx2(
    float* c, const float* a, size_t a_stride, const float* b,
    size_t b_stride, size_t r_begin, size_t r_end) {
  __m256 acc[kGroups];
#pragma GCC unroll 8
  for (int g = 0; g < kGroups; ++g) acc[g] = _mm256_loadu_ps(c + 8 * g);
  for (size_t r = r_begin; r < r_end; ++r) {
    const float av = a[r * a_stride];
    if (av == 0.0f) continue;
    const __m256 va = _mm256_set1_ps(av);
    const float* b_row = b + r * b_stride;
#pragma GCC unroll 8
    for (int g = 0; g < kGroups; ++g) {
      acc[g] = _mm256_add_ps(acc[g],
                             _mm256_mul_ps(va, _mm256_loadu_ps(b_row + 8 * g)));
    }
  }
#pragma GCC unroll 8
  for (int g = 0; g < kGroups; ++g) _mm256_storeu_ps(c + 8 * g, acc[g]);
}

// The same sum over all n columns of c.
__attribute__((target("avx2"))) void SaxpyRowAvx2(
    float* c, int n, const float* a, size_t a_stride, const float* b,
    size_t b_stride, size_t r_begin, size_t r_end) {
  using Block = void (*)(float*, const float*, size_t, const float*, size_t,
                         size_t, size_t);
  static constexpr Block kBlocks[8] = {
      nullptr,           SaxpyBlockAvx2<1>, SaxpyBlockAvx2<2>,
      SaxpyBlockAvx2<3>, SaxpyBlockAvx2<4>, SaxpyBlockAvx2<5>,
      SaxpyBlockAvx2<6>, SaxpyBlockAvx2<7>};
  int nb = 0;
  for (; nb + 64 <= n; nb += 64) {
    SaxpyBlockAvx2<8>(c + nb, a, a_stride, b + nb, b_stride, r_begin, r_end);
  }
  if (const int groups = (n - nb) / 8; groups > 0) {
    kBlocks[groups](c + nb, a, a_stride, b + nb, b_stride, r_begin, r_end);
    nb += 8 * groups;
  }
  for (; nb < n; ++nb) {
    float acc = c[nb];
    for (size_t r = r_begin; r < r_end; ++r) {
      const float av = a[r * a_stride];
      if (av == 0.0f) continue;
      acc += av * b[r * b_stride + nb];
    }
    c[nb] = acc;
  }
}

__attribute__((target("avx2"))) void MatMulRowsAvx2(
    const float* A, const float* B, float* C, size_t row_begin,
    size_t row_end, int k, int n) {
  for (size_t i = row_begin; i < row_end; ++i) {
    SaxpyRowAvx2(C + i * static_cast<size_t>(n), n,
                 A + i * static_cast<size_t>(k), 1, B,
                 static_cast<size_t>(n), 0, static_cast<size_t>(k));
  }
}

__attribute__((target("avx2"))) void LstmGatesAvx2(
    const float* x, const float* wx, const float* bias, const float* h,
    const float* wh, float* gates, size_t row_begin, size_t row_end,
    int in_dim, int hidden_dim, int n) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const float* x_row = x + i * static_cast<size_t>(in_dim);
    const float* h_row = h + i * static_cast<size_t>(hidden_dim);
    float* out = gates + i * static_cast<size_t>(n);
    int nb = 0;
    for (; nb + 64 <= n; nb += 64) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      __m256 acc4 = _mm256_setzero_ps();
      __m256 acc5 = _mm256_setzero_ps();
      __m256 acc6 = _mm256_setzero_ps();
      __m256 acc7 = _mm256_setzero_ps();
      for (int pass = 0; pass < 2; ++pass) {
        const float* a_row = pass == 0 ? x_row : h_row;
        const float* B = pass == 0 ? wx : wh;
        const int k = pass == 0 ? in_dim : hidden_dim;
        for (int kk = 0; kk < k; ++kk) {
          const float av = a_row[kk];
          if (av == 0.0f) continue;
          const __m256 va = _mm256_set1_ps(av);
          const float* b = B + static_cast<size_t>(kk) * n + nb;
          acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, _mm256_loadu_ps(b)));
          acc1 =
              _mm256_add_ps(acc1, _mm256_mul_ps(va, _mm256_loadu_ps(b + 8)));
          acc2 =
              _mm256_add_ps(acc2, _mm256_mul_ps(va, _mm256_loadu_ps(b + 16)));
          acc3 =
              _mm256_add_ps(acc3, _mm256_mul_ps(va, _mm256_loadu_ps(b + 24)));
          acc4 =
              _mm256_add_ps(acc4, _mm256_mul_ps(va, _mm256_loadu_ps(b + 32)));
          acc5 =
              _mm256_add_ps(acc5, _mm256_mul_ps(va, _mm256_loadu_ps(b + 40)));
          acc6 =
              _mm256_add_ps(acc6, _mm256_mul_ps(va, _mm256_loadu_ps(b + 48)));
          acc7 =
              _mm256_add_ps(acc7, _mm256_mul_ps(va, _mm256_loadu_ps(b + 56)));
        }
        if (pass == 0) {
          // Bias joins between the two products, matching the scalar spec.
          acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(bias + nb));
          acc1 = _mm256_add_ps(acc1, _mm256_loadu_ps(bias + nb + 8));
          acc2 = _mm256_add_ps(acc2, _mm256_loadu_ps(bias + nb + 16));
          acc3 = _mm256_add_ps(acc3, _mm256_loadu_ps(bias + nb + 24));
          acc4 = _mm256_add_ps(acc4, _mm256_loadu_ps(bias + nb + 32));
          acc5 = _mm256_add_ps(acc5, _mm256_loadu_ps(bias + nb + 40));
          acc6 = _mm256_add_ps(acc6, _mm256_loadu_ps(bias + nb + 48));
          acc7 = _mm256_add_ps(acc7, _mm256_loadu_ps(bias + nb + 56));
        }
      }
      float* c = out + nb;
      _mm256_storeu_ps(c, acc0);
      _mm256_storeu_ps(c + 8, acc1);
      _mm256_storeu_ps(c + 16, acc2);
      _mm256_storeu_ps(c + 24, acc3);
      _mm256_storeu_ps(c + 32, acc4);
      _mm256_storeu_ps(c + 40, acc5);
      _mm256_storeu_ps(c + 48, acc6);
      _mm256_storeu_ps(c + 56, acc7);
    }
    for (; nb + 8 <= n; nb += 8) {
      __m256 acc = _mm256_setzero_ps();
      for (int kk = 0; kk < in_dim; ++kk) {
        const float av = x_row[kk];
        if (av == 0.0f) continue;
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(_mm256_set1_ps(av),
                               _mm256_loadu_ps(
                                   wx + static_cast<size_t>(kk) * n + nb)));
      }
      acc = _mm256_add_ps(acc, _mm256_loadu_ps(bias + nb));
      for (int kk = 0; kk < hidden_dim; ++kk) {
        const float av = h_row[kk];
        if (av == 0.0f) continue;
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(_mm256_set1_ps(av),
                               _mm256_loadu_ps(
                                   wh + static_cast<size_t>(kk) * n + nb)));
      }
      _mm256_storeu_ps(out + nb, acc);
    }
    for (; nb < n; ++nb) {
      float acc = 0.0f;
      for (int kk = 0; kk < in_dim; ++kk) {
        const float av = x_row[kk];
        if (av == 0.0f) continue;
        acc += av * wx[static_cast<size_t>(kk) * n + nb];
      }
      acc += bias[nb];
      for (int kk = 0; kk < hidden_dim; ++kk) {
        const float av = h_row[kk];
        if (av == 0.0f) continue;
        acc += av * wh[static_cast<size_t>(kk) * n + nb];
      }
      out[nb] = acc;
    }
  }
}

__attribute__((target("avx2"))) void MatMulGradBRowsAvx2(
    const float* A, const float* G, float* dB, int m, size_t k_begin,
    size_t k_end, int k, int n) {
  // Row kk of dB is a saxpy over rows of G weighted by column kk of A, i
  // ascending with the generic loop's zero-skips. The i range is tiled so a
  // G slice stays L1-resident across the kk sweep — without the tile, each
  // kk re-streams the whole G matrix, which is ruinous when m is thousands
  // of rows (the fused LSTM's one-pass weight grads). Tiling cannot reorder
  // anything: for a fixed dB element the tiles visit i in ascending runs.
  constexpr size_t kIBlock = 32;
  const size_t rows = static_cast<size_t>(m);
  for (size_t ib = 0; ib < rows; ib += kIBlock) {
    const size_t ie = std::min(rows, ib + kIBlock);
    for (size_t kk = k_begin; kk < k_end; ++kk) {
      SaxpyRowAvx2(dB + kk * static_cast<size_t>(n), n, A + kk,
                   static_cast<size_t>(k), G, static_cast<size_t>(n), ib, ie);
    }
  }
}

// out[t] (+)= Dot(g, b + t * n) for t < 8, sharing each g load. Each dot
// keeps its own 8-lane accumulator, and the lane tail adds g[j+l] * b[j+l]
// to lane l as DotScalar does. Its dead lanes load zeros and add +0, which
// changes nothing: a lane starts at +0, so it never holds -0. The lanes
// combine in registers in CombineLanes' tree: hadd adds adjacent lane pairs
// within each 128-bit half, so two hadd rounds leave (l0+l1)+(l2+l3) of
// four dots in the low half and (l4+l5)+(l6+l7) in the high half;
// permute2f128 lines the halves of all eight dots up for the final add.
template <bool kAssign>
__attribute__((target("avx2"))) void EightDotsAvx2(const float* g,
                                                   const float* b, int n,
                                                   float* out) {
  __m256 acc[8];
  for (int t = 0; t < 8; ++t) acc[t] = _mm256_setzero_ps();
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 vg = _mm256_loadu_ps(g + j);
    for (int t = 0; t < 8; ++t) {
      const __m256 vb = _mm256_loadu_ps(b + static_cast<size_t>(t) * n + j);
      acc[t] = _mm256_add_ps(acc[t], _mm256_mul_ps(vg, vb));
    }
  }
  if (j < n) {
    const __m256i live = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(n - j), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    const __m256 vg = _mm256_maskload_ps(g + j, live);
    for (int t = 0; t < 8; ++t) {
      const __m256 vb =
          _mm256_maskload_ps(b + static_cast<size_t>(t) * n + j, live);
      acc[t] = _mm256_add_ps(acc[t], _mm256_mul_ps(vg, vb));
    }
  }
  const __m256 q0 = _mm256_hadd_ps(_mm256_hadd_ps(acc[0], acc[1]),
                                   _mm256_hadd_ps(acc[2], acc[3]));
  const __m256 q1 = _mm256_hadd_ps(_mm256_hadd_ps(acc[4], acc[5]),
                                   _mm256_hadd_ps(acc[6], acc[7]));
  __m256 dots = _mm256_add_ps(_mm256_permute2f128_ps(q0, q1, 0x20),
                              _mm256_permute2f128_ps(q0, q1, 0x31));
  if constexpr (!kAssign) dots = _mm256_add_ps(_mm256_loadu_ps(out), dots);
  _mm256_storeu_ps(out, dots);
}

template <bool kAssign>
__attribute__((target("avx2"))) void MatMulGradARowsAvx2(
    const float* G, const float* B, float* dA, size_t row_begin,
    size_t row_end, int k, int n) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const float* g_row = G + i * static_cast<size_t>(n);
    float* da_row = dA + i * static_cast<size_t>(k);
    int kk = 0;
    for (; kk + 8 <= k; kk += 8) {
      EightDotsAvx2<kAssign>(g_row, B + static_cast<size_t>(kk) * n, n,
                             da_row + kk);
    }
    for (; kk < k; ++kk) {
      const float dot = DotAvx2(g_row, B + static_cast<size_t>(kk) * n,
                                static_cast<size_t>(n));
      da_row[kk] = kAssign ? dot : da_row[kk] + dot;
    }
  }
}

__attribute__((target("avx2"))) void MaxOverTimeRowsAvx2(
    const float* X, size_t row_begin, size_t row_end, int k, float* out,
    int* argmax) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const float* row = X + i * static_cast<size_t>(k);
    const __m256 row_id =
        _mm256_castsi256_ps(_mm256_set1_epi32(static_cast<int>(i)));
    int j = 0;
    for (; j + 8 <= k; j += 8) {
      const __m256 x = _mm256_loadu_ps(row + j);
      const __m256 best = _mm256_loadu_ps(out + j);
      // GT_OQ is false on equality (either sign of zero) and when either
      // side is NaN, exactly like the scalar `>`.
      const __m256 take = _mm256_cmp_ps(x, best, _CMP_GT_OQ);
      _mm256_storeu_ps(out + j, _mm256_blendv_ps(best, x, take));
      if (argmax != nullptr) {
        __m256i* arg = reinterpret_cast<__m256i*>(argmax + j);
        const __m256 prev = _mm256_castsi256_ps(_mm256_loadu_si256(arg));
        _mm256_storeu_si256(
            arg, _mm256_castps_si256(_mm256_blendv_ps(prev, row_id, take)));
      }
    }
    MaxOverTimeRowScalar(row, i, j, k, out, argmax);
  }
}

#endif  // SQLFACIL_X86

}  // namespace

bool HasAvx2() {
#if SQLFACIL_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool HasAvxVnni() {
#if SQLFACIL_X86
  return __builtin_cpu_supports("avxvnni") != 0;
#else
  return false;
#endif
}

bool Enabled() {
  InitOnce();
  return g_enabled.load(std::memory_order_relaxed);
}

void SetEnabled(bool on) {
  InitOnce();
  g_enabled.store(on && HasAvx2(), std::memory_order_relaxed);
}

std::string DispatchReport() {
  InitOnce();
  const bool avx2 = HasAvx2();
  const bool on = g_enabled.load(std::memory_order_relaxed);
  const bool int8 = quant::ActivePrecision() == quant::Precision::kInt8;
  std::string report = "simd dispatch: avx2=";
  report += avx2 ? "yes" : "no";
  report += " float-kernels=";
  report += on ? "avx2" : "scalar";
  report += " precision=";
  report += int8 ? "int8" : "fp32";
  report += " int8-kernels=";
  report += on ? (HasAvxVnni() ? "avx2+vnni" : "avx2") : "scalar";
  if (int8 && !avx2) {
    report += " (AVX2 unavailable: int8 tier runs the scalar reference path)";
  }
  return report;
}

void LogDispatchOnce() {
  static std::once_flag logged;
  std::call_once(logged,
                 [] { std::cerr << "[sqlfacil] " << DispatchReport() << "\n"; });
}

void Axpy(float* dst, const float* x, float a, size_t n) {
#if SQLFACIL_X86
  if (Enabled()) return AxpyAvx2(dst, x, a, n);
#endif
  AxpyScalar(dst, x, a, n);
}

void AddAcc(float* dst, const float* x, size_t n) {
#if SQLFACIL_X86
  if (Enabled()) return AddAccAvx2(dst, x, n);
#endif
  AddAccScalar(dst, x, n);
}

void SubAcc(float* dst, const float* x, size_t n) {
#if SQLFACIL_X86
  if (Enabled()) return SubAccAvx2(dst, x, n);
#endif
  SubAccScalar(dst, x, n);
}

void Mul(float* dst, const float* x, size_t n) {
#if SQLFACIL_X86
  if (Enabled()) return MulAvx2(dst, x, n);
#endif
  MulScalar(dst, x, n);
}

void MulAcc(float* dst, const float* x, const float* y, size_t n) {
#if SQLFACIL_X86
  if (Enabled()) return MulAccAvx2(dst, x, y, n);
#endif
  MulAccScalar(dst, x, y, n);
}

void Scale(float* dst, float s, size_t n) {
#if SQLFACIL_X86
  if (Enabled()) return ScaleAvx2(dst, s, n);
#endif
  ScaleScalar(dst, s, n);
}

void Relu(float* dst, size_t n) {
#if SQLFACIL_X86
  if (Enabled()) return ReluAvx2(dst, n);
#endif
  ReluScalar(dst, n);
}

void SigmoidGradAcc(float* dst, const float* g, const float* y, size_t n) {
#if SQLFACIL_X86
  if (Enabled()) return SigmoidGradAccAvx2(dst, g, y, n);
#endif
  SigmoidGradAccScalar(dst, g, y, n);
}

void TanhGradAcc(float* dst, const float* g, const float* y, size_t n) {
#if SQLFACIL_X86
  if (Enabled()) return TanhGradAccAvx2(dst, g, y, n);
#endif
  TanhGradAccScalar(dst, g, y, n);
}

void ReluGradAcc(float* dst, const float* g, const float* y, size_t n) {
#if SQLFACIL_X86
  if (Enabled()) return ReluGradAccAvx2(dst, g, y, n);
#endif
  ReluGradAccScalar(dst, g, y, n);
}

void SigmoidInPlace(float* v, size_t n) {
#if SQLFACIL_X86
  if (Enabled()) return SigmoidInPlaceAvx2(v, n);
#endif
  SigmoidInPlaceScalar(v, n);
}

void TanhInPlace(float* v, size_t n) {
#if SQLFACIL_X86
  if (Enabled()) return TanhInPlaceAvx2(v, n);
#endif
  TanhInPlaceScalar(v, n);
}

void LstmCellForward(const float* u, const float* f, const float* o,
                     const float* cand, const float* ci, float* co, float* ho,
                     size_t n) {
#if SQLFACIL_X86
  if (Enabled()) return LstmCellForwardAvx2(u, f, o, cand, ci, co, ho, n);
#endif
  LstmCellForwardScalar(u, f, o, cand, ci, co, ho, n);
}

void LstmGates(const float* x, const float* wx, const float* bias,
               const float* h, const float* wh, float* gates,
               size_t row_begin, size_t row_end, int in_dim, int hidden_dim,
               int n) {
#if SQLFACIL_X86
  if (Enabled())
    return LstmGatesAvx2(x, wx, bias, h, wh, gates, row_begin, row_end,
                         in_dim, hidden_dim, n);
#endif
  LstmGatesScalar(x, wx, bias, h, wh, gates, row_begin, row_end, in_dim,
                  hidden_dim, n);
}

void LstmCellBackward(const float* u, const float* f, const float* o,
                      const float* cand, const float* co, const float* ci,
                      const float* dh, const float* dc, float* dgu, float* dgf,
                      float* dgo, float* dgc, float* dci, size_t n) {
#if SQLFACIL_X86
  if (Enabled())
    return LstmCellBackwardAvx2(u, f, o, cand, co, ci, dh, dc, dgu, dgf, dgo,
                                dgc, dci, n);
#endif
  LstmCellBackwardScalar(u, f, o, cand, co, ci, dh, dc, dgu, dgf, dgo, dgc,
                         dci, n);
}

void SgdStep(float* w, const float* g, float lr, float wd, size_t n) {
#if SQLFACIL_X86
  if (Enabled()) return SgdStepAvx2(w, g, lr, wd, n);
#endif
  SgdStepScalar(w, g, lr, wd, n);
}

void AdamStep(float* w, const float* g, float* m, float* v, float beta1,
              float beta2, float bc1, float bc2, float lr, float eps,
              float wd, size_t n) {
#if SQLFACIL_X86
  if (Enabled())
    return AdamStepAvx2(w, g, m, v, beta1, beta2, bc1, bc2, lr, eps, wd, n);
#endif
  AdamStepScalar(w, g, m, v, beta1, beta2, bc1, bc2, lr, eps, wd, n);
}

void AdaMaxStep(float* w, const float* g, float* m, float* u, float beta1,
                float beta2, float bc1, float lr, float eps, float wd,
                size_t n) {
#if SQLFACIL_X86
  if (Enabled())
    return AdaMaxStepAvx2(w, g, m, u, beta1, beta2, bc1, lr, eps, wd, n);
#endif
  AdaMaxStepScalar(w, g, m, u, beta1, beta2, bc1, lr, eps, wd, n);
}

float Dot(const float* x, const float* y, size_t n) {
#if SQLFACIL_X86
  if (Enabled()) return DotAvx2(x, y, n);
#endif
  return DotScalar(x, y, n);
}

void MatMulRows(const float* A, const float* B, float* C, size_t row_begin,
                size_t row_end, int k, int n) {
#if SQLFACIL_X86
  if (Enabled()) return MatMulRowsAvx2(A, B, C, row_begin, row_end, k, n);
#endif
  constexpr int kTile = 128;
  for (int kb = 0; kb < k; kb += kTile) {
    const int ke = std::min(k, kb + kTile);
    for (size_t i = row_begin; i < row_end; ++i) {
      const float* a_row = A + i * static_cast<size_t>(k);
      float* c_row = C + i * static_cast<size_t>(n);
      for (int kk = kb; kk < ke; ++kk) {
        const float av = a_row[kk];
        // Zero rows are common (embedding padding, relu output); skipping
        // them is exact: the skipped saxpy would add ±0 everywhere.
        if (av == 0.0f) continue;
        Axpy(c_row, B + static_cast<size_t>(kk) * n, av,
             static_cast<size_t>(n));
      }
    }
  }
}

void MatMulGradARows(const float* G, const float* B, float* dA,
                     size_t row_begin, size_t row_end, int k, int n) {
#if SQLFACIL_X86
  if (Enabled())
    return MatMulGradARowsAvx2<false>(G, B, dA, row_begin, row_end, k, n);
#endif
  for (size_t i = row_begin; i < row_end; ++i) {
    const float* g_row = G + i * static_cast<size_t>(n);
    float* da_row = dA + i * static_cast<size_t>(k);
    for (int kk = 0; kk < k; ++kk) {
      da_row[kk] += Dot(g_row, B + static_cast<size_t>(kk) * n,
                        static_cast<size_t>(n));
    }
  }
}

void MatMulGradARowsTo(const float* G, const float* B, float* dA,
                       size_t row_begin, size_t row_end, int k, int n) {
#if SQLFACIL_X86
  if (Enabled())
    return MatMulGradARowsAvx2<true>(G, B, dA, row_begin, row_end, k, n);
#endif
  for (size_t i = row_begin; i < row_end; ++i) {
    const float* g_row = G + i * static_cast<size_t>(n);
    float* da_row = dA + i * static_cast<size_t>(k);
    for (int kk = 0; kk < k; ++kk) {
      da_row[kk] = Dot(g_row, B + static_cast<size_t>(kk) * n,
                       static_cast<size_t>(n));
    }
  }
}

void MatMulGradBRows(const float* A, const float* G, float* dB, int m,
                     size_t k_begin, size_t k_end, int k, int n) {
#if SQLFACIL_X86
  if (Enabled())
    return MatMulGradBRowsAvx2(A, G, dB, m, k_begin, k_end, k, n);
#endif
  for (int i = 0; i < m; ++i) {
    const float* a_row = A + static_cast<size_t>(i) * k;
    const float* g_row = G + static_cast<size_t>(i) * n;
    for (size_t kk = k_begin; kk < k_end; ++kk) {
      const float av = a_row[kk];
      if (av == 0.0f) continue;
      Axpy(dB + kk * static_cast<size_t>(n), g_row, av,
           static_cast<size_t>(n));
    }
  }
}

void MaxOverTime(const float* X, size_t row_begin, size_t row_end, int k,
                 float* out, int* argmax) {
  std::memcpy(out, X + row_begin * static_cast<size_t>(k),
              static_cast<size_t>(k) * sizeof(float));
  if (argmax != nullptr) std::fill_n(argmax, k, static_cast<int>(row_begin));
#if SQLFACIL_X86
  if (Enabled())
    return MaxOverTimeRowsAvx2(X, row_begin + 1, row_end, k, out, argmax);
#endif
  for (size_t i = row_begin + 1; i < row_end; ++i) {
    MaxOverTimeRowScalar(X + i * static_cast<size_t>(k), i, 0, k, out,
                         argmax);
  }
}

}  // namespace sqlfacil::nn::simd
