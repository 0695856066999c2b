#ifndef SQLFACIL_NN_INFER_H_
#define SQLFACIL_NN_INFER_H_

#include <cstddef>
#include <cstdint>

#include "sqlfacil/nn/quant.h"

namespace sqlfacil::nn::infer {

/// Graph-free forward kernels: the CNN and LSTM models run Predict,
/// PredictBatch and validation on these, and autograd only to train. Each
/// kernel performs exactly the per-element operations (and operation order)
/// of the corresponding autograd op's forward pass, so a graph-free forward
/// is bit-identical to the graph a training step builds — nn_test pins that
/// equivalence for the CNN forward.

/// C = A @ B for (m x k) @ (k x n); zeroes C first (the autograd op writes
/// into a zero-initialized Tensor) and accumulates with simd::MatMulRows,
/// the saxpy kernel the autograd forward uses.
void MatMul(const float* A, const float* B, float* C, int m, int k, int n);

/// X[i, :] += bias[:] for each of `rows` rows (broadcast nn::Add).
void BiasAdd(float* X, const float* bias, int rows, int cols);

/// out[i, :] = table[ids[i], :], zero row when ids[i] < 0 (nn::Rows).
void GatherRows(const float* table, int d, const int* ids, int n,
                float* out);

/// out = sliding windows of `in` (t x d) at width `window`:
/// out[(t - window + 1) x (window * d)] (nn::Unfold).
void Unfold(const float* in, int t, int d, int window, float* out);

/// In-place softmax over v[0..n): float max, float exp(v - max), the
/// denominator accumulated in double, then v = float(v / denom). This is
/// the exact sequence every model's Predict uses on its logits, shared here
/// so the fast path and the cache key the same numbers.
void SoftmaxInPlace(float* v, size_t n);

// --- Loss values ------------------------------------------------------------
// The one definition of each loss's value: the autograd loss ops report it
// as their forward, and validation scores logits with it directly. Each
// returns float(sum of per-row losses in double / b).

/// Mean softmax cross-entropy of `b` rows of `c` logits against `labels`:
/// per row, probabilities float(exp(double(l - max)) / denom) with the
/// denominator summed in double, then -log(max(1e-12, p[label])). `probs`
/// (b x c), when non-null, receives the probabilities.
float SoftmaxCrossEntropy(const float* logits, int b, int c,
                          const int* labels, float* probs);

/// Mean Huber loss of `b` scalar predictions: r = pred - target,
/// 0.5 r^2 inside `delta`, delta (|r| - 0.5 delta) outside. `residuals`,
/// when non-null, receives r.
float HuberLoss(const float* pred, const float* targets, int b, float delta,
                float* residuals);

/// Mean 0.5 r^2 of `b` scalar predictions; `residuals` as in HuberLoss.
float SquaredLoss(const float* pred, const float* targets, int b,
                  float* residuals);

// --- Int8 tier wrappers (nn/quant.h scheme, nn/simd_int8.h kernels) --------

/// out[i, :] = qtable[ids[i], :] for u8-quantized embedding rows; ids[i] < 0
/// (padding) yields a row of the activation zero point 128 (the quantized
/// zero row). Rows are `stride` bytes apart in `out`; the d..stride tail of
/// each row is padded with 128 so quad-dot kernels read exact zeros.
void Int8GatherRows(const uint8_t* qtable, int d, const int* ids, int n,
                    uint8_t* out, int stride);

/// u8 Unfold: out row i = window*d bytes starting at input row i, written
/// with rows `stride` bytes apart, tail padded with the zero point 128.
void Int8Unfold(const uint8_t* in, int t, int d, int window, uint8_t* out,
                int stride);

/// Quantized matmul + dequant: C (m x W.n fp32, row stride W.n) =
/// float(A_q @ W_q - corr) * (act_scale * W.scale) + bias. A holds m u8
/// rows `a_stride` bytes apart covering W's padded reduction length
/// (4 * W.k4 bytes, tail at the zero point); `acc` is caller scratch of
/// m x W.n_pad int32.
void Int8MatMul(const uint8_t* A, int a_stride,
                const quant::QuantizedTensor& W, float act_scale,
                const float* bias, int m, int32_t* acc, float* C);

}  // namespace sqlfacil::nn::infer

#endif  // SQLFACIL_NN_INFER_H_
