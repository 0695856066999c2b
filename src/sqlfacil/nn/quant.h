#ifndef SQLFACIL_NN_QUANT_H_
#define SQLFACIL_NN_QUANT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sqlfacil::nn::quant {

/// The int8 inference tier. fp32 is the float kernel family whose
/// determinism contract lives in nn/simd.h; int8 is the quantized family of
/// nn/simd_int8.h. A model serves int8 once Model::Quantize has built its
/// tier (or a quantized checkpoint was loaded), so the tier belongs to the
/// model, not the process. The determinism contract holds *within* each
/// tier: int8 results are bit-identical across SQLFACIL_THREADS x
/// SQLFACIL_SIMD, but (by design) differ from fp32 results.
///
/// Quantization scheme (the tier's numeric definition, not a tunable):
///
///   weights      s8, per-tensor symmetric, range +-63:
///                  q = clamp(nearbyintf(w / scale), -63, 63),
///                  scale = max|w| / 63
///   activations  u8, zero point 128, per-tensor symmetric range +-127:
///                  q = clamp(nearbyintf(x / scale), -127, 127) + 128,
///                  scale = max|x| / 127   (from calibration)
///
/// Weights stop at +-63 so a maddubs pair term |a'*b0 + a''*b1| is at most
/// 2 * 255 * 63 = 32130 < 2^15: the s16 pairwise saturation of
/// _mm256_maddubs_epi16 can never clip, integer accumulation stays exact,
/// and the zero-point correction  acc - 128 * sum_k(q_w[k][j])  recovers the
/// symmetric product exactly. nearbyintf (round-to-nearest-even) matches
/// _mm256_round_ps/_mm256_cvtps_epi32 under the default rounding mode, so
/// scalar and AVX2 quantize identically.
inline constexpr int kWeightQmax = 63;
inline constexpr int kActQmax = 127;
inline constexpr int kActZeroPoint = 128;

/// A per-tensor-quantized weight matrix, packed for the u8 x s8 quad-dot
/// kernel (simd::Int8GemmRows). Logical shape (k x n) row-major fp32 ->
/// k zero-padded up to a multiple of 4, n zero-padded up to a multiple of 8,
/// layout packed[q][j][0..3] = q_w[4q + 0..3][j] for quad q in [0, k4) and
/// column j in [0, n_pad). Zero-padded weight bytes contribute exactly 0
/// against the activation zero point, so padding never changes a result.
struct QuantizedTensor {
  int k = 0;       // logical reduction dim
  int n = 0;       // logical output dim
  int k4 = 0;      // ceil(k / 4): quads per column
  int n_pad = 0;   // n rounded up to 8
  float scale = 0.0f;                // w = scale * q
  std::vector<int8_t> packed;        // k4 * n_pad * 4 bytes
  std::vector<int32_t> col_corr;     // n_pad: 128 * sum_k q_w[k][j]

  bool empty() const { return packed.empty(); }
  /// Dequantized logical element (round-trip tests / reference math).
  float Dequant(int kk, int j) const {
    return scale *
           static_cast<float>(packed[(static_cast<size_t>(kk / 4) * n_pad +
                                      static_cast<size_t>(j)) *
                                         4 +
                                     (kk % 4)]);
  }
};

/// Quantizes a (k x n) row-major fp32 weight matrix per the scheme above.
QuantizedTensor QuantizeWeights(const float* w, int k, int n);

/// Rebuilds col_corr from the packed bytes (checkpoint loads store only the
/// bytes; the correction is derived data). Padding bytes are zero, so the
/// sum over all k4 quads equals the sum over the logical k rows.
void ComputeColCorr(QuantizedTensor* q);

/// Activation quantization: q[i] = clamp(nearbyintf(x[i] * inv_scale),
/// -127, 127) + 128. `inv_scale` is 127 / max|x| from calibration. Scalar
/// spec; the AVX2 variant in simd_int8.cc is bit-identical.
void QuantizeActivations(const float* x, size_t n, float inv_scale,
                         uint8_t* q);

/// Max-abs range tracker for one activation tensor over a calibration split.
struct Calibration {
  float max_abs = 0.0f;
  void Observe(const float* x, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const float a = x[i] < 0 ? -x[i] : x[i];
      if (a > max_abs) max_abs = a;
    }
  }
  /// u8 activation scale (floor keeps inv_scale finite on all-zero ranges).
  float scale() const {
    return (max_abs > 1e-8f ? max_abs : 1e-8f) / 127.0f;
  }
};

}  // namespace sqlfacil::nn::quant

#endif  // SQLFACIL_NN_QUANT_H_
