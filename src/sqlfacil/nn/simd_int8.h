#ifndef SQLFACIL_NN_SIMD_INT8_H_
#define SQLFACIL_NN_SIMD_INT8_H_

#include <cstddef>
#include <cstdint>

namespace sqlfacil::nn::simd {

/// Int8 kernel family of the quantized inference tier (see nn/quant.h for
/// the numeric scheme). Dispatch follows the float kernels' level
/// (nn/simd.h): the AVX2 variants run at both vector levels. The scalar
/// fallbacks are the spec and are bit-identical — for integer kernels
/// trivially so (integer addition is exact and order-independent), for the
/// dequant kernels by the usual one-rounding-per-op discipline.
///
/// The integer contract: an output element is
///   C[i][j] = sum over quads q of
///             sat16(a0*b0 + a1*b1) + sat16(a2*b2 + a3*b3)
/// where a* are the four u8 activation bytes of quad q (zero point 128) and
/// b* the four packed s8 weight bytes of column j — exactly the
/// _mm256_maddubs_epi16 -> _mm256_madd_epi16(ones) -> _mm256_add_epi32
/// sequence. With weights clamped to +-63 (quant.h) the sat16 never clips,
/// so the sum equals the exact integer dot product and the caller's
/// zero-point correction (col_corr) is exact.

/// C[i][:] = quad-dot of A row i against packed B, rows [row_begin, row_end).
/// A rows are u8, `a_stride` bytes apart, holding 4*k4 bytes (tail padded
/// with the zero point 128); B is QuantizedTensor::packed (k4 x n_pad x 4);
/// C rows are `c_stride` int32 apart, n_pad written per row. Row i of C
/// depends only on row i of A, so any row partition is bit-identical.
void Int8GemmRows(const uint8_t* A, size_t a_stride, const int8_t* packedB,
                  int k4, int n_pad, int32_t* C, size_t c_stride,
                  size_t row_begin, size_t row_end);

/// Same contract as Int8GemmRows, plus the QuantizedTensor precondition
/// that every packed code lies within +-kWeightQmax (+-63, enforced by the
/// quantizer and re-validated on checkpoint load). In that range the
/// pairwise sat16 of the quad-dot spec can never clip, so the result equals
/// the exact integer dot product and is bit-identical to Int8GemmRows on
/// every dispatch path. The inference hot paths call this variant because
/// the no-saturation guarantee unlocks AVX-VNNI's vpdpbusd (one fused
/// u8 x s8 quad-dot-accumulate instead of maddubs/madd/add) when the CPU
/// has it; Int8GemmRows remains the general kernel for arbitrary bytes and
/// keeps the saturation semantics testable.
void Int8GemmRowsNoSat(const uint8_t* A, size_t a_stride,
                       const int8_t* packedB, int k4, int n_pad, int32_t* C,
                       size_t c_stride, size_t row_begin, size_t row_end);

/// out[i][j] = base[i*base_stride + j] + float(acc[i][j] - col_corr[j]) *
/// scale for j in [0, n), rows [row_begin, row_end). base_stride 0
/// broadcasts one base row (a bias); the LSTM layer-0 path passes the
/// gathered fp32 token->gate rows instead. Elementwise: int subtract exact,
/// then one rounding for the mul and one for the add on both paths.
void Int8DequantRows(const int32_t* acc, size_t acc_stride,
                     const int32_t* col_corr, float scale, const float* base,
                     size_t base_stride, float* out, size_t out_stride,
                     size_t row_begin, size_t row_end, int n);

/// Dispatched activation quantization; the scalar spec is
/// quant::QuantizeActivations (nearbyintf == _mm256_round_ps nearest-even).
void Int8Quantize(const float* x, size_t n, float inv_scale, uint8_t* q);

/// Int8GemmRowsNoSat's path at the active level, for DispatchReport:
/// "scalar", "avx2" or "avx2+vnni".
const char* Int8KernelPath();

}  // namespace sqlfacil::nn::simd

#endif  // SQLFACIL_NN_SIMD_INT8_H_
