#include "sqlfacil/nn/simd_int8.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "sqlfacil/nn/quant.h"
#include "sqlfacil/nn/simd.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define SQLFACIL_X86 1
#else
#define SQLFACIL_X86 0
#endif

// AVX-VNNI needs compiler support for the avxvnni target (GCC 11+,
// Clang 12+); older toolchains just never build the vpdpbusd variant and
// the NoSat dispatcher falls through to the AVX2/scalar paths.
#if SQLFACIL_X86 && ((defined(__GNUC__) && !defined(__clang__) && \
                      __GNUC__ >= 11) ||                          \
                     (defined(__clang__) && __clang_major__ >= 12))
#define SQLFACIL_INT8_VNNI 1
#else
#define SQLFACIL_INT8_VNNI 0
#endif

namespace sqlfacil::nn::simd {

namespace {

// --- Scalar fallbacks -------------------------------------------------------
// The scalar quad-dot is the integer spec: the sat16 clamp replicates
// _mm256_maddubs_epi16's pairwise saturation exactly (it never fires with
// +-63 weights, but the spec keeps it so the kernels stay equivalent for
// any packed bytes a test may construct).

inline int32_t Sat16(int32_t v) {
  return std::clamp(v, static_cast<int32_t>(-32768),
                    static_cast<int32_t>(32767));
}

void Int8GemmRowsScalar(const uint8_t* A, size_t a_stride,
                        const int8_t* packedB, int k4, int n_pad, int32_t* C,
                        size_t c_stride, size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const uint8_t* a = A + i * a_stride;
    int32_t* c = C + i * c_stride;
    for (int j = 0; j < n_pad; ++j) c[j] = 0;
    for (int q = 0; q < k4; ++q) {
      const int32_t a0 = a[4 * q + 0], a1 = a[4 * q + 1];
      const int32_t a2 = a[4 * q + 2], a3 = a[4 * q + 3];
      const int8_t* b = packedB + static_cast<size_t>(q) * n_pad * 4;
      for (int j = 0; j < n_pad; ++j) {
        const int8_t* bj = b + 4 * j;
        c[j] += Sat16(a0 * bj[0] + a1 * bj[1]) +
                Sat16(a2 * bj[2] + a3 * bj[3]);
      }
    }
  }
}

// No-saturation spec: the exact integer dot product. Equals the saturating
// quad-dot bit-for-bit whenever the packed codes honor the +-63 invariant
// (the caller's precondition for Int8GemmRowsNoSat).
void Int8GemmRowsNoSatScalar(const uint8_t* A, size_t a_stride,
                             const int8_t* packedB, int k4, int n_pad,
                             int32_t* C, size_t c_stride, size_t row_begin,
                             size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const uint8_t* a = A + i * a_stride;
    int32_t* c = C + i * c_stride;
    for (int j = 0; j < n_pad; ++j) c[j] = 0;
    for (int q = 0; q < k4; ++q) {
      const int32_t a0 = a[4 * q + 0], a1 = a[4 * q + 1];
      const int32_t a2 = a[4 * q + 2], a3 = a[4 * q + 3];
      const int8_t* b = packedB + static_cast<size_t>(q) * n_pad * 4;
      for (int j = 0; j < n_pad; ++j) {
        const int8_t* bj = b + 4 * j;
        c[j] += a0 * bj[0] + a1 * bj[1] + a2 * bj[2] + a3 * bj[3];
      }
    }
  }
}

void Int8DequantRowsScalar(const int32_t* acc, size_t acc_stride,
                           const int32_t* col_corr, float scale,
                           const float* base, size_t base_stride, float* out,
                           size_t out_stride, size_t row_begin, size_t row_end,
                           int n) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const int32_t* a = acc + i * acc_stride;
    const float* b = base + i * base_stride;
    float* o = out + i * out_stride;
    for (int j = 0; j < n; ++j) {
      o[j] = b[j] + static_cast<float>(a[j] - col_corr[j]) * scale;
    }
  }
}

// --- AVX2 variants ----------------------------------------------------------

#if SQLFACIL_X86

// One 64-column chunk of the saturating quad-dot, with the k-quad loop
// outermost: each A quad is broadcast once per chunk (not once per 8-column
// block) and the BLOCKS accumulators give independent dependency chains so
// the madd latency overlaps. BLOCKS is compile-time so the block loops
// fully unroll. Per output column the reduction order over q is unchanged,
// so results stay bit-identical to the scalar spec (integer adds, no
// reassociation hazard).
template <int BLOCKS>
__attribute__((target("avx2"))) inline void Int8MaddChunk(
    const uint8_t* a, const int8_t* bp, int k4, size_t quad_stride,
    int32_t* c) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc[BLOCKS];
  for (int blk = 0; blk < BLOCKS; ++blk) acc[blk] = _mm256_setzero_si256();
  for (int q = 0; q < k4; ++q) {
    uint32_t aq;
    std::memcpy(&aq, a + 4 * q, sizeof(aq));
    const __m256i av = _mm256_set1_epi32(static_cast<int>(aq));
    const int8_t* bq = bp + q * quad_stride;
    for (int blk = 0; blk < BLOCKS; ++blk) {
      const __m256i bv = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(bq + blk * 32));
      const __m256i pair = _mm256_maddubs_epi16(av, bv);
      acc[blk] = _mm256_add_epi32(acc[blk], _mm256_madd_epi16(pair, ones));
    }
  }
  for (int blk = 0; blk < BLOCKS; ++blk) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + blk * 8), acc[blk]);
  }
}

__attribute__((target("avx2"))) void Int8GemmRowsAvx2(
    const uint8_t* A, size_t a_stride, const int8_t* packedB, int k4,
    int n_pad, int32_t* C, size_t c_stride, size_t row_begin,
    size_t row_end) {
  const size_t quad_stride = static_cast<size_t>(n_pad) * 4;
  for (size_t i = row_begin; i < row_end; ++i) {
    const uint8_t* a = A + i * a_stride;
    int32_t* c = C + i * c_stride;
    int j0 = 0;
    for (; j0 + 64 <= n_pad; j0 += 64) {
      Int8MaddChunk<8>(a, packedB + static_cast<size_t>(j0) * 4, k4,
                       quad_stride, c + j0);
    }
    for (; j0 < n_pad; j0 += 8) {
      Int8MaddChunk<1>(a, packedB + static_cast<size_t>(j0) * 4, k4,
                       quad_stride, c + j0);
    }
  }
}

#if SQLFACIL_INT8_VNNI

// vpdpbusd fuses the u8 x s8 quad-dot straight into the s32 accumulator
// (no s16 stage), so under the +-63 precondition it computes the exact dot
// product in a third of the multiply-chain uops. Same chunked layout as the
// AVX2 kernel: one A-quad broadcast feeds up to eight column blocks.
// One 64-column chunk (BLOCKS compile-time so the block loops fully unroll
// into straight-line dpbusd chains; a runtime trip count costs more in loop
// overhead than the arithmetic itself at these sizes).
template <int BLOCKS>
__attribute__((target("avx2,avxvnni"))) inline void Int8VnniChunk(
    const uint8_t* a, const int8_t* bp, int k4, size_t quad_stride,
    int32_t* c) {
  __m256i acc[BLOCKS];
  for (int blk = 0; blk < BLOCKS; ++blk) acc[blk] = _mm256_setzero_si256();
  for (int q = 0; q < k4; ++q) {
    uint32_t aq;
    std::memcpy(&aq, a + 4 * q, sizeof(aq));
    const __m256i av = _mm256_set1_epi32(static_cast<int>(aq));
    const int8_t* bq = bp + q * quad_stride;
    for (int blk = 0; blk < BLOCKS; ++blk) {
      const __m256i bv = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(bq + blk * 32));
      acc[blk] = _mm256_dpbusd_avx_epi32(acc[blk], av, bv);
    }
  }
  for (int blk = 0; blk < BLOCKS; ++blk) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + blk * 8), acc[blk]);
  }
}

__attribute__((target("avx2,avxvnni"))) void Int8GemmRowsVnni(
    const uint8_t* A, size_t a_stride, const int8_t* packedB, int k4,
    int n_pad, int32_t* C, size_t c_stride, size_t row_begin,
    size_t row_end) {
  const size_t quad_stride = static_cast<size_t>(n_pad) * 4;
  for (size_t i = row_begin; i < row_end; ++i) {
    const uint8_t* a = A + i * a_stride;
    int32_t* c = C + i * c_stride;
    int j0 = 0;
    for (; j0 + 64 <= n_pad; j0 += 64) {
      Int8VnniChunk<8>(a, packedB + static_cast<size_t>(j0) * 4, k4,
                       quad_stride, c + j0);
    }
    for (; j0 < n_pad; j0 += 8) {
      Int8VnniChunk<1>(a, packedB + static_cast<size_t>(j0) * 4, k4,
                       quad_stride, c + j0);
    }
  }
}

#endif  // SQLFACIL_INT8_VNNI

__attribute__((target("avx2"))) void Int8DequantRowsAvx2(
    const int32_t* acc, size_t acc_stride, const int32_t* col_corr,
    float scale, const float* base, size_t base_stride, float* out,
    size_t out_stride, size_t row_begin, size_t row_end, int n) {
  const __m256 vs = _mm256_set1_ps(scale);
  for (size_t i = row_begin; i < row_end; ++i) {
    const int32_t* a = acc + i * acc_stride;
    const float* b = base + i * base_stride;
    float* o = out + i * out_stride;
    int j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256i av =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + j));
      const __m256i cv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col_corr + j));
      const __m256 f = _mm256_cvtepi32_ps(_mm256_sub_epi32(av, cv));
      _mm256_storeu_ps(
          o + j, _mm256_add_ps(_mm256_loadu_ps(b + j), _mm256_mul_ps(f, vs)));
    }
    for (; j < n; ++j) {
      o[j] = b[j] + static_cast<float>(a[j] - col_corr[j]) * scale;
    }
  }
}

__attribute__((target("avx2"))) void Int8QuantizeAvx2(const float* x, size_t n,
                                                      float inv_scale,
                                                      uint8_t* q) {
  const __m256 vs = _mm256_set1_ps(inv_scale);
  const __m256i lo = _mm256_set1_epi32(-quant::kActQmax);
  const __m256i hi = _mm256_set1_epi32(quant::kActQmax);
  const __m256i zp = _mm256_set1_epi32(quant::kActZeroPoint);
  // Byte 0 of each dword within each 128-bit lane, then lanes 0 and 4.
  const __m256i byte_pick = _mm256_setr_epi8(
      0, 4, 8, 12, -128, -128, -128, -128, -128, -128, -128, -128, -128, -128,
      -128, -128, 0, 4, 8, 12, -128, -128, -128, -128, -128, -128, -128, -128,
      -128, -128, -128, -128);
  const __m256i lane_pick = _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 scaled = _mm256_mul_ps(_mm256_loadu_ps(x + i), vs);
    const __m256 rounded = _mm256_round_ps(
        scaled, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    __m256i v = _mm256_cvtps_epi32(rounded);
    v = _mm256_min_epi32(_mm256_max_epi32(v, lo), hi);
    v = _mm256_add_epi32(v, zp);
    v = _mm256_shuffle_epi8(v, byte_pick);
    v = _mm256_permutevar8x32_epi32(v, lane_pick);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(q + i),
                     _mm256_castsi256_si128(v));
  }
  if (i < n) quant::QuantizeActivations(x + i, n - i, inv_scale, q + i);
}

#endif  // SQLFACIL_X86

// Int8GemmRowsNoSat's path at the active level: vpdpbusd when the CPU has
// AVX-VNNI, else the AVX2 quad-dot, else the scalar spec.
enum class NoSat { kScalar, kAvx2, kVnni };

NoSat NoSatPath() {
  if (GetLevel() == Level::kScalar) return NoSat::kScalar;
#if SQLFACIL_INT8_VNNI
  static const bool vnni = __builtin_cpu_supports("avxvnni") != 0;
  if (vnni) return NoSat::kVnni;
#endif
  return NoSat::kAvx2;
}

}  // namespace

const char* Int8KernelPath() {
  switch (NoSatPath()) {
    case NoSat::kVnni:
      return "avx2+vnni";
    case NoSat::kAvx2:
      return "avx2";
    case NoSat::kScalar:
      break;
  }
  return "scalar";
}

void Int8GemmRows(const uint8_t* A, size_t a_stride, const int8_t* packedB,
                  int k4, int n_pad, int32_t* C, size_t c_stride,
                  size_t row_begin, size_t row_end) {
#if SQLFACIL_X86
  if (GetLevel() >= Level::kAvx2) {
    Int8GemmRowsAvx2(A, a_stride, packedB, k4, n_pad, C, c_stride, row_begin,
                     row_end);
    return;
  }
#endif
  Int8GemmRowsScalar(A, a_stride, packedB, k4, n_pad, C, c_stride, row_begin,
                     row_end);
}

void Int8GemmRowsNoSat(const uint8_t* A, size_t a_stride,
                       const int8_t* packedB, int k4, int n_pad, int32_t* C,
                       size_t c_stride, size_t row_begin, size_t row_end) {
  switch (NoSatPath()) {
#if SQLFACIL_INT8_VNNI
    case NoSat::kVnni:
      return Int8GemmRowsVnni(A, a_stride, packedB, k4, n_pad, C, c_stride,
                              row_begin, row_end);
#endif
#if SQLFACIL_X86
    case NoSat::kAvx2:
      return Int8GemmRowsAvx2(A, a_stride, packedB, k4, n_pad, C, c_stride,
                              row_begin, row_end);
#endif
    default:
      break;
  }
  Int8GemmRowsNoSatScalar(A, a_stride, packedB, k4, n_pad, C, c_stride,
                          row_begin, row_end);
}

void Int8DequantRows(const int32_t* acc, size_t acc_stride,
                     const int32_t* col_corr, float scale, const float* base,
                     size_t base_stride, float* out, size_t out_stride,
                     size_t row_begin, size_t row_end, int n) {
#if SQLFACIL_X86
  if (GetLevel() >= Level::kAvx2) {
    Int8DequantRowsAvx2(acc, acc_stride, col_corr, scale, base, base_stride,
                        out, out_stride, row_begin, row_end, n);
    return;
  }
#endif
  Int8DequantRowsScalar(acc, acc_stride, col_corr, scale, base, base_stride,
                        out, out_stride, row_begin, row_end, n);
}

void Int8Quantize(const float* x, size_t n, float inv_scale, uint8_t* q) {
#if SQLFACIL_X86
  if (GetLevel() >= Level::kAvx2) {
    Int8QuantizeAvx2(x, n, inv_scale, q);
    return;
  }
#endif
  quant::QuantizeActivations(x, n, inv_scale, q);
}

}  // namespace sqlfacil::nn::simd
