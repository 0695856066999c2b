#include "sqlfacil/util/crc32.h"

#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define SQLFACIL_CRC_CLMUL 1
#else
#define SQLFACIL_CRC_CLMUL 0
#endif

namespace sqlfacil {

namespace {

// Slice-by-8: eight derived tables let the hot loop fold 8 input bytes
// per iteration with independent lookups, instead of the classic
// byte-at-a-time loop whose table index depends serially on the previous
// byte (~6 cycles/byte). Matters doubly here: every 4 KiB page write-back
// and every WAL frame append pays this checksum.
struct Tables {
  uint32_t t[8][256];
};

Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables.t[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = tables.t[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

const Tables& GetTables() {
  static const auto* kTables = new Tables(BuildTables());
  return *kTables;
}

/// Advances the internal (pre-inverted) CRC state `c` over `size` bytes.
uint32_t SliceBy8(uint32_t c, const unsigned char* p, size_t size) {
  const auto& tb = GetTables();
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (size >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    c ^= lo;
    c = tb.t[7][c & 0xFFu] ^ tb.t[6][(c >> 8) & 0xFFu] ^
        tb.t[5][(c >> 16) & 0xFFu] ^ tb.t[4][c >> 24] ^
        tb.t[3][hi & 0xFFu] ^ tb.t[2][(hi >> 8) & 0xFFu] ^
        tb.t[1][(hi >> 16) & 0xFFu] ^ tb.t[0][hi >> 24];
    p += 8;
    size -= 8;
  }
#endif
  for (size_t i = 0; i < size; ++i) {
    c = tb.t[0][(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if SQLFACIL_CRC_CLMUL

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009) in the
// bit-reflected domain of 0xEDB88320. Each constant is x^n mod P(x),
// bit-reflected and shifted left by one so a 64x33-bit product lands
// aligned with the next 128-bit block.
constexpr uint64_t kFold512Lo = 0x154442bd4;  // x^(4*128+32) mod P
constexpr uint64_t kFold512Hi = 0x1c6e41596;  // x^(4*128-32) mod P
constexpr uint64_t kFold128Lo = 0x1751997d0;  // x^(128+32) mod P
constexpr uint64_t kFold128Hi = 0x0ccaa009e;  // x^(128-32) mod P
constexpr uint64_t kFold64 = 0x163cd6124;     // x^64 mod P
constexpr uint64_t kPoly = 0x1db710641;       // P(x), reflected, with x^32
constexpr uint64_t kMu = 0x1f7011641;         // floor(x^64 / P(x)), reflected

/// Moves the 128-bit remainder `x` forward by the distance its constants
/// encode and adds the next block.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(__m128i x,
                                                              __m128i k,
                                                              __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i Load(
    const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Advances the internal CRC state `c` over `size` bytes; `size` is a
/// multiple of 16 and at least 64.
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldClmul(
    uint32_t c, const unsigned char* p, size_t size) {
  // Four lanes of 128 bits, each folded 512 bits forward per 64-byte step.
  __m128i x0 = _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = Load(p + 16);
  __m128i x2 = Load(p + 32);
  __m128i x3 = Load(p + 48);
  p += 64;
  size -= 64;
  const __m128i k512 = _mm_set_epi64x(static_cast<int64_t>(kFold512Hi),
                                      static_cast<int64_t>(kFold512Lo));
  while (size >= 64) {
    x0 = Fold(x0, k512, Load(p));
    x1 = Fold(x1, k512, Load(p + 16));
    x2 = Fold(x2, k512, Load(p + 32));
    x3 = Fold(x3, k512, Load(p + 48));
    p += 64;
    size -= 64;
  }
  // The lanes into one, then the remaining 16-byte blocks.
  const __m128i k128 = _mm_set_epi64x(static_cast<int64_t>(kFold128Hi),
                                      static_cast<int64_t>(kFold128Lo));
  x0 = Fold(x0, k128, x1);
  x0 = Fold(x0, k128, x2);
  x0 = Fold(x0, k128, x3);
  for (; size >= 16; p += 16, size -= 16) x0 = Fold(x0, k128, Load(p));

  // 128 -> 96 bits: the low half moves 64 bits forward onto the high one.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k128, 0x10));
  // 96 -> 64 bits: the low 32 bits move 32 bits forward.
  const __m128i k64 = _mm_set_epi64x(0, static_cast<int64_t>(kFold64));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k64, 0x00));
  // Barrett reduction 64 -> 32 bits: q = floor(x / P) by the reciprocal mu,
  // then x - q * P leaves the remainder in bits [32, 64).
  const __m128i barrett = _mm_set_epi64x(static_cast<int64_t>(kMu),
                                         static_cast<int64_t>(kPoly));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

bool HasClmul() {
  static const bool kHas = __builtin_cpu_supports("pclmul") &&
                           __builtin_cpu_supports("sse4.1");
  return kHas;
}

#endif  // SQLFACIL_CRC_CLMUL

}  // namespace

uint32_t Crc32UpdatePortable(uint32_t crc, const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  return SliceBy8(crc ^ 0xFFFFFFFFu, p, size) ^ 0xFFFFFFFFu;
}

uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
#if SQLFACIL_CRC_CLMUL
  if (size >= 64 && HasClmul()) {
    const size_t folded = size & ~size_t{15};
    c = FoldClmul(c, p, folded);
    p += folded;
    size -= folded;
  }
#endif
  return SliceBy8(c, p, size) ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const void* data, size_t size) {
  return Crc32Update(0, data, size);
}

}  // namespace sqlfacil
