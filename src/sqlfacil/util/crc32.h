#ifndef SQLFACIL_UTIL_CRC32_H_
#define SQLFACIL_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace sqlfacil {

/// CRC-32 (IEEE 802.3, the zlib polynomial 0xEDB88320): the integrity
/// footer of checkpoint files, of every 4 KiB page and of every WAL frame.
/// Any single-bit flip or truncation of the payload changes the CRC.
///
/// Two paths compute the one polynomial. `Crc32UpdatePortable` is
/// table-driven slice-by-8 and is the spec. On an x86-64 CPU with PCLMULQDQ
/// and SSE4.1 (checked once per process), `Crc32Update` folds the whole
/// 16-byte blocks of a buffer of 64 bytes or more by carry-less
/// multiplication and hands the last 0-15 bytes, or a shorter buffer, to
/// the portable path. Both return the same value for every input, so
/// stored CRCs do not depend on the CPU that wrote them.
uint32_t Crc32(const void* data, size_t size);

/// Incremental form: feed `crc` from a previous call (start from 0).
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);

/// The portable slice-by-8 path, the spec `Crc32Update` must equal.
/// Exported for tests; callers use `Crc32Update`.
uint32_t Crc32UpdatePortable(uint32_t crc, const void* data, size_t size);

}  // namespace sqlfacil

#endif  // SQLFACIL_UTIL_CRC32_H_
