#ifndef OMNIMATCH_COMMON_CRC32_H_
#define OMNIMATCH_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace omnimatch {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum used
/// by zlib, PNG and the checkpoint file format. Detects the corruption modes
/// a crash or disk fault produces (truncation, bit flips, torn writes).
///
/// Portable slicing-by-16 (one table lookup per byte, 16 independent
/// lookups per step); DESIGN.md "Checkpoint format" gives its speed.
///
/// Incremental use: feed `crc` from the previous call to checksum a stream
/// in chunks; the default 0 starts a fresh checksum.
uint32_t Crc32(const void* data, size_t size, uint32_t crc = 0);

/// Convenience overload for string payloads.
inline uint32_t Crc32(std::string_view data, uint32_t crc = 0) {
  return Crc32(data.data(), data.size(), crc);
}

}  // namespace omnimatch

#endif  // OMNIMATCH_COMMON_CRC32_H_
