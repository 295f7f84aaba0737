#include "common/crc32.h"

#include <array>

namespace omnimatch {

namespace {

/// Bytes consumed per step of the main loop.
constexpr int kSlices = 16;

using SliceTables = std::array<std::array<uint32_t, 256>, kSlices>;

/// Slicing-by-16 tables, built at compile time. Table 0 is the classic
/// byte-at-a-time table of the reflected polynomial; table k advances a
/// byte's contribution past k further zero bytes, so the 16 lookups of one
/// step can be XORed together independently.
constexpr SliceTables MakeTables() {
  SliceTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    t[0][i] = crc;
  }
  for (int k = 1; k < kSlices; ++k) {
    for (int i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr SliceTables kTables = MakeTables();

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t crc) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  crc = ~crc;
  // Every load is one byte and the running CRC enters through shifts, so
  // the result is the same on any host byte order.
  for (; size >= kSlices; bytes += kSlices, size -= kSlices) {
    uint32_t next = 0;
#pragma GCC unroll 16
    for (int i = 0; i < kSlices; ++i) {
      const uint32_t in = i < 4 ? (crc >> (8 * i)) & 0xFFu : 0u;
      next ^= kTables[kSlices - 1 - i][bytes[i] ^ in];
    }
    crc = next;
  }
  for (; size > 0; ++bytes, --size) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *bytes) & 0xFFu];
  }
  return ~crc;
}

}  // namespace omnimatch
