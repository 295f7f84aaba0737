#include "common/crc32.h"

#include <array>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace omnimatch {
namespace {

/// The byte-at-a-time CRC-32 the library computed before slicing: the
/// reference every sliced result must equal.
uint32_t BytewiseCrc32(const void* data, size_t size, uint32_t crc = 0) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c >> 1) ^ ((c & 1u) ? 0xEDB88320u : 0u);
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* bytes = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ bytes[i]) & 0xFFu];
  }
  return ~crc;
}

std::vector<unsigned char> RandomBytes(size_t size, uint32_t seed) {
  std::mt19937 gen(seed);
  std::vector<unsigned char> out(size);
  for (unsigned char& b : out) b = static_cast<unsigned char>(gen());
  return out;
}

TEST(Crc32Test, EmptyInputIsZero) {
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32(std::string_view{}), 0u);
}

TEST(Crc32Test, KnownVectors) {
  // The canonical CRC-32 check value (ITU-T V.42 / zlib / PNG).
  EXPECT_EQ(Crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string_view("a")), 0xE8B7BE43u);
  EXPECT_EQ(Crc32(std::string_view("abc")), 0x352441C2u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t one_shot = Crc32(std::string_view(data));
  for (size_t cut = 0; cut <= data.size(); ++cut) {
    uint32_t crc = Crc32(data.data(), cut);
    crc = Crc32(data.data() + cut, data.size() - cut, crc);
    EXPECT_EQ(crc, one_shot) << "split at " << cut;
  }
}

// Every length around the 16-byte step, at every alignment of the start.
TEST(Crc32Test, MatchesBytewiseAtEveryLengthAndOffset) {
  const std::vector<unsigned char> buf = RandomBytes(64 + 8, 1);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(Crc32(buf.data() + offset, len),
                BytewiseCrc32(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, IncrementalMatchesBytewiseAtEverySplit) {
  const std::vector<unsigned char> buf = RandomBytes(1024, 2);
  const uint32_t whole = BytewiseCrc32(buf.data(), buf.size());
  for (size_t cut = 0; cut <= buf.size(); ++cut) {
    const uint32_t head = Crc32(buf.data(), cut);
    ASSERT_EQ(head, BytewiseCrc32(buf.data(), cut)) << "prefix " << cut;
    EXPECT_EQ(Crc32(buf.data() + cut, buf.size() - cut, head), whole)
        << "split at " << cut;
  }
}

TEST(Crc32Test, MatchesBytewiseOnOneMebibyte) {
  const std::vector<unsigned char> buf = RandomBytes(size_t{1} << 20, 3);
  EXPECT_EQ(Crc32(buf.data(), buf.size()),
            BytewiseCrc32(buf.data(), buf.size()));
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(256, '\0');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i);
  uint32_t clean = Crc32(std::string_view(data));
  for (size_t byte : {size_t{0}, data.size() / 2, data.size() - 1}) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = data;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      EXPECT_NE(Crc32(std::string_view(corrupt)), clean)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(Crc32Test, DetectsTruncation) {
  std::string data = "checkpoint payload bytes";
  uint32_t clean = Crc32(std::string_view(data));
  EXPECT_NE(Crc32(data.data(), data.size() - 1), clean);
}

}  // namespace
}  // namespace omnimatch
