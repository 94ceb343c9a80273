// CRC-32 tests: the standard IEEE check value, incremental updates split at
// every point, and every alignment/length combination against a plain
// bytewise reference, so the 8-byte steps and the byte tail agree with the
// values every plan file and checkpoint on disk carries.

#include "common/crc32.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace otfair::common {
namespace {

/// The bytewise table CRC, bit by bit: the definition the fast path must
/// reproduce.
uint32_t ReferenceCrc32(const unsigned char* data, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.Next64() & 0xFFu);
  return bytes;
}

TEST(Crc32Test, StandardCheckValues) {
  EXPECT_EQ(Crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string()), 0u);
  EXPECT_EQ(Crc32(std::string("The quick brown fox jumps over the lazy dog")), 0x414FA339u);
}

TEST(Crc32Test, IncrementalEqualsOneShotAtEverySplit) {
  const std::vector<unsigned char> buf = RandomBytes(1024, 41);
  const uint32_t whole = Crc32(buf.data(), buf.size());
  EXPECT_EQ(whole, ReferenceCrc32(buf.data(), buf.size()));
  for (size_t split = 0; split <= buf.size(); ++split) {
    uint32_t crc = Crc32Update(kCrc32Init, buf.data(), split);
    crc = Crc32Update(crc, buf.data() + split, buf.size() - split);
    ASSERT_EQ(Crc32Final(crc), whole) << "split " << split;
  }
}

TEST(Crc32Test, EveryOffsetAndLengthMatchesBytewiseReference) {
  const std::vector<unsigned char> buf = RandomBytes(8 + 64, 42);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      ASSERT_EQ(Crc32(buf.data() + offset, len), ReferenceCrc32(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, LargeBufferMatchesBytewiseReference) {
  const std::vector<unsigned char> buf = RandomBytes(100003, 43);
  EXPECT_EQ(Crc32(buf.data(), buf.size()), ReferenceCrc32(buf.data(), buf.size()));
}

}  // namespace
}  // namespace otfair::common
