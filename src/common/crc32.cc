#include "common/crc32.h"

#include <array>

namespace otfair::common {
namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;

using Table = std::array<uint32_t, 256>;

/// kTables[0] is the classic bytewise table. kTables[j][b] is the CRC
/// contribution of byte b followed by j zero bytes, so one 8-byte step
/// XORs eight lookups instead of chaining eight dependent ones.
constexpr std::array<Table, 8> BuildTables() {
  std::array<Table, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPolynomial : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t j = 1; j < 8; ++j) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[j - 1][i];
      tables[j][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr std::array<Table, 8> kTables = BuildTables();

/// Little-endian 32-bit word from four bytes (no type punning, so no
/// alignment or aliasing assumptions; compilers fold it into one load).
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  // Slicing-by-8 (Kounavis & Berry, ISCC 2005): eight bytes per step.
  for (; len >= 8; bytes += 8, len -= 8) {
    const uint32_t lo = crc ^ LoadLe32(bytes);
    const uint32_t hi = LoadLe32(bytes + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++bytes, --len) {
    crc = kTables[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

uint32_t Crc32(const void* data, size_t len) {
  return Crc32Final(Crc32Update(kCrc32Init, data, len));
}

}  // namespace otfair::common
