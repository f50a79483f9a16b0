#include "common/crc32.h"

#include <array>
#include <cstddef>

#include "common/bytes.h"

namespace corrob {

namespace {

using Table = std::array<uint32_t, 256>;

/// Slicing-by-8 tables for the reflected polynomial. tables[0] is the
/// classic byte-at-a-time table; tables[k][b] is the CRC contribution
/// of byte b followed by k zero bytes, so one lookup per byte of an
/// 8-byte word replaces eight dependent byte steps.
constexpr std::array<Table, 8> BuildTables() {
  std::array<Table, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t value = i;
    for (int bit = 0; bit < 8; ++bit) {
      value = (value >> 1) ^ ((value & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = value;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t previous = tables[k - 1][i];
      tables[k][i] = (previous >> 8) ^ tables[0][previous & 0xFFu];
    }
  }
  return tables;
}

constexpr std::array<Table, 8> kTables = BuildTables();

}  // namespace

void Crc32::Update(std::string_view bytes) {
  const auto& t = kTables;
  const char* at = bytes.data();
  size_t left = bytes.size();
  uint32_t state = state_;
  // Words are loaded little-endian (LoadU32), so the digest does not
  // depend on the host's byte order.
  for (; left >= 8; at += 8, left -= 8) {
    const uint32_t low = LoadU32(at) ^ state;
    const uint32_t high = LoadU32(at + 4);
    state = t[7][low & 0xFFu] ^ t[6][(low >> 8) & 0xFFu] ^
            t[5][(low >> 16) & 0xFFu] ^ t[4][low >> 24] ^
            t[3][high & 0xFFu] ^ t[2][(high >> 8) & 0xFFu] ^
            t[1][(high >> 16) & 0xFFu] ^ t[0][high >> 24];
  }
  for (; left > 0; ++at, --left) {
    state = (state >> 8) ^ t[0][(state ^ static_cast<uint8_t>(*at)) & 0xFFu];
  }
  state_ = state;
}

uint32_t ComputeCrc32(std::string_view bytes) {
  Crc32 crc;
  crc.Update(bytes);
  return crc.Digest();
}

}  // namespace corrob
