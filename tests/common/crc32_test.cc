#include "common/crc32.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace corrob {
namespace {

TEST(Crc32Test, KnownVectors) {
  // Reference values of the IEEE 802.3 polynomial (zlib's crc32).
  EXPECT_EQ(ComputeCrc32(""), 0x00000000u);
  EXPECT_EQ(ComputeCrc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(ComputeCrc32("abc"), 0x352441C2u);
  EXPECT_EQ(ComputeCrc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(ComputeCrc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  Crc32 crc;
  crc.Update("12345");
  crc.Update("");
  crc.Update("6789");
  EXPECT_EQ(crc.Digest(), ComputeCrc32("123456789"));
}

TEST(Crc32Test, ResetRestartsFromEmpty) {
  Crc32 crc;
  crc.Update("garbage");
  crc.Reset();
  crc.Update("abc");
  EXPECT_EQ(crc.Digest(), ComputeCrc32("abc"));
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  std::string payload(256, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i);
  }
  uint32_t clean = ComputeCrc32(payload);
  for (size_t byte : {size_t{0}, payload.size() / 2, payload.size() - 1}) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = payload;
      corrupted[byte] = static_cast<char>(corrupted[byte] ^ (1 << bit));
      EXPECT_NE(ComputeCrc32(corrupted), clean)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(Crc32Test, HandlesHighAndNulBytes) {
  std::string high("\xFF\xFE\x80\x00\x7F", 5);  // embedded NUL included
  std::string other("\xFF\xFE\x80\x00\x7E", 5);
  EXPECT_NE(ComputeCrc32(high), ComputeCrc32(other));
}

// The byte-at-a-time definition the sliced implementation must agree
// with: one table lookup per input byte, nothing shared with src/.
uint32_t BytewiseCrc32(std::string_view bytes) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> built{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t value = i;
      for (int bit = 0; bit < 8; ++bit) {
        value = (value >> 1) ^ ((value & 1u) ? 0xEDB88320u : 0u);
      }
      built[i] = value;
    }
    return built;
  }();
  uint32_t state = 0xFFFFFFFFu;
  for (char c : bytes) {
    state = (state >> 8) ^ table[(state ^ static_cast<uint8_t>(c)) & 0xFFu];
  }
  return state ^ 0xFFFFFFFFu;
}

std::string RandomBytes(std::mt19937_64* rng, size_t length) {
  std::string bytes(length, '\0');
  for (char& c : bytes) c = static_cast<char>((*rng)() & 0xFFu);
  return bytes;
}

TEST(Crc32Test, SlicedMatchesBytewiseOverRandomLengths) {
  std::mt19937_64 rng(20260418);
  std::uniform_int_distribution<size_t> length(0, 4096);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string bytes = RandomBytes(&rng, length(rng));
    ASSERT_EQ(ComputeCrc32(bytes), BytewiseCrc32(bytes))
        << "length " << bytes.size();
  }
  // Every length around the 8-byte step, including the empty tail.
  for (size_t n = 0; n <= 40; ++n) {
    const std::string bytes = RandomBytes(&rng, n);
    ASSERT_EQ(ComputeCrc32(bytes), BytewiseCrc32(bytes)) << "length " << n;
  }
}

TEST(Crc32Test, SlicedMatchesBytewiseOnAResponseSizedBuffer) {
  // The size of the hot_read corroborate response (100k facts x 10).
  std::mt19937_64 rng(800117);
  const std::string bytes = RandomBytes(&rng, 800117);
  EXPECT_EQ(ComputeCrc32(bytes), BytewiseCrc32(bytes));
}

TEST(Crc32Test, SlicedMatchesBytewiseAtEveryStartOffset) {
  // Views starting at each offset 0-7 of one buffer: unaligned word
  // loads must not change the digest.
  std::mt19937_64 rng(7);
  const std::string buffer = RandomBytes(&rng, 1024 + 16);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                          size_t{9}, size_t{63}, size_t{1024}}) {
      const std::string_view view(buffer.data() + offset, length);
      EXPECT_EQ(ComputeCrc32(view), BytewiseCrc32(view))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, SlicedUpdateSplitAnywhereMatchesBytewise) {
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string bytes =
        RandomBytes(&rng, std::uniform_int_distribution<size_t>(0, 2048)(rng));
    // Up to four random cut points, folded piece by piece.
    std::uniform_int_distribution<size_t> cut(0, bytes.size());
    std::array<size_t, 4> cuts{};
    for (size_t& at : cuts) at = cut(rng);
    std::sort(cuts.begin(), cuts.end());
    Crc32 crc;
    size_t begin = 0;
    for (size_t at : cuts) {
      crc.Update(std::string_view(bytes).substr(begin, at - begin));
      begin = at;
    }
    crc.Update(std::string_view(bytes).substr(begin));
    ASSERT_EQ(crc.Digest(), BytewiseCrc32(bytes))
        << "length " << bytes.size() << " trial " << trial;
  }
}

}  // namespace
}  // namespace corrob
