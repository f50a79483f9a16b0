#ifndef CORROB_COMMON_BYTES_H_
#define CORROB_COMMON_BYTES_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

#include "common/status.h"

// The one byte layout behind everything corrob persists or ships: CRB1
// frames, protocol payloads, WAL segments and snapshots, and online
// checkpoints. Integers are fixed-width little-endian, doubles are
// their raw IEEE-754 bits, and a string is a u32 length followed by
// its bytes.
//
// ByteWriter appends that layout to a caller-owned string. ByteReader
// decodes it from untrusted bytes and never reads out of bounds: the
// first underrun latches a ParseError naming what was being read and
// at which offset, and every later read returns 0 or an empty view.
// A decoder can therefore read a whole structure and check status()
// once at the end, except that it must check status() before any
// validation that branches on a decoded value, because a latched
// reader hands back zeros.

namespace corrob {

/// Little-endian loads from a buffer the caller has already
/// length-checked (fixed headers and trailers).
inline uint32_t LoadU32(const char* bytes) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[i])) << (8 * i);
  }
  return value;
}

inline uint64_t LoadU64(const char* bytes) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[i])) << (8 * i);
  }
  return value;
}

inline double LoadF64(const char* bytes) {
  return std::bit_cast<double>(LoadU64(bytes));
}

/// Appends the layout to `*out`, which must outlive the writer.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U8(uint8_t value) { out_->push_back(static_cast<char>(value)); }
  void U32(uint32_t value) { Fixed(value, 4); }
  void U64(uint64_t value) { Fixed(value, 8); }
  void F64(double value) { Fixed(std::bit_cast<uint64_t>(value), 8); }
  /// u32 length prefix, then the bytes.
  void Str(std::string_view text) {
    U32(static_cast<uint32_t>(text.size()));
    out_->append(text);
  }
  /// The bytes alone, no prefix.
  void Raw(std::string_view bytes) { out_->append(bytes); }
  /// `values` as consecutive F64s, no count prefix. A little-endian
  /// host's doubles already have the layout, so they go in one copy.
  void F64Array(std::span<const double> values) {
    if constexpr (std::endian::native == std::endian::little) {
      out_->append(reinterpret_cast<const char*>(values.data()),
                   values.size_bytes());
    } else {
      for (const double value : values) F64(value);
    }
  }

 private:
  void Fixed(uint64_t value, int width) {
    char buffer[8];
    for (int i = 0; i < width; ++i) {
      buffer[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
    }
    out_->append(buffer, static_cast<size_t>(width));
  }

  std::string* out_;
};

/// Bounds-checked sequential reader with a sticky error.
class ByteReader {
 public:
  /// `context` opens every error message ("payload", "wal record",
  /// ...); both views must outlive the reader.
  explicit ByteReader(std::string_view bytes,
                      std::string_view context = "payload")
      : bytes_(bytes), context_(context) {}

  uint8_t U8() {
    const char* at = Take(1, "u8");
    return at != nullptr ? static_cast<uint8_t>(*at) : 0;
  }
  uint32_t U32() {
    const char* at = Take(4, "u32");
    return at != nullptr ? LoadU32(at) : 0;
  }
  uint64_t U64() {
    const char* at = Take(8, "u64");
    return at != nullptr ? LoadU64(at) : 0;
  }
  double F64() {
    const char* at = Take(8, "f64");
    return at != nullptr ? LoadF64(at) : 0.0;
  }
  /// A u32-length-prefixed string, viewing the reader's bytes.
  std::string_view Str() {
    const uint32_t length = U32();
    return Raw(length, "string body");
  }
  /// Fills `out` with the next out.size() F64s, the same bits F64()
  /// would return one at a time; one copy on a little-endian host. On
  /// an underrun `out` is zero-filled and the error latched.
  void F64Array(std::span<double> out) {
    if (out.empty()) return;  // an empty vector's data() may be null
    const char* at = Take(out.size_bytes(), "f64 array");
    if (at == nullptr) {
      std::fill(out.begin(), out.end(), 0.0);
      return;
    }
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out.data(), at, out.size_bytes());
    } else {
      for (size_t i = 0; i < out.size(); ++i) out[i] = LoadF64(at + 8 * i);
    }
  }
  /// The next `length` bytes, viewing the reader's bytes.
  std::string_view Raw(size_t length, std::string_view what = "bytes") {
    const char* at = Take(length, what);
    return at != nullptr ? std::string_view(at, length) : std::string_view();
  }

  /// Reads a u32 element count and rejects (latches, returns 0) any
  /// count whose entries cannot fit in the remaining bytes when each
  /// needs at least `min_bytes_per_entry`. Callers may then reserve
  /// `count` entries without trusting the peer.
  uint32_t Count(size_t min_bytes_per_entry) {
    const size_t at = pos_;
    const uint32_t count = U32();
    if (ok() && min_bytes_per_entry > 0 &&
        count > remaining() / min_bytes_per_entry) {
      status_ = Status::ParseError(
          std::string(context_) + " count " + std::to_string(count) +
          " at offset " + std::to_string(at) + " needs at least " +
          std::to_string(min_bytes_per_entry) + " bytes per entry, have " +
          std::to_string(remaining()));
      return 0;
    }
    return count;
  }

  size_t remaining() const { return bytes_.size() - pos_; }
  bool ok() const { return status_.ok(); }
  /// OK, or the latched ParseError.
  const Status& status() const { return status_; }

  /// Every decoder's final check: the latched error, else ParseError
  /// when bytes are left over (version skew or corruption).
  [[nodiscard]] Status Finish() const {
    if (!ok()) return status_;
    if (remaining() != 0) {
      return Status::ParseError(std::string(context_) + " has " +
                                std::to_string(remaining()) +
                                " trailing bytes");
    }
    return Status::OK();
  }

 private:
  /// Start of the next `length` bytes, or nullptr once latched.
  const char* Take(size_t length, std::string_view what) {
    if (!ok()) return nullptr;
    if (remaining() < length) {
      status_ = Status::ParseError(
          std::string(context_) + " truncated reading " + std::string(what) +
          " at offset " + std::to_string(pos_) + ": need " +
          std::to_string(length) + " bytes, have " +
          std::to_string(remaining()));
      return nullptr;
    }
    const char* at = bytes_.data() + pos_;
    pos_ += length;
    return at;
  }

  std::string_view bytes_;
  std::string_view context_;
  size_t pos_ = 0;
  Status status_;
};

}  // namespace corrob

#endif  // CORROB_COMMON_BYTES_H_
