#ifndef CORROB_COMMON_CRC32_H_
#define CORROB_COMMON_CRC32_H_

#include <cstdint>
#include <string_view>

namespace corrob {

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial 0xEDB88320). It guards
/// every byte corrob persists or ships: CRB1 frames, WAL records and
/// snapshots, and online checkpoints. Computed slicing-by-8 (eight
/// bytes per step), with digests independent of host byte order.
/// Incremental use:
///
///   Crc32 crc;
///   crc.Update(header);
///   crc.Update(body);
///   uint32_t digest = crc.Digest();
///
/// A Crc32 is a small value: copying one after folding a shared prefix
/// and continuing each copy with a different suffix gives each
/// suffix's digest without rescanning the prefix.
class Crc32 {
 public:
  Crc32() = default;

  /// Folds `bytes` into the running checksum.
  void Update(std::string_view bytes);

  /// The checksum of everything folded in so far.
  uint32_t Digest() const { return state_ ^ 0xFFFFFFFFu; }

  /// Resets to the empty-input state.
  void Reset() { state_ = 0xFFFFFFFFu; }

 private:
  uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot convenience: the CRC-32 of `bytes`.
uint32_t ComputeCrc32(std::string_view bytes);

}  // namespace corrob

#endif  // CORROB_COMMON_CRC32_H_
