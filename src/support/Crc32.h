//===- support/Crc32.h - CRC-32 checksums ----------------------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CRC-32 (the reflected IEEE 802.3 polynomial 0xEDB88320, the same
/// checksum zlib and ethernet use) for the crash-safe snapshot footer.
/// Slice-by-8 table-driven, no dependencies; one-shot and incremental
/// forms.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SUPPORT_CRC32_H
#define RAP_SUPPORT_CRC32_H

#include <cstddef>
#include <cstdint>

namespace rap {

/// CRC-32 of \p Size bytes at \p Data, continuing from \p Crc (pass 0
/// to start a fresh checksum). Chaining calls over consecutive chunks
/// yields the same value as one call over the concatenation.
uint32_t crc32(const void *Data, size_t Size, uint32_t Crc = 0);

/// Incremental CRC-32 accumulator for streamed data.
class Crc32 {
public:
  /// Folds \p Size bytes at \p Data into the running checksum.
  void update(const void *Data, size_t Size) {
    State = crc32(Data, Size, State);
  }

  /// The checksum of every byte fed so far.
  uint32_t value() const { return State; }

  /// Resets to the empty-input state.
  void reset() { State = 0; }

private:
  uint32_t State = 0;
};

} // namespace rap

#endif // RAP_SUPPORT_CRC32_H
