//===- support/Crc32.cpp - CRC-32 checksums -------------------------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Crc32.h"

#include "support/BitUtils.h"

#include <array>

namespace rap {

namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

/// Slice-by-8 tables: Tables[0] is the classic byte table, and
/// Tables[K][B] is the CRC contribution of byte B followed by K zero
/// bytes, so eight table lookups advance the state by eight bytes.
constexpr CrcTables makeTables() {
  CrcTables Tables{};
  for (uint32_t Byte = 0; Byte != 256; ++Byte) {
    uint32_t Value = Byte;
    for (int Bit = 0; Bit != 8; ++Bit)
      Value = (Value >> 1) ^ ((Value & 1u) ? 0xEDB88320u : 0u);
    Tables[0][Byte] = Value;
  }
  for (uint32_t Byte = 0; Byte != 256; ++Byte)
    for (size_t K = 1; K != 8; ++K)
      Tables[K][Byte] = (Tables[K - 1][Byte] >> 8) ^
                        Tables[0][Tables[K - 1][Byte] & 0xFFu];
  return Tables;
}

constexpr CrcTables Tables = makeTables();

} // namespace

uint32_t crc32(const void *Data, size_t Size, uint32_t Crc) {
  const unsigned char *Bytes = static_cast<const unsigned char *>(Data);
  uint32_t State = ~Crc;
  for (; Size >= 8; Bytes += 8, Size -= 8) {
    uint32_t Low = loadLe32(Bytes) ^ State;
    uint32_t High = loadLe32(Bytes + 4);
    State = Tables[7][Low & 0xFFu] ^ Tables[6][(Low >> 8) & 0xFFu] ^
            Tables[5][(Low >> 16) & 0xFFu] ^ Tables[4][Low >> 24] ^
            Tables[3][High & 0xFFu] ^ Tables[2][(High >> 8) & 0xFFu] ^
            Tables[1][(High >> 16) & 0xFFu] ^ Tables[0][High >> 24];
  }
  for (; Size != 0; ++Bytes, --Size)
    State = (State >> 8) ^ Tables[0][(State ^ *Bytes) & 0xFFu];
  return ~State;
}

} // namespace rap
