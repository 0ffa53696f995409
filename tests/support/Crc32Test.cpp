//===- tests/support/Crc32Test.cpp - CRC-32 tests ------------------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Crc32.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

using namespace rap;

namespace {

/// The definition: one bit at a time, no tables.
uint32_t bitwiseCrc32(const unsigned char *Data, size_t Size) {
  uint32_t State = ~0u;
  for (size_t I = 0; I != Size; ++I) {
    State ^= Data[I];
    for (int Bit = 0; Bit != 8; ++Bit)
      State = (State >> 1) ^ ((State & 1u) ? 0xEDB88320u : 0u);
  }
  return ~State;
}

std::vector<unsigned char> randomBytes(size_t Size, uint64_t Seed) {
  Rng R(Seed);
  std::vector<unsigned char> Bytes(Size);
  for (unsigned char &B : Bytes)
    B = static_cast<unsigned char>(R.nextBelow(256));
  return Bytes;
}

} // namespace

TEST(Crc32, StandardCheckValue) {
  const char *Check = "123456789";
  EXPECT_EQ(crc32(Check, 9), 0xCBF43926u);
  Crc32 Sum;
  Sum.update(Check, 9);
  EXPECT_EQ(Sum.value(), 0xCBF43926u);
}

TEST(Crc32, EmptyInput) {
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32("", 0), 0u);
  // No bytes leave a running checksum where it was.
  EXPECT_EQ(crc32("", 0, 0xCBF43926u), 0xCBF43926u);
  Crc32 Sum;
  Sum.update("", 0);
  EXPECT_EQ(Sum.value(), 0u);
  Sum.update("123456789", 9);
  Sum.reset();
  EXPECT_EQ(Sum.value(), 0u);
}

TEST(Crc32, MatchesTheBitwiseDefinitionAtEveryLength) {
  std::vector<unsigned char> Bytes = randomBytes(300, 17);
  for (size_t Size = 0; Size <= Bytes.size(); ++Size)
    ASSERT_EQ(crc32(Bytes.data(), Size), bitwiseCrc32(Bytes.data(), Size))
        << "length " << Size;
}

TEST(Crc32, ChainedUpdatesEqualOneShotAtEverySplitAndAlignment) {
  // Every split point of a 1 KiB buffer, with the buffer starting at
  // each offset 0-7, so both halves take every combination of head,
  // eight-byte body and tail paths.
  std::vector<unsigned char> Storage = randomBytes(1024 + 8, 42);
  for (size_t Offset = 0; Offset != 8; ++Offset) {
    const unsigned char *Data = Storage.data() + Offset;
    const size_t Size = 1024;
    const uint32_t Whole = crc32(Data, Size);
    ASSERT_EQ(Whole, bitwiseCrc32(Data, Size)) << "offset " << Offset;
    for (size_t Split = 0; Split <= Size; ++Split) {
      Crc32 Sum;
      Sum.update(Data, Split);
      Sum.update(Data + Split, Size - Split);
      ASSERT_EQ(Sum.value(), Whole)
          << "offset " << Offset << " split " << Split;
      ASSERT_EQ(crc32(Data + Split, Size - Split, crc32(Data, Split)), Whole);
    }
  }
}

TEST(Crc32, StoredFooterOfAVersion3ProfileStillVerifies) {
  // A version-3 profile image (the layout of the serialization tests'
  // BinaryV3StillLoadsWithAdmissionDefaults fixture) with the footer
  // value written by the original byte-at-a-time implementation.
  std::string Bytes;
  auto PutU32 = [&Bytes](uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Bytes.push_back(static_cast<char>(V >> (8 * I)));
  };
  auto PutU64 = [&Bytes](uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Bytes.push_back(static_cast<char>(V >> (8 * I)));
  };
  auto PutF64 = [&PutU64](double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    PutU64(Bits);
  };
  Bytes += "RAPP";
  PutU32(3);          // version 3
  PutU32(16);         // RangeBits
  PutU32(4);          // BranchFactor
  PutF64(0.05);       // Epsilon
  PutF64(2.0);        // MergeRatio
  PutU64(1024);       // InitialMergeInterval
  PutF64(1.0);        // MergeThresholdScale
  Bytes.push_back(1); // EnableMerges
  PutU64(0);          // MaxNodes
  PutU64(0);          // MaxMemoryBytes
  PutU64(6);          // NumEvents
  PutU64(2048);       // NextMergeAt
  PutU64(3);          // NumNodes
  auto PutNode = [&](uint64_t Lo, uint8_t Width, uint64_t Count) {
    PutU64(Lo);
    Bytes.push_back(static_cast<char>(Width));
    PutU64(Count);
  };
  PutNode(0, 16, 3);
  PutNode(0, 14, 1);
  PutNode(0x4000, 14, 2);
  const uint32_t StoredFooter = 0xB1599F6Cu;
  EXPECT_EQ(crc32(Bytes.data(), Bytes.size()), StoredFooter);
  Crc32 Sum;
  for (char C : Bytes)
    Sum.update(&C, 1);
  EXPECT_EQ(Sum.value(), StoredFooter);
}
