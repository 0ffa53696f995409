//===- tests/support/BitUtilsTest.cpp - Bit helper tests -----------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BitUtils.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace rap;

TEST(BitUtils, IsPowerOfTwo) {
  EXPECT_FALSE(isPowerOfTwo(0));
  EXPECT_TRUE(isPowerOfTwo(1));
  EXPECT_TRUE(isPowerOfTwo(2));
  EXPECT_FALSE(isPowerOfTwo(3));
  EXPECT_TRUE(isPowerOfTwo(4));
  EXPECT_FALSE(isPowerOfTwo(6));
  EXPECT_TRUE(isPowerOfTwo(uint64_t(1) << 63));
  EXPECT_FALSE(isPowerOfTwo(~uint64_t(0)));
}

TEST(BitUtils, Log2Floor) {
  EXPECT_EQ(log2Floor(1), 0u);
  EXPECT_EQ(log2Floor(2), 1u);
  EXPECT_EQ(log2Floor(3), 1u);
  EXPECT_EQ(log2Floor(4), 2u);
  EXPECT_EQ(log2Floor(1023), 9u);
  EXPECT_EQ(log2Floor(1024), 10u);
  EXPECT_EQ(log2Floor(~uint64_t(0)), 63u);
}

TEST(BitUtils, Log2Ceil) {
  EXPECT_EQ(log2Ceil(1), 0u);
  EXPECT_EQ(log2Ceil(2), 1u);
  EXPECT_EQ(log2Ceil(3), 2u);
  EXPECT_EQ(log2Ceil(4), 2u);
  EXPECT_EQ(log2Ceil(5), 3u);
  EXPECT_EQ(log2Ceil(1025), 11u);
}

TEST(BitUtils, Log2Exact) {
  for (unsigned Bit = 0; Bit != 64; ++Bit)
    EXPECT_EQ(log2Exact(uint64_t(1) << Bit), Bit);
}

TEST(BitUtils, AlignDown) {
  EXPECT_EQ(alignDown(0, 16), 0u);
  EXPECT_EQ(alignDown(15, 16), 0u);
  EXPECT_EQ(alignDown(16, 16), 16u);
  EXPECT_EQ(alignDown(17, 16), 16u);
  EXPECT_EQ(alignDown(0x12345678, 0x100), 0x12345600u);
  EXPECT_EQ(alignDown(~uint64_t(0), uint64_t(1) << 63), uint64_t(1) << 63);
}

TEST(BitUtils, LowBitMask) {
  EXPECT_EQ(lowBitMask(0), 0u);
  EXPECT_EQ(lowBitMask(1), 1u);
  EXPECT_EQ(lowBitMask(8), 0xffu);
  EXPECT_EQ(lowBitMask(32), 0xffffffffu);
  EXPECT_EQ(lowBitMask(64), ~uint64_t(0));
}

TEST(BitUtils, SaturatingAdd) {
  EXPECT_EQ(saturatingAdd(0, 0), 0u);
  EXPECT_EQ(saturatingAdd(1, 2), 3u);
  EXPECT_EQ(saturatingAdd(~uint64_t(0), 0), ~uint64_t(0));
  EXPECT_EQ(saturatingAdd(~uint64_t(0), 1), ~uint64_t(0));
  EXPECT_EQ(saturatingAdd(uint64_t(1) << 63, uint64_t(1) << 63),
            ~uint64_t(0));
}

TEST(BitUtils, SaturatingMul) {
  EXPECT_EQ(saturatingMul(0, 0), 0u);
  EXPECT_EQ(saturatingMul(0, ~uint64_t(0)), 0u);
  EXPECT_EQ(saturatingMul(~uint64_t(0), 0), 0u);
  EXPECT_EQ(saturatingMul(3, 7), 21u);
  EXPECT_EQ(saturatingMul(1, ~uint64_t(0)), ~uint64_t(0));
  EXPECT_EQ(saturatingMul(uint64_t(1) << 32, uint64_t(1) << 31),
            uint64_t(1) << 63);
  EXPECT_EQ(saturatingMul(uint64_t(1) << 32, uint64_t(1) << 32),
            ~uint64_t(0));
  EXPECT_EQ(saturatingMul(~uint64_t(0), 2), ~uint64_t(0));
}

TEST(BitUtils, LittleEndianLoadsAndStores) {
  const unsigned char Bytes[9] = {0xAA, 0x08, 0x07, 0x06, 0x05,
                                  0x04, 0x03, 0x02, 0x01};
  // Unaligned on purpose: the codecs load at any offset.
  EXPECT_EQ(loadLe32(Bytes + 1), 0x05060708u);
  EXPECT_EQ(loadLe64(Bytes + 1), 0x0102030405060708ull);
  unsigned char Out[9] = {};
  storeLe64(Out + 1, 0x0102030405060708ull);
  EXPECT_EQ(std::memcmp(Out + 1, Bytes + 1, 8), 0);
  storeLe32(Out + 1, 0xDEADBEEFu);
  EXPECT_EQ(Out[1], 0xEF);
  EXPECT_EQ(Out[4], 0xDE);
  EXPECT_EQ(Out[5], 0x04); // the rest of the 64-bit store is untouched
}
