//===- tests/crc32c_test.cpp - CRC32C known answers and agreement -*-C++-*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// support/Crc32c: the published check values, and the hardware and
/// slicing-by-8 implementations held to each other over every short
/// length and alignment and over buffers long enough to cross the
/// three-lane blocks of the hardware path. The hardware comparisons
/// skip on CPUs without SSE4.2; the known answers run everywhere, on
/// both implementations.
///
//===----------------------------------------------------------------------===//

#include "support/Crc32c.h"
#include "support/Random.h"
#include <cstring>
#include <gtest/gtest.h>
#include <vector>

using namespace cmcc;

namespace {

std::vector<uint8_t> randomBytes(size_t Len, uint64_t Seed) {
  SplitMix64 Gen(Seed);
  std::vector<uint8_t> B(Len);
  for (uint8_t &V : B)
    V = static_cast<uint8_t>(Gen.next());
  return B;
}

} // namespace

TEST(Crc32cTest, KnownAnswers) {
  // RFC 3720 B.4 and the usual "123456789" check value.
  const char *Check = "123456789";
  const uint8_t Zeros[32] = {};
  uint8_t Ones[32];
  std::memset(Ones, 0xFF, sizeof(Ones));
  uint8_t Ascending[32];
  for (int I = 0; I != 32; ++I)
    Ascending[I] = static_cast<uint8_t>(I);
  for (auto Crc : {crc32c, crc32cSlicing8}) {
    EXPECT_EQ(Crc(Check, 9, 0), 0xE3069283u);
    EXPECT_EQ(Crc(Zeros, 32, 0), 0x8A9136AAu);
    EXPECT_EQ(Crc(Ones, 32, 0), 0x62A8AB43u);
    EXPECT_EQ(Crc(Ascending, 32, 0), 0x46DD794Eu);
    EXPECT_EQ(Crc(Check, 0, 0), 0u);
  }
}

TEST(Crc32cTest, ContinuationEqualsOnePass) {
  const std::vector<uint8_t> B = randomBytes(100000, 7);
  const uint32_t Whole = crc32c(B.data(), B.size());
  for (size_t Cut : {0u, 1u, 7u, 768u, 24575u, 24576u, 50000u, 99999u})
    EXPECT_EQ(crc32c(B.data() + Cut, B.size() - Cut, crc32c(B.data(), Cut)),
              Whole)
        << "cut at " << Cut;
}

TEST(Crc32cTest, HardwareMatchesSlicingOnShortBuffers) {
  if (!crc32cHardwareAvailable())
    GTEST_SKIP() << "no SSE4.2 crc32 instruction on this CPU";
  const std::vector<uint8_t> B = randomBytes(1024 + 8, 11);
  for (size_t Offset = 0; Offset != 8; ++Offset)
    for (size_t Len = 0; Len <= 1024; ++Len)
      ASSERT_EQ(crc32cHardware(B.data() + Offset, Len, 0x12345678u),
                crc32cSlicing8(B.data() + Offset, Len, 0x12345678u))
          << "offset " << Offset << ", length " << Len;
}

TEST(Crc32cTest, HardwareMatchesSlicingAcrossLaneBlocks) {
  if (!crc32cHardwareAvailable())
    GTEST_SKIP() << "no SSE4.2 crc32 instruction on this CPU";
  // 1 MiB plus lengths around the 3 x 8 KiB and 3 x 256 B block edges,
  // so every combination of long blocks, short blocks and tail runs.
  const std::vector<uint8_t> B = randomBytes((1u << 20) + 64 + 8, 13);
  for (size_t Len : {size_t{1} << 20, (size_t{1} << 20) + 63,
                     size_t{3 * 8192}, size_t{3 * 8192 - 1},
                     size_t{3 * 8192 + 1}, size_t{3 * 8192 + 3 * 256},
                     size_t{3 * 8192 + 3 * 256 - 1}, size_t{2 * 3 * 8192 + 5},
                     size_t{3 * 256}, size_t{3 * 256 + 7}})
    for (size_t Offset : {0u, 1u, 5u})
      EXPECT_EQ(crc32cHardware(B.data() + Offset, Len),
                crc32cSlicing8(B.data() + Offset, Len))
          << "offset " << Offset << ", length " << Len;
}
