//===- support/Crc32c.cpp -------------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
//
// Both implementations update the raw CRC register (no pre- or
// post-inversion); crc32c() applies the inversions once around them.
//
//===----------------------------------------------------------------------===//

#include "support/Crc32c.h"
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

using namespace cmcc;

namespace {

constexpr uint32_t Poly = 0x82F63B78u;

/// Bytes 0..7 little-endian, whatever the host byte order and alignment.
inline uint64_t loadLe64(const uint8_t *P) {
  uint64_t V;
  std::memcpy(&V, P, sizeof(V));
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  V = __builtin_bswap64(V);
#endif
  return V;
}

/// Slice[K][B] is the register after byte B followed by K zero bytes.
struct SliceTables {
  uint32_t T[8][256];
};

constexpr SliceTables makeSliceTables() {
  SliceTables S{};
  for (uint32_t B = 0; B != 256; ++B) {
    uint32_t C = B;
    for (int Bit = 0; Bit != 8; ++Bit)
      C = (C >> 1) ^ (Poly & (0u - (C & 1u)));
    S.T[0][B] = C;
  }
  for (int K = 1; K != 8; ++K)
    for (uint32_t B = 0; B != 256; ++B)
      S.T[K][B] = (S.T[K - 1][B] >> 8) ^ S.T[0][S.T[K - 1][B] & 0xFF];
  return S;
}

constexpr SliceTables Slice = makeSliceTables();

/// Eight bytes in one step: the first four XOR into the register, and
/// each byte is looked up by its distance from the end of the word.
constexpr uint32_t sliceStep(uint32_t C, uint64_t Word) {
  const uint64_t W = Word ^ C;
  return Slice.T[7][W & 0xFF] ^ Slice.T[6][(W >> 8) & 0xFF] ^
         Slice.T[5][(W >> 16) & 0xFF] ^ Slice.T[4][(W >> 24) & 0xFF] ^
         Slice.T[3][(W >> 32) & 0xFF] ^ Slice.T[2][(W >> 40) & 0xFF] ^
         Slice.T[1][(W >> 48) & 0xFF] ^ Slice.T[0][W >> 56];
}

uint32_t slicing8(const uint8_t *P, size_t Len, uint32_t C) {
  for (; Len >= 8; P += 8, Len -= 8)
    C = sliceStep(C, loadLe64(P));
  for (; Len; ++P, --Len)
    C = (C >> 8) ^ Slice.T[0][(C ^ *P) & 0xFF];
  return C;
}

#if defined(__x86_64__)

/// The register is linear in its input over GF(2), so appending Lane
/// zero bytes is a 32x32 bit matrix, applied here a byte at a time:
/// T[K][B] is the image of B << 8K.
struct ShiftTable {
  uint32_t T[4][256];
};

constexpr ShiftTable makeShiftTable(size_t Lane) {
  uint32_t Image[32] = {};
  for (int Bit = 0; Bit != 32; ++Bit) {
    uint32_t C = 1u << Bit;
    for (size_t I = 0; I != Lane / 8; ++I)
      C = sliceStep(C, 0);
    Image[Bit] = C;
  }
  ShiftTable S{};
  for (int K = 0; K != 4; ++K)
    for (uint32_t B = 1; B != 256; ++B) {
      int Low = 0;
      while (!(B & (1u << Low)))
        ++Low;
      S.T[K][B] = S.T[K][B & (B - 1)] ^ Image[8 * K + Low];
    }
  return S;
}

inline uint32_t shift(const ShiftTable &S, uint32_t C) {
  return S.T[0][C & 0xFF] ^ S.T[1][(C >> 8) & 0xFF] ^
         S.T[2][(C >> 16) & 0xFF] ^ S.T[3][C >> 24];
}

/// The crc32 instruction has a latency of three cycles and a throughput
/// of one, so three independent lanes keep it busy. A block is three
/// lanes of Lane bytes; the lanes' registers are joined by shifting the
/// earlier one past the later one's bytes.
constexpr size_t LongLane = 8192;
constexpr size_t ShortLane = 256;
constexpr ShiftTable LongShift = makeShiftTable(LongLane);
constexpr ShiftTable ShortShift = makeShiftTable(ShortLane);

__attribute__((target("sse4.2"))) uint32_t
hardwareBlocks(const uint8_t *&P, size_t &Len, uint32_t C, size_t Lane,
               const ShiftTable &S) {
  for (; Len >= 3 * Lane; P += 3 * Lane, Len -= 3 * Lane) {
    uint64_t C0 = C, C1 = 0, C2 = 0;
    for (size_t I = 0; I != Lane; I += 8) {
      C0 = _mm_crc32_u64(C0, loadLe64(P + I));
      C1 = _mm_crc32_u64(C1, loadLe64(P + Lane + I));
      C2 = _mm_crc32_u64(C2, loadLe64(P + 2 * Lane + I));
    }
    C = shift(S, static_cast<uint32_t>(C0)) ^ static_cast<uint32_t>(C1);
    C = shift(S, C) ^ static_cast<uint32_t>(C2);
  }
  return C;
}

__attribute__((target("sse4.2"))) uint32_t hardware(const uint8_t *P,
                                                    size_t Len, uint32_t C) {
  C = hardwareBlocks(P, Len, C, LongLane, LongShift);
  C = hardwareBlocks(P, Len, C, ShortLane, ShortShift);
  uint64_t C64 = C;
  for (; Len >= 8; P += 8, Len -= 8)
    C64 = _mm_crc32_u64(C64, loadLe64(P));
  C = static_cast<uint32_t>(C64);
  for (; Len; ++P, --Len)
    C = _mm_crc32_u8(C, *P);
  return C;
}

#endif // __x86_64__

} // namespace

uint32_t cmcc::crc32cSlicing8(const void *Data, size_t Len, uint32_t Crc) {
  return ~slicing8(static_cast<const uint8_t *>(Data), Len, ~Crc);
}

bool cmcc::crc32cHardwareAvailable() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

uint32_t cmcc::crc32cHardware(const void *Data, size_t Len, uint32_t Crc) {
#if defined(__x86_64__)
  return ~hardware(static_cast<const uint8_t *>(Data), Len, ~Crc);
#else
  return crc32cSlicing8(Data, Len, Crc);
#endif
}

uint32_t cmcc::crc32c(const void *Data, size_t Len, uint32_t Crc) {
  static const auto Impl =
      crc32cHardwareAvailable() ? crc32cHardware : crc32cSlicing8;
  return Impl(Data, Len, Crc);
}
