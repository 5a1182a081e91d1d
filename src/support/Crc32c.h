//===- support/Crc32c.h - CRC32C (Castagnoli) checksum --------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CRC32C, the checksum of iSCSI (RFC 3720) and ext4: reflected
/// polynomial 0x82F63B78, initial value and final XOR all ones. It
/// detects every error burst of up to 32 bits, and on x86-64 the SSE4.2
/// `crc32` instruction computes it at memory speed.
///
/// Two implementations sit behind crc32c(): three interleaved hardware
/// lanes on CPUs with SSE4.2, and slicing-by-8 tables everywhere else.
/// The choice is made once, at the first call, from the running CPU;
/// no build flag is needed. Both are exposed so tests can hold them to
/// each other on any host.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_SUPPORT_CRC32C_H
#define CMCC_SUPPORT_CRC32C_H

#include <cstddef>
#include <cstdint>

namespace cmcc {

/// CRC32C of \p Len bytes at \p Data, continuing from \p Crc: 0 starts
/// a new checksum, and crc32c(B, crc32c(A)) == crc32c(A followed by B).
uint32_t crc32c(const void *Data, size_t Len, uint32_t Crc = 0);

/// The portable implementation (slicing-by-8).
uint32_t crc32cSlicing8(const void *Data, size_t Len, uint32_t Crc = 0);

/// True when the running CPU has the SSE4.2 `crc32` instruction. Always
/// false off x86-64.
bool crc32cHardwareAvailable();

/// The hardware implementation. Requires crc32cHardwareAvailable().
uint32_t crc32cHardware(const void *Data, size_t Len, uint32_t Crc = 0);

} // namespace cmcc

#endif // CMCC_SUPPORT_CRC32C_H
