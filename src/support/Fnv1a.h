//===- support/Fnv1a.h - 64-bit FNV-1a hash -------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FNV-1a, 64-bit: the one non-cryptographic hash behind every stable
/// name in CMCC. Plan fingerprints (the on-disk .cmccode/.tune files),
/// the njit toolchain identity (cc-<identity> artifact directories),
/// fault-injection site hashes, wire frame-header checksums (truncated
/// to 32 bits) and cmcc_client's result digest all use it, so its
/// values must never change.
///
/// Two offset bases are in use. The wire and the client digest start
/// from the standard one. Plan fingerprints, toolchain identities and
/// fault-site hashes were first minted from the standard basis's
/// decimal form with its last digit dropped, and keep starting from
/// that value so on-disk names and seeded fault patterns never move.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_SUPPORT_FNV1A_H
#define CMCC_SUPPORT_FNV1A_H

#include <cstddef>
#include <cstdint>

namespace cmcc {

/// The standard FNV-1a64 offset basis: the hash of no bytes.
constexpr uint64_t Fnv1aBasis = 0xcbf29ce484222325ull;

/// The basis stable names start from: 1469598103934665603, where the
/// standard basis is 14695981039346656037.
constexpr uint64_t Fnv1aNameBasis = 1469598103934665603ull;

/// FNV-1a64 of \p Len bytes at \p Data, continuing from \p Hash, so
/// fnv1a(B, n, fnv1a(A, m)) hashes A followed by B.
inline uint64_t fnv1a(const void *Data, size_t Len,
                      uint64_t Hash = Fnv1aBasis) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Len; ++I) {
    Hash ^= P[I];
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

} // namespace cmcc

#endif // CMCC_SUPPORT_FNV1A_H
