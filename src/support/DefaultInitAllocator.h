//===- support/DefaultInitAllocator.h - Allocate without zeroing -*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A std::allocator whose no-argument construct() default-initializes,
/// so a container of a trivial type grows (vector::resize, vector(n))
/// without writing zeros into memory that is about to be overwritten:
/// a socket read buffer, a frame payload, a subgrid the wire fills.
/// Construction with a value (vector(n, v), assign, push_back) still
/// writes that value.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_SUPPORT_DEFAULTINITALLOCATOR_H
#define CMCC_SUPPORT_DEFAULTINITALLOCATOR_H

#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace cmcc {

template <typename T> struct DefaultInitAllocator : std::allocator<T> {
  template <typename U> struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U> &) {}
  template <typename U> void construct(U *P) { ::new (P) U; }
  template <typename U, typename... Args> void construct(U *P, Args &&...A) {
    ::new (P) U(std::forward<Args>(A)...);
  }
};

/// A byte buffer whose growth leaves the new bytes uninitialized.
using ByteBuffer = std::vector<uint8_t, DefaultInitAllocator<uint8_t>>;

} // namespace cmcc

#endif // CMCC_SUPPORT_DEFAULTINITALLOCATOR_H
