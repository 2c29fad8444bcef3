//===- support/WrapInt.h - mini-C's wrapping int64 arithmetic ---*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// mini-C's `int` arithmetic: 64-bit two's complement that wraps, with no
/// signed-overflow UB and no host trap. Constant folding and both
/// interpreters compute through these; the native tier gets the same
/// results from `-fwrapv` and its own -1 divisor case.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_WRAPINT_H
#define SUPPORT_WRAPINT_H

#include <cstdint>

namespace sest {

inline int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}

inline int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}

inline int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}

/// A / B for B != 0. INT64_MIN / -1 wraps to INT64_MIN instead of
/// trapping in the host's divide.
inline int64_t wrapDiv(int64_t A, int64_t B) {
  return B == -1 ? wrapSub(0, A) : A / B;
}

/// A % B for B != 0. INT64_MIN % -1 is 0 instead of a trap.
inline int64_t wrapRem(int64_t A, int64_t B) { return B == -1 ? 0 : A % B; }

} // namespace sest

#endif // SUPPORT_WRAPINT_H
