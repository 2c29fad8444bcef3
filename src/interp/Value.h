//===- interp/Value.h - Runtime values ---------------------------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime values for the profiling interpreter. Memory is organized in
/// *cells*; every scalar value occupies one cell (see lang/Type.h). A
/// pointer addresses (space, cell-offset), where a space is the global
/// segment, the contiguous evaluation stack, or one heap allocation.
///
//===----------------------------------------------------------------------===//

#ifndef INTERP_VALUE_H
#define INTERP_VALUE_H

#include "support/WrapInt.h"

#include <cstdint>
#include <string>

namespace sest {

class FunctionDecl;

/// Address spaces for runtime pointers.
enum class MemSpace : uint32_t {
  Null = 0,   ///< The null pointer.
  Global = 1, ///< Globals + string literals.
  Stack = 2,  ///< The contiguous call-frame stack.
  HeapBase = 3, ///< Heap block K lives in space HeapBase + K.
};

/// A runtime pointer: address space + cell offset within it. Also the
/// interpreters' resolved memory location (one cell).
struct RuntimePtr {
  uint32_t Space = 0; ///< 0 = null; see MemSpace.
  int64_t Offset = 0;

  bool isNull() const { return Space == 0; }
  bool operator==(const RuntimePtr &Rhs) const {
    return Space == Rhs.Space && Offset == Rhs.Offset;
  }
};

/// One runtime value (the contents of one cell): 16 bytes, the layout of
/// the native tier's `sv`. Only the payload member ValueKind names is
/// read; a pointer is read whole through ptr().
struct Value {
  enum class Kind : uint8_t { Int, Double, Ptr, FnPtr };

  Kind ValueKind = Kind::Int;
  uint32_t PtrSpace = 0; ///< Kind::Ptr: the pointer's space; 0 otherwise.
  union {
    int64_t IntVal;
    double DoubleVal;
    int64_t PtrOffset;         ///< Kind::Ptr: the cell offset in PtrSpace.
    const FunctionDecl *FnVal; ///< Kind::FnPtr.
  };

  Value() : IntVal(0) {}

  static Value makeInt(int64_t V) {
    Value R;
    R.IntVal = V;
    return R;
  }
  static Value makeDouble(double V) {
    Value R;
    R.ValueKind = Kind::Double;
    R.DoubleVal = V;
    return R;
  }
  static Value makePtr(RuntimePtr P) {
    Value R;
    R.ValueKind = Kind::Ptr;
    R.PtrSpace = P.Space;
    R.PtrOffset = P.Offset;
    return R;
  }
  static Value makeNull() { return makePtr(RuntimePtr{0, 0}); }
  static Value makeFn(const FunctionDecl *F) {
    Value R;
    R.ValueKind = Kind::FnPtr;
    R.FnVal = F;
    return R;
  }

  bool isInt() const { return ValueKind == Kind::Int; }
  bool isDouble() const { return ValueKind == Kind::Double; }
  bool isPtr() const { return ValueKind == Kind::Ptr; }
  bool isFnPtr() const { return ValueKind == Kind::FnPtr; }

  /// The pointer of a Kind::Ptr value.
  RuntimePtr ptr() const { return {PtrSpace, PtrOffset}; }

  /// Numeric coercions (asserted kinds are the caller's responsibility;
  /// these are lenient to keep the interpreter robust).
  int64_t asInt() const {
    if (isDouble())
      return doubleToInt(DoubleVal);
    if (isPtr())
      return ptr().Offset; // Pointer-to-int cast; space is dropped.
    if (isFnPtr())
      return FnVal != nullptr;
    return IntVal;
  }
  double asDouble() const {
    if (isDouble())
      return DoubleVal;
    return static_cast<double>(asInt());
  }

  /// Truthiness in a branch condition.
  bool isTruthy() const {
    switch (ValueKind) {
    case Kind::Int:
      return IntVal != 0;
    case Kind::Double:
      return DoubleVal != 0.0;
    case Kind::Ptr:
      return !ptr().isNull();
    case Kind::FnPtr:
      return FnVal != nullptr;
    }
    return false;
  }

  /// Debug rendering.
  std::string str() const;
};

static_assert(sizeof(Value) == 16, "one value cell is 16 bytes");

} // namespace sest

#endif // INTERP_VALUE_H
