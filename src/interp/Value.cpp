//===- interp/Value.cpp - Runtime values -----------------------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "interp/Value.h"

#include "lang/Ast.h"
#include "support/StringUtils.h"

using namespace sest;

std::string Value::str() const {
  switch (ValueKind) {
  case Kind::Int:
    return std::to_string(IntVal);
  case Kind::Double:
    return formatDouble(DoubleVal, 6);
  case Kind::Ptr:
    if (ptr().isNull())
      return "null";
    return "ptr(" + std::to_string(ptr().Space) + ":" +
           std::to_string(ptr().Offset) + ")";
  case Kind::FnPtr:
    return FnVal ? "&" + FnVal->name() : "fn(null)";
  }
  return "<value>";
}
