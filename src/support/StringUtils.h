//===- support/StringUtils.h - String helpers -------------------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string formatting and splitting helpers shared by printers,
/// benches and tests.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_STRINGUTILS_H
#define SUPPORT_STRINGUTILS_H

#include <string>
#include <string_view>
#include <vector>

namespace sest {

/// Formats \p Value with \p Decimals digits after the point (no
/// locale dependence, round-half-away-from-zero).
std::string formatDouble(double Value, unsigned Decimals);

/// Formats \p Fraction (0..1) as a percentage like "81.3%".
std::string formatPercent(double Fraction, unsigned Decimals = 1);

/// Left/right-pads \p S with spaces to \p Width.
std::string padLeft(std::string S, size_t Width);
std::string padRight(std::string S, size_t Width);

/// Splits on \p Sep, keeping empty fields.
std::vector<std::string> splitString(std::string_view Text, char Sep);

/// Joins with \p Sep.
std::string joinStrings(const std::vector<std::string> &Parts,
                        std::string_view Sep);

/// True when \p Text starts with \p Prefix.
bool startsWith(std::string_view Text, std::string_view Prefix);

/// Appends every part into one string. Use it instead of an operator+
/// chain that starts at a literal, which gcc 12 flags with a false
/// -Wrestrict through operator+(const char *, std::string &&).
template <typename... Parts> std::string concat(const Parts &...P) {
  std::string S;
  (S += ... += P);
  return S;
}

} // namespace sest

#endif // SUPPORT_STRINGUTILS_H
