//===- support/CliOptions.h - Command-line option tables --------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the command-line tools (sestc, sestd, sesttop, sestune) share
/// about their options: the OptionSpec entry of the table that is each
/// tool's single source of truth for its usage text and `--help`, the
/// help renderer, and the "did you mean" lookup for mistyped flags,
/// values and suite program names. Each tool keeps its own table and
/// parse loop.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_CLIOPTIONS_H
#define SUPPORT_CLIOPTIONS_H

#include "support/StringUtils.h"

#include <algorithm>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sest {

/// One option a tool understands.
struct OptionSpec {
  const char *Flag;
  const char *Arg;  ///< Value placeholder; null for boolean flags.
  const char *Help; ///< One-line description.
};

/// \p Usage, then one line per option whose help text starts at column
/// \p HelpColumn (two spaces after a longer flag).
inline std::string renderHelp(std::string_view Usage,
                              std::span<const OptionSpec> Table,
                              size_t HelpColumn) {
  std::string S = concat(Usage, "\n");
  for (const OptionSpec &Opt : Table) {
    std::string Left = concat("  ", Opt.Flag);
    if (Opt.Arg)
      Left += concat(" ", Opt.Arg);
    if (Left.size() < HelpColumn)
      Left.resize(HelpColumn, ' ');
    else
      Left += "  ";
    S += concat(Left, Opt.Help, "\n");
  }
  return S;
}

/// Classic dynamic-programming edit distance.
inline size_t editDistance(std::string_view A, std::string_view B) {
  std::vector<size_t> Row(B.size() + 1);
  for (size_t J = 0; J <= B.size(); ++J)
    Row[J] = J;
  for (size_t I = 1; I <= A.size(); ++I) {
    size_t Diag = Row[0];
    Row[0] = I;
    for (size_t J = 1; J <= B.size(); ++J) {
      size_t Next = std::min({Row[J] + 1, Row[J - 1] + 1,
                              Diag + (A[I - 1] == B[J - 1] ? 0 : 1)});
      Diag = Row[J];
      Row[J] = Next;
    }
  }
  return Row[B.size()];
}

/// "; did you mean 'X'?" for the first of \p Candidates (named by \p
/// Name) nearest to \p Word, or "" when none is a plausible typo (edit
/// distance 4 or more).
template <typename Range, typename NameOf>
std::string didYouMean(std::string_view Word, const Range &Candidates,
                       NameOf Name) {
  std::string_view Best;
  size_t BestDist = 4;
  for (const auto &C : Candidates) {
    const std::string_view N = Name(C);
    const size_t D = editDistance(Word, N);
    if (D < BestDist) {
      BestDist = D;
      Best = N;
    }
  }
  return Best.empty() ? std::string()
                      : concat("; did you mean '", Best, "'?");
}

/// The same lookup over a tool's option table.
inline std::string didYouMean(std::string_view Word,
                              std::span<const OptionSpec> Table) {
  return didYouMean(Word, Table, [](const OptionSpec &O) {
    return std::string_view(O.Flag);
  });
}

} // namespace sest

#endif // SUPPORT_CLIOPTIONS_H
