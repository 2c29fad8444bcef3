//===- profile/Profile.h - Execution profiles -------------------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Execution profiles: per-block, per-arc, per-function-entry and
/// per-call-site counts collected by the profiling interpreter, plus the
/// aggregation the paper uses when profiles predict other profiles ("we
/// normalized them to have the same total basic block counts, then summed
/// each block's counts", §3).
///
/// Counts are doubles: raw profiles hold exact integers, aggregated
/// profiles hold scaled sums.
///
//===----------------------------------------------------------------------===//

#ifndef PROFILE_PROFILE_H
#define PROFILE_PROFILE_H

#include <cstdint>
#include <string>
#include <vector>

namespace sest {

/// Counts for one function's CFG.
struct FunctionProfile {
  /// Executions of each basic block, indexed by block id.
  std::vector<double> BlockCounts;
  /// Traversals of each arc, indexed [block id][successor slot].
  std::vector<std::vector<double>> ArcCounts;
  /// Number of invocations of the function.
  double EntryCount = 0;

  /// Sum of all block counts.
  double totalBlockCount() const;

  bool operator==(const FunctionProfile &) const = default;
};

/// One program execution (or an aggregate of several).
struct Profile {
  std::string ProgramName;
  std::string InputName;
  /// Indexed by function id; builtins and undefined functions have empty
  /// entries.
  std::vector<FunctionProfile> Functions;
  /// Indexed by call-site id.
  std::vector<double> CallSiteCounts;
  /// Simulated execution cost (used by the selective-optimization
  /// experiment, Fig. 10).
  double TotalCycles = 0;

  /// Sum of block counts over all functions.
  double totalBlockCount() const;

  /// True when the shapes (function/block/arc/call-site vector sizes)
  /// match, i.e. the profiles come from the same program build.
  bool shapeMatches(const Profile &Other) const;
};

/// Bitwise identity of two runs' counts and cycle totals: what engines
/// and layouts must reproduce exactly (any drift is a bug, not noise).
bool profilesIdentical(const Profile &A, const Profile &B);

/// Aggregates \p Profiles (all from the same program): each profile is
/// scaled so its total block count equals the common target (the mean of
/// the totals), then counts are summed element-wise. Requires a non-empty,
/// shape-consistent input.
Profile aggregateProfiles(const std::vector<const Profile *> &Profiles);

/// Convenience overload.
Profile aggregateProfiles(const std::vector<Profile> &Profiles);

/// Aggregate of all profiles except \p LeaveOut — the paper's
/// cross-validation scheme ("matching each profile to the aggregate of
/// all the other profiles").
Profile aggregateExcept(const std::vector<Profile> &Profiles,
                        size_t LeaveOut);

/// Serializes a profile to a line-oriented text format.
std::string writeProfileText(const Profile &P);

/// Parses the text format back; returns false (and leaves \p Out
/// partially filled) on malformed input.
bool readProfileText(const std::string &Text, Profile &Out);

} // namespace sest

#endif // PROFILE_PROFILE_H
