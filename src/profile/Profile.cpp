//===- profile/Profile.cpp - Execution profiles ----------------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "profile/Profile.h"

#include "support/StringUtils.h"

#include <cassert>
#include <cstdlib>

using namespace sest;

double FunctionProfile::totalBlockCount() const {
  double Sum = 0;
  for (double C : BlockCounts)
    Sum += C;
  return Sum;
}

double Profile::totalBlockCount() const {
  double Sum = 0;
  for (const FunctionProfile &F : Functions)
    Sum += F.totalBlockCount();
  return Sum;
}

bool Profile::shapeMatches(const Profile &Other) const {
  if (Functions.size() != Other.Functions.size() ||
      CallSiteCounts.size() != Other.CallSiteCounts.size())
    return false;
  for (size_t I = 0; I < Functions.size(); ++I) {
    if (Functions[I].BlockCounts.size() !=
        Other.Functions[I].BlockCounts.size())
      return false;
    if (Functions[I].ArcCounts.size() != Other.Functions[I].ArcCounts.size())
      return false;
    for (size_t B = 0; B < Functions[I].ArcCounts.size(); ++B)
      if (Functions[I].ArcCounts[B].size() !=
          Other.Functions[I].ArcCounts[B].size())
        return false;
  }
  return true;
}

bool sest::profilesIdentical(const Profile &A, const Profile &B) {
  return A.Functions == B.Functions &&
         A.CallSiteCounts == B.CallSiteCounts &&
         A.TotalCycles == B.TotalCycles;
}

Profile sest::aggregateProfiles(const std::vector<const Profile *> &Profiles) {
  assert(!Profiles.empty() && "cannot aggregate zero profiles");

  // Common target: the mean total block count.
  double TargetTotal = 0;
  for (const Profile *P : Profiles)
    TargetTotal += P->totalBlockCount();
  TargetTotal /= static_cast<double>(Profiles.size());

  Profile Out;
  Out.ProgramName = Profiles.front()->ProgramName;
  Out.InputName = "<aggregate>";
  Out.Functions.resize(Profiles.front()->Functions.size());
  Out.CallSiteCounts.assign(Profiles.front()->CallSiteCounts.size(), 0.0);
  for (size_t F = 0; F < Out.Functions.size(); ++F) {
    const FunctionProfile &Shape = Profiles.front()->Functions[F];
    Out.Functions[F].BlockCounts.assign(Shape.BlockCounts.size(), 0.0);
    Out.Functions[F].ArcCounts.resize(Shape.ArcCounts.size());
    for (size_t B = 0; B < Shape.ArcCounts.size(); ++B)
      Out.Functions[F].ArcCounts[B].assign(Shape.ArcCounts[B].size(), 0.0);
  }

  for (const Profile *P : Profiles) {
    assert(Profiles.front()->shapeMatches(*P) &&
           "aggregating profiles of different programs");
    double Total = P->totalBlockCount();
    double Scale = Total > 0 ? TargetTotal / Total : 0.0;
    for (size_t F = 0; F < Out.Functions.size(); ++F) {
      const FunctionProfile &In = P->Functions[F];
      FunctionProfile &Acc = Out.Functions[F];
      Acc.EntryCount += In.EntryCount * Scale;
      for (size_t B = 0; B < In.BlockCounts.size(); ++B)
        Acc.BlockCounts[B] += In.BlockCounts[B] * Scale;
      for (size_t B = 0; B < In.ArcCounts.size(); ++B)
        for (size_t S = 0; S < In.ArcCounts[B].size(); ++S)
          Acc.ArcCounts[B][S] += In.ArcCounts[B][S] * Scale;
    }
    for (size_t C = 0; C < P->CallSiteCounts.size(); ++C)
      Out.CallSiteCounts[C] += P->CallSiteCounts[C] * Scale;
    Out.TotalCycles += P->TotalCycles * Scale;
  }
  return Out;
}

Profile sest::aggregateProfiles(const std::vector<Profile> &Profiles) {
  std::vector<const Profile *> Ptrs;
  Ptrs.reserve(Profiles.size());
  for (const Profile &P : Profiles)
    Ptrs.push_back(&P);
  return aggregateProfiles(Ptrs);
}

Profile sest::aggregateExcept(const std::vector<Profile> &Profiles,
                              size_t LeaveOut) {
  std::vector<const Profile *> Ptrs;
  for (size_t I = 0; I < Profiles.size(); ++I)
    if (I != LeaveOut)
      Ptrs.push_back(&Profiles[I]);
  assert(!Ptrs.empty() && "leave-one-out needs at least two profiles");
  return aggregateProfiles(Ptrs);
}

//===----------------------------------------------------------------------===//
// Text serialization
//===----------------------------------------------------------------------===//

std::string sest::writeProfileText(const Profile &P) {
  std::string Out;
  Out += concat("profile ", P.ProgramName, " ", P.InputName, "\n");
  Out += concat("cycles ", formatDouble(P.TotalCycles, 3), "\n");
  Out += concat("functions ", std::to_string(P.Functions.size()), "\n");
  for (size_t F = 0; F < P.Functions.size(); ++F) {
    const FunctionProfile &FP = P.Functions[F];
    Out += concat("function ", std::to_string(F), " entry ",
                  formatDouble(FP.EntryCount, 6), "\n");
    Out += "blocks";
    for (double C : FP.BlockCounts)
      Out += concat(" ", formatDouble(C, 6));
    Out += "\n";
    for (size_t B = 0; B < FP.ArcCounts.size(); ++B) {
      Out += concat("arcs ", std::to_string(B));
      for (double C : FP.ArcCounts[B])
        Out += concat(" ", formatDouble(C, 6));
      Out += "\n";
    }
  }
  Out += "callsites";
  for (double C : P.CallSiteCounts)
    Out += concat(" ", formatDouble(C, 6));
  Out += "\n";
  return Out;
}

bool sest::readProfileText(const std::string &Text, Profile &Out) {
  Out = Profile();
  std::vector<std::string> Lines = splitString(Text, '\n');
  size_t LineNo = 0;
  auto NextLine = [&]() -> std::vector<std::string> {
    while (LineNo < Lines.size()) {
      if (!Lines[LineNo].empty())
        return splitString(Lines[LineNo++], ' ');
      ++LineNo;
    }
    return {};
  };

  auto Header = NextLine();
  if (Header.size() != 3 || Header[0] != "profile")
    return false;
  Out.ProgramName = Header[1];
  Out.InputName = Header[2];

  auto Cycles = NextLine();
  if (Cycles.size() != 2 || Cycles[0] != "cycles")
    return false;
  Out.TotalCycles = std::strtod(Cycles[1].c_str(), nullptr);

  auto NumFns = NextLine();
  if (NumFns.size() != 2 || NumFns[0] != "functions")
    return false;
  size_t FnCount = std::strtoull(NumFns[1].c_str(), nullptr, 10);
  Out.Functions.resize(FnCount);

  for (size_t F = 0; F < FnCount; ++F) {
    auto FnLine = NextLine();
    if (FnLine.size() != 4 || FnLine[0] != "function" ||
        FnLine[2] != "entry")
      return false;
    FunctionProfile &FP = Out.Functions[F];
    FP.EntryCount = std::strtod(FnLine[3].c_str(), nullptr);
    auto BlockLine = NextLine();
    if (BlockLine.empty() || BlockLine[0] != "blocks")
      return false;
    for (size_t I = 1; I < BlockLine.size(); ++I)
      if (!BlockLine[I].empty())
        FP.BlockCounts.push_back(std::strtod(BlockLine[I].c_str(), nullptr));
    FP.ArcCounts.resize(FP.BlockCounts.size());
    for (size_t B = 0; B < FP.BlockCounts.size(); ++B) {
      auto ArcLine = NextLine();
      if (ArcLine.size() < 2 || ArcLine[0] != "arcs")
        return false;
      size_t BlockId = std::strtoull(ArcLine[1].c_str(), nullptr, 10);
      if (BlockId >= FP.ArcCounts.size())
        return false;
      for (size_t I = 2; I < ArcLine.size(); ++I)
        if (!ArcLine[I].empty())
          FP.ArcCounts[BlockId].push_back(
              std::strtod(ArcLine[I].c_str(), nullptr));
    }
  }

  auto Sites = NextLine();
  if (Sites.empty() || Sites[0] != "callsites")
    return false;
  for (size_t I = 1; I < Sites.size(); ++I)
    if (!Sites[I].empty())
      Out.CallSiteCounts.push_back(std::strtod(Sites[I].c_str(), nullptr));
  return true;
}
