//===- support/Hash.cpp - Stable content hashing ---------------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "support/Hash.h"

#include <atomic>
#include <bit>

using namespace sest;

namespace {
std::atomic<bool> DegenerateWordHash{false};
} // namespace

std::string sest::hashHex(uint64_t H) {
  static const char Digits[] = "0123456789abcdef";
  std::string Out(16, '0');
  for (int I = 15; I >= 0; --I) {
    Out[static_cast<size_t>(I)] = Digits[H & 0xf];
    H >>= 4;
  }
  return Out;
}

// Four independent multiply-rotate lanes over 32-byte blocks (the
// xxHash64 round), so the multiplies overlap, then the remaining words
// and the tail folded into one lane, and a final avalanche.
uint64_t sest::wordHash64(std::string_view Bytes) {
  if (DegenerateWordHash.load(std::memory_order_relaxed))
    return 0;
  constexpr uint64_t P1 = 0x9e3779b185ebca87ULL, P2 = 0xc2b2ae3d27d4eb4fULL;
  auto Load = [](const char *P) {
    uint64_t W;
    std::memcpy(&W, P, sizeof(W));
    return W;
  };
  auto Round = [](uint64_t Acc, uint64_t W) {
    return std::rotl(Acc + W * P2, 31) * P1;
  };
  const char *P = Bytes.data();
  size_t N = Bytes.size();
  uint64_t H = P1 ^ N;
  if (N >= 32) {
    uint64_t A = P1 + P2, B = P2, C = 0, D = -P1;
    for (; N >= 32; P += 32, N -= 32) {
      A = Round(A, Load(P));
      B = Round(B, Load(P + 8));
      C = Round(C, Load(P + 16));
      D = Round(D, Load(P + 24));
    }
    H ^= std::rotl(A, 1) + std::rotl(B, 7) + std::rotl(C, 12) +
         std::rotl(D, 18);
  }
  for (; N >= 8; P += 8, N -= 8)
    H = Round(H, Load(P));
  uint64_t Tail = 0;
  std::memcpy(&Tail, P, N);
  H = Round(H, Tail ^ (static_cast<uint64_t>(N) << 59));
  H ^= H >> 33;
  H *= P2;
  H ^= H >> 29;
  return H;
}

void sest::setDegenerateWordHashForTesting(bool On) {
  DegenerateWordHash.store(On, std::memory_order_relaxed);
}
