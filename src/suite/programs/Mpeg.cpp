//===- suite/programs/Mpeg.cpp - Block transform decoder ------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stand-in for "mpeg" (play MPEG video files): a block-based decoder —
/// run-length/entropy decode of coefficient blocks from the input
/// stream, dequantization, a separable 8×8 butterfly transform (a
/// Walsh-Hadamard transform standing in for the IDCT), pixel clamping,
/// and frame differencing. Mixed loop and data-dependent branch
/// behavior.
///
//===----------------------------------------------------------------------===//

#include "suite/Suite.h"

#include "support/Prng.h"
#include "support/StringUtils.h"

#include <string>

using namespace sest;

namespace {

const char *Source = R"MC(
/* block decoder: RLE -> dequant -> 8x8 WHT -> clamp -> frame update */

int zigzag[64] = {
   0,  1,  8, 16,  9,  2,  3, 10,
  17, 24, 32, 25, 18, 11,  4,  5,
  12, 19, 26, 33, 40, 48, 41, 34,
  27, 20, 13,  6,  7, 14, 21, 28,
  35, 42, 49, 56, 57, 50, 43, 36,
  29, 22, 15, 23, 30, 37, 44, 51,
  58, 59, 52, 45, 38, 31, 39, 46,
  53, 60, 61, 54, 47, 55, 62, 63 };

int quant[64];
int coeffs[64];
int block[64];
int frame[1024];   /* 4x4 blocks of 8x8 = 32x32 pixels */
int n_blocks_decoded = 0;
int checksum = 0;

void init_quant(int quality) {
  int i;
  for (i = 0; i < 64; i++)
    quant[i] = 1 + (i * quality) / 32;
}

/* read one run-length pair list from input; returns 0 at end of stream */
int read_block_coeffs() {
  int pos = 0;
  int run;
  int level;
  int i;
  for (i = 0; i < 64; i++)
    coeffs[i] = 0;
  run = read_int();
  if (run == -9999)
    return 0;
  while (run != -1) {
    level = read_int();
    pos += run;
    if (pos >= 64)
      break;
    coeffs[zigzag[pos]] = level;
    pos++;
    run = read_int();
  }
  return 1;
}

void dequantize() {
  int i;
  for (i = 0; i < 64; i++) {
    if (coeffs[i] == 0)
      continue; /* sparse blocks: most coefficients are zero */
    block[i] = coeffs[i] * quant[i];
  }
  for (i = 0; i < 64; i++)
    if (coeffs[i] == 0)
      block[i] = 0;
}

/* 8-point butterfly (Walsh-Hadamard) on a strided vector */
void butterfly8(int base, int stride) {
  int tmp[8];
  int i;
  int half;
  int step;
  for (i = 0; i < 8; i++)
    tmp[i] = block[base + i * stride];
  for (step = 1; step < 8; step = step * 2) {
    for (i = 0; i < 8; i++) {
      half = i / step % 2;
      if (half == 0)
        tmp[i] = tmp[i] + tmp[i + step];
      else
        tmp[i] = tmp[i - step] - 2 * tmp[i];
    }
  }
  for (i = 0; i < 8; i++)
    block[base + i * stride] = tmp[i];
}

void transform_block() {
  int r;
  int c;
  for (r = 0; r < 8; r++)
    butterfly8(r * 8, 1);
  for (c = 0; c < 8; c++)
    butterfly8(c, 8);
}

int clamp_pixel(int v) {
  if (v < 0)
    return 0;
  if (v > 255)
    return 255;
  return v;
}

void add_to_frame(int bx, int by) {
  int r;
  int c;
  int pix;
  for (r = 0; r < 8; r++) {
    for (c = 0; c < 8; c++) {
      pix = frame[(by * 8 + r) * 32 + bx * 8 + c];
      pix = clamp_pixel(pix + block[r * 8 + c] / 16);
      frame[(by * 8 + r) * 32 + bx * 8 + c] = pix;
      checksum = (checksum * 17 + pix) % 1000000007;
    }
  }
}

int frame_energy() {
  int i;
  int e = 0;
  for (i = 0; i < 1024; i++)
    e += frame[i] * frame[i] / 1024;
  return e;
}

int main() {
  int quality = read_int();
  int bx = 0;
  int by = 0;
  init_quant(quality);
  while (read_block_coeffs()) {
    dequantize();
    transform_block();
    add_to_frame(bx, by);
    n_blocks_decoded++;
    bx++;
    if (bx == 4) {
      bx = 0;
      by = (by + 1) % 4;
    }
  }
  print_str("blocks=");
  print_int(n_blocks_decoded);
  print_str(" energy=");
  print_int(frame_energy());
  print_str(" check=");
  print_int(checksum % 100000);
  print_char('\n');
  return 0;
}
)MC";

/// Builds an input stream: quality, then blocks of (run, level) pairs
/// each terminated by -1, and a -9999 end marker.
std::string makeStream(uint64_t Seed, int Quality, int Blocks) {
  Prng R(Seed);
  std::string S = std::to_string(Quality) + "\n";
  for (int B = 0; B < Blocks; ++B) {
    int Pos = 0;
    // Sparse coefficient blocks: a handful of nonzeros early in zigzag
    // order, like real DCT data.
    while (Pos < 64) {
      int Run = static_cast<int>(R.nextBelow(9));
      Pos += Run + 1;
      if (Pos >= 64 || R.nextBelow(5) == 0)
        break;
      int Level = static_cast<int>(R.nextInRange(-40, 40));
      if (Level == 0)
        Level = 7;
      S += concat(std::to_string(Run), " ", std::to_string(Level), " ");
    }
    S += "-1\n";
  }
  S += "-9999\n";
  return S;
}

} // namespace

SuiteProgram sest::makeMpeg() {
  SuiteProgram P;
  P.Name = "mpeg";
  P.PaperAnalogue = "mpeg";
  P.Description = "Play MPEG video files (block transform decoder)";
  P.Source = Source;
  P.Inputs = {
      {"q8x48", makeStream(101, 8, 48), 101},
      {"q16x64", makeStream(103, 16, 64), 103},
      {"q4x32", makeStream(107, 4, 32), 107},
      {"q24x56", makeStream(109, 24, 56), 109},
      {"q12x40", makeStream(127, 12, 40), 127},
  };
  return P;
}
