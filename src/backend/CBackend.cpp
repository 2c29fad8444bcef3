//===- backend/CBackend.cpp - Bytecode -> standalone C emission ------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
//
// Lowers a compiled BcModule to C, as one self-contained translation unit
// or as a prelude plus groups compiled as separate units (CSourceParts).
// The emitted runtime (kRuntimeDecls and kRuntimeDefs below) is a
// second, independent implementation in C of the interpreters' runtime
// (interp/RunState.h) and of the VM's dispatch: same value
// representation, same diagnostics byte for byte, same tick placement,
// same limit checks in the same order. Every instruction of every chunk becomes straight-line
// C with operands, offsets, strides, conversions, counter addresses and
// fall-through classification resolved at emission time; the dispatch
// loop disappears into labels and gotos.
//
// Layout truth: block segments are emitted in the layout plan's order,
// so the host C compiler materializes the plan's fall-throughs as real
// instruction-stream adjacency; cold chains are outlined into a
// separate `..._cold` continuation function per the plan's
// FirstColdPos. Transfers between the two regions go through a small
// trampoline (hot side) / a resume protocol (cold side); profile
// counters are bumped on the arc instruction exactly as in the VM, so
// profiles stay bit-identical no matter how blocks are placed.
//
//===----------------------------------------------------------------------===//

#include "backend/CBackend.h"

#include "backend/Native.h"
#include "cfg/Cfg.h"
#include "lang/Ast.h"
#include "lang/Type.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <sstream>

using namespace sest;
using namespace sest::backend;
using namespace sest::bc;

//===----------------------------------------------------------------------===//
// Profile shape (shared with the host-side decoder in Native.cpp)
//===----------------------------------------------------------------------===//

ProfileShape sest::backend::computeProfileShape(const TranslationUnit &Unit,
                                                const CfgModule &Cfgs) {
  ProfileShape S;
  S.BlockBase.assign(Unit.Functions.size(), -1);
  S.ArcBase.resize(Unit.Functions.size());
  S.Succs.resize(Unit.Functions.size());
  for (const auto &[F, G] : Cfgs.all()) {
    uint32_t Fid = F->functionId();
    S.BlockBase[Fid] = S.TotalBlocks;
    S.TotalBlocks += static_cast<int64_t>(G->size());
    S.ArcBase[Fid].assign(G->size(), -1);
    S.Succs[Fid].resize(G->size());
    for (const auto &B : G->blocks()) {
      S.ArcBase[Fid][B->id()] = S.TotalArcs;
      S.TotalArcs += static_cast<int64_t>(B->successors().size());
      auto &Row = S.Succs[Fid][B->id()];
      Row.reserve(B->successors().size());
      for (const BasicBlock *Succ : B->successors())
        Row.push_back(Succ->id());
    }
  }
  return S;
}

namespace {

//===----------------------------------------------------------------------===//
// Literal formatting
//===----------------------------------------------------------------------===//

/// C string literal with conservative escaping ('?' escaped against
/// trigraph warnings, non-printables as fixed-width octal so a following
/// digit cannot extend the escape).
std::string cstr(const std::string &S) {
  std::string Out = "\"";
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '?':
      Out += "\\?";
      break;
    default:
      if (C >= 32 && C < 127) {
        Out += static_cast<char>(C);
      } else {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\%03o", C);
        Out += Buf;
      }
    }
  }
  Out += "\"";
  return Out;
}

/// int64 literal; INT64_MIN has no direct C spelling.
std::string i64Lit(int64_t V) {
  if (V == INT64_MIN)
    return "(-9223372036854775807LL - 1)";
  return std::to_string(V) + "LL";
}

/// Bit-exact double literal (hex float; NaN/Inf via math.h macros).
std::string dblLit(double D) {
  if (std::isnan(D))
    return "((double)NAN)";
  if (std::isinf(D))
    return D < 0 ? "(-(double)INFINITY)" : "((double)INFINITY)";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", D);
  return Buf;
}

//===----------------------------------------------------------------------===//
// The emitted runtime
//===----------------------------------------------------------------------===//
//
// The runtime below mirrors interp/RunState.h and BytecodeVM.cpp; the
// BytecodeVM:: names in its comments include what the VM inherits from
// RunState. Value kinds: 0=int, 1=double, 2=ptr, 3=fnptr; fn ids stand
// in for FunctionDecl pointers (-1 = null). Address spaces: 0=null,
// 1=global, 2=stack, 3+K=heap block K. All message text must stay
// byte-identical to the interpreters'.

const char *kAbiText = R"__C__(
typedef struct sest_native_params {
  const char *input;
  unsigned long long input_len;
  unsigned long long rand_seed;
  unsigned long long max_steps;
  unsigned max_call_depth;
  unsigned long long max_host_stack_bytes;
  long long max_heap_cells;
  const double *cost_factor;
} sest_native_params;

typedef struct sest_native_result {
  int ok;
  int limit;
  long long exit_code;
  unsigned long long steps;
  long long heap_hw;
  unsigned call_depth_hw;
  unsigned long long lc_fall;
  unsigned long long lc_taken;
  unsigned long long lc_calls;
  unsigned long long lc_rets;
  double cycles;
  const char *output;
  unsigned long long output_len;
  const char *error;
  unsigned long long error_len;
  const double *blocks;
  const double *arcs;
  const double *entries;
  const double *callsites;
  const unsigned long long *self_steps;
  void *impl;
} sest_native_result;
)__C__";

// The runtime's prelude half, which opens every translation unit: the
// value and run-state types, the per-instruction fast paths, and hidden
// declarations of the generic helpers that kRuntimeDefs defines once per
// program. Only the fast paths are inlined: the operator switch, memory
// resolution, the per-step tick loop, builtins and the limit and failure
// paths are calls, so each body stays cheap to compile. The value cell
// `sv` has the interpreters' own layout (interp/Value.h): a kind byte, a
// pointer space and one 8-byte payload.
const char *kRuntimeDecls = R"__C__(
/* Inlining control. The per-instruction fast paths (sn_hot) are a few
 * instructions each and must inline into the generated bodies, which
 * -O1 does only when told to; the generic helpers (sn_rt) and the
 * failure paths (sn_cold) are defined once per program and called. */
#if defined(__GNUC__)
#define sn_hot static inline __attribute__((always_inline))
#define sn_hidden __attribute__((visibility("hidden")))
#define sn_rt sn_hidden __attribute__((noinline))
#define sn_cold sn_hidden __attribute__((noinline, cold))
#else
#define sn_hot static inline
#define sn_hidden
#define sn_rt
#define sn_cold
#endif

/* -- value cells (Value.h transplant) -- */
/* 16 bytes/cell. Every read of i/d/po/fn — here and in the emitted
 * bodies — is gated on k, so the union members never alias into
 * behavior (memset-zeroed cells read as int 0, exactly like the VM's
 * default-constructed Values). */
typedef struct sv {
  unsigned char k; /* 0 int, 1 double, 2 ptr, 3 fnptr */
  unsigned ps;     /* k==2 ptr space: 0 null, 1 global, 2 stack, 3+K heap */
  union {
    long long i;   /* k==0 */
    double d;      /* k==1 */
    long long po;  /* k==2 cell offset within ps */
    int fn;        /* k==3 function id; -1 = null function pointer */
  };
} sv;

sn_hot sv sv_int(long long v) {
  sv r; r.k = 0u; r.ps = 0u; r.i = v;
  return r;
}
sn_hot sv sv_dbl(double v) {
  sv r; r.k = 1u; r.ps = 0u; r.d = v;
  return r;
}
sn_hot sv sv_ptr(unsigned s, long long o) {
  sv r; r.k = 2u; r.ps = s; r.po = o;
  return r;
}
sn_hot sv sv_fn(int f) {
  sv r; r.k = 3u; r.ps = 0u; r.i = 0; r.fn = f;
  return r;
}

sn_hot long long sv_as_int(sv v) {
  if (v.k == 1u) /* NaN and out-of-range doubles become INT64_MIN. */
    return v.d >= -0x1p63 && v.d < 0x1p63 ? (long long)v.d
                                          : -9223372036854775807LL - 1;
  if (v.k == 2u) return v.po;
  if (v.k == 3u) return v.fn >= 0 ? 1 : 0;
  return v.i;
}
sn_hot double sv_as_double(sv v) {
  if (v.k == 1u) return v.d;
  return (double)sv_as_int(v);
}
sn_hot int sv_truthy(sv v) {
  switch (v.k) {
  case 0u: return v.i != 0;
  case 1u: return v.d != 0.0;
  case 2u: return v.ps != 0u;
  default: return v.fn >= 0;
  }
}

/* -- the per-run state (BytecodeVM's fields, C-shaped) -- */
typedef struct sheap {
  sv *cells;
  long long n;
  int freed;
} sheap;

typedef struct rt {
  sest_native_params prm;
  sv *globals;
  long long nglobals;
  sv *stack;
  long long nstack, capstack;
  sv *regs;
  long long nregs, capregs;
  sheap *heap;
  long long nheap, capheap;
  long long heap_used, heap_hw;
  long long frame_base;
  unsigned call_depth, call_depth_hw;
  int limit; /* RunLimit integer: 0 none .. 5 host-frame */
  int failed, exited;
  long long exit_val;
  unsigned long long steps;
  double cycles, cost_factor;
  unsigned long long *cur_self; /* never null; dummy outside mini-C fns */
  unsigned long long self_dummy;
  unsigned long long lc_fall, lc_taken, lc_calls, lc_rets;
  char *out;
  unsigned long long out_len, out_cap;
  unsigned long long in_pos;
  unsigned long long rng[4];
  char *host_base;
  char err[4096];
  unsigned long long self[SN_NFUNCS1];
  double blk[SN_NBLK1];
  double arc[SN_NARC1];
  double entry[SN_NFUNCS1];
  double cs[SN_NCS1];
} rt;

sn_hot int rt_halted(const rt *T) { return T->failed || T->exited; }

/* -- the generic helpers (kRuntimeDefs) -- */
sn_cold void rt_fail(rt *T, const char *msg);
sn_cold void rt_fail2(rt *T, const char *a, const char *b, const char *c);
sn_cold void rt_limit_steps(rt *T);
sn_cold void rt_limit_call_depth(rt *T, const char *name);
sn_cold void rt_limit_host_stack(rt *T, const char *name);
sn_cold void rt_limit_host_frame(rt *T, const char *name);
sn_rt void rt_tick_n_slow(rt *T, unsigned long long n);
sn_rt sv *rt_resolve(rt *T, unsigned sp, long long off, int wr);
sn_rt void rt_copy(rt *T, unsigned dsp, long long doff, unsigned ssp,
                   long long soff, long long n);
sn_rt void rt_zero(rt *T, unsigned sp, long long off, long long n);
sn_rt sv rt_bin(rt *T, int op, const sv *pl, const sv *pr, long long rs,
                long long ls);
sn_rt sv rt_builtin(rt *T, int kind, const char *name, long long argbase,
                    long long nargs);

/* -- step accounting -- */
sn_hot void rt_tick(rt *T) {
  T->steps += 1u;
  *T->cur_self += 1u;
  T->cycles += T->cost_factor;
  if (T->steps > T->prm.max_steps) rt_limit_steps(T);
}

/* One Tick instruction charging n steps. With the unit cost factor the
 * batched add is exact (all partials are representable), so it equals n
 * single adds; any other factor, or a run near its step limit, takes
 * rt_tick_n_slow. */
sn_hot void rt_tick_n(rt *T, unsigned long long n) {
  if (T->steps + n <= T->prm.max_steps && T->cost_factor == 1.0) {
    T->steps += n;
    *T->cur_self += n;
    T->cycles += (double)n;
  } else {
    rt_tick_n_slow(T, n);
  }
}

/* -- memory: in-bounds stack and global cells inline, the rest (heap,
 * null, failures) through rt_resolve -- */
sn_hot sv *rt_cell(rt *T, unsigned sp, long long off, int wr) {
  if (sp == 2u && (unsigned long long)off < (unsigned long long)T->nstack)
    return T->stack + off;
  if (sp == 1u && (unsigned long long)off < (unsigned long long)T->nglobals)
    return T->globals + off;
  return rt_resolve(T, sp, off, wr);
}
sn_hot sv rt_load(rt *T, unsigned sp, long long off) {
  sv *p = rt_cell(T, sp, off, 0);
  return p ? *p : sv_int(0);
}
sn_hot void rt_store(rt *T, unsigned sp, long long off, sv v) {
  sv *p = rt_cell(T, sp, off, 1);
  if (p) *p = v;
}

/* -- stack / register file growth (zero-filled like the VM's vectors) -- */
static inline void rt_stack_grow(rt *T, long long n) {
  if (n > T->capstack) {
    long long nc = T->capstack ? T->capstack : 64;
    while (nc < n) nc *= 2;
    T->stack = (sv *)realloc(T->stack, (size_t)nc * sizeof(sv));
    T->capstack = nc;
  }
  if (n > T->nstack)
    memset(T->stack + T->nstack, 0, (size_t)(n - T->nstack) * sizeof(sv));
  T->nstack = n;
}
static inline void rt_regs_grow(rt *T, long long n) {
  if (n <= T->nregs) return;
  if (n > T->capregs) {
    long long nc = T->capregs ? T->capregs : 64;
    while (nc < n) nc *= 2;
    T->regs = (sv *)realloc(T->regs, (size_t)nc * sizeof(sv));
    T->capregs = nc;
  }
  memset(T->regs + T->nregs, 0, (size_t)(n - T->nregs) * sizeof(sv));
  T->nregs = n;
}
static inline unsigned long long rt_stack_used(rt *T) {
  char probe;
  char *here = &probe;
  return (unsigned long long)(T->host_base > here ? T->host_base - here
                                                  : here - T->host_base);
}

/* -- conversions (BytecodeVM::convert, one function per target shape) -- */
static inline sv cv_int(sv v) { return sv_int(sv_as_int(v)); }
static inline sv cv_dbl(sv v) { return sv_dbl(sv_as_double(v)); }
static inline sv cv_pfn(sv v) {
  if (v.k == 3u) return v;
  if (v.k == 0u && v.i == 0) return sv_fn(-1);
  if (v.k == 2u && v.ps == 0u) return sv_fn(-1);
  return v; /* tolerated; call-through will diagnose */
}
static inline sv cv_pdata(sv v) {
  if (v.k == 2u) return v;
  if (v.k == 0u) return sv_ptr(0u, v.i);
  return v;
}
)__C__";

// The runtime's definitions, emitted once per program in the part that
// also holds the entry points.
const char *kRuntimeDefs = R"__C__(
/* -- bounded string building (no snprintf: keeps -Werror clean) -- */
static inline void sb_cat(char *buf, unsigned long long cap,
                          unsigned long long *len, const char *s) {
  while (*s && *len + 1u < cap) {
    buf[*len] = *s++;
    *len += 1u;
  }
  buf[*len] = 0;
}
static inline void sb_u64(char *buf, unsigned long long cap,
                          unsigned long long *len, unsigned long long v) {
  char tmp[24];
  int n = 0;
  do {
    tmp[n++] = (char)('0' + (int)(v % 10u));
    v /= 10u;
  } while (v);
  while (n > 0 && *len + 1u < cap) {
    buf[*len] = tmp[--n];
    *len += 1u;
  }
  buf[*len] = 0;
}
static inline void sb_i64(char *buf, unsigned long long cap,
                          unsigned long long *len, long long v) {
  if (v < 0) {
    sb_cat(buf, cap, len, "-");
    sb_u64(buf, cap, len, (unsigned long long)(-(v + 1)) + 1u);
  } else {
    sb_u64(buf, cap, len, (unsigned long long)v);
  }
}

/* -- failure handling: sticky flag, VM-identical messages -- */
sn_cold void rt_fail(rt *T, const char *msg) {
  if (!T->failed && !T->exited) {
    unsigned long long n = 0;
    T->failed = 1;
    T->err[0] = 0;
    sb_cat(T->err, sizeof T->err, &n, msg);
  }
}
sn_cold void rt_fail2(rt *T, const char *a, const char *b,
                            const char *c) {
  char m[512];
  unsigned long long n = 0;
  m[0] = 0;
  sb_cat(m, sizeof m, &n, a);
  sb_cat(m, sizeof m, &n, b);
  if (c) sb_cat(m, sizeof m, &n, c);
  rt_fail(T, m);
}
/* failLimit: message + " (" + usageSummary() + ")" */
sn_cold void rt_fail_usage(rt *T, const char *msg) {
  unsigned long long n = 0;
  T->failed = 1;
  T->err[0] = 0;
  sb_cat(T->err, sizeof T->err, &n, msg);
  sb_cat(T->err, sizeof T->err, &n, " (steps ");
  sb_u64(T->err, sizeof T->err, &n, T->steps);
  sb_cat(T->err, sizeof T->err, &n, ", call-depth high-water ");
  sb_u64(T->err, sizeof T->err, &n, (unsigned long long)T->call_depth_hw);
  sb_cat(T->err, sizeof T->err, &n, ", heap high-water ");
  sb_i64(T->err, sizeof T->err, &n, T->heap_hw);
  sb_cat(T->err, sizeof T->err, &n, " cells)");
}
sn_cold void rt_limit_steps(rt *T) {
  char b[256];
  unsigned long long n = 0;
  if (T->failed || T->exited) return;
  T->limit = 1;
  b[0] = 0;
  sb_cat(b, sizeof b, &n, "execution step limit exceeded (MaxSteps=");
  sb_u64(b, sizeof b, &n, T->prm.max_steps);
  sb_cat(b, sizeof b, &n, ")");
  rt_fail_usage(T, b);
}
sn_cold void rt_limit_call_depth(rt *T, const char *name) {
  char b[512];
  unsigned long long n = 0;
  if (T->failed || T->exited) return;
  T->limit = 2;
  b[0] = 0;
  sb_cat(b, sizeof b, &n, "call depth limit exceeded in '");
  sb_cat(b, sizeof b, &n, name);
  sb_cat(b, sizeof b, &n, "' (MaxCallDepth=");
  sb_u64(b, sizeof b, &n, (unsigned long long)T->prm.max_call_depth);
  sb_cat(b, sizeof b, &n, ")");
  rt_fail_usage(T, b);
}
sn_cold void rt_limit_host_stack(rt *T, const char *name) {
  char b[512];
  unsigned long long n = 0;
  if (T->failed || T->exited) return;
  T->limit = 3;
  b[0] = 0;
  sb_cat(b, sizeof b, &n, "call depth limit exceeded in '");
  sb_cat(b, sizeof b, &n, name);
  sb_cat(b, sizeof b, &n, "' (host stack budget, MaxHostStackBytes=");
  sb_u64(b, sizeof b, &n, T->prm.max_host_stack_bytes);
  sb_cat(b, sizeof b, &n, ")");
  rt_fail_usage(T, b);
}
sn_cold void rt_limit_heap(rt *T) {
  char b[256];
  unsigned long long n = 0;
  if (T->failed || T->exited) return;
  T->limit = 4;
  b[0] = 0;
  sb_cat(b, sizeof b, &n, "heap limit exceeded (MaxHeapCells=");
  sb_i64(b, sizeof b, &n, T->prm.max_heap_cells);
  sb_cat(b, sizeof b, &n, ")");
  rt_fail_usage(T, b);
}
sn_cold void rt_limit_host_frame(rt *T, const char *name) {
  char b[512];
  unsigned long long n = 0;
  if (T->failed || T->exited) return;
  T->limit = 5;
  b[0] = 0;
  sb_cat(b, sizeof b, &n, "stack overflow in '");
  sb_cat(b, sizeof b, &n, name);
  sb_cat(b, sizeof b, &n, "'");
  rt_fail_usage(T, b);
}

/* Near the step limit, run strictly per step so a limit trip reports the
 * same step count the VM would; a cost factor other than 1 accumulates
 * per step, bit for bit as the VM does. */
sn_rt void rt_tick_n_slow(rt *T, unsigned long long n) {
  unsigned long long i;
  if (T->steps + n > T->prm.max_steps) {
    for (i = 0; i < n; ++i) {
      rt_tick(T);
      if (T->failed) return;
    }
    return;
  }
  T->steps += n;
  *T->cur_self += n;
  for (i = 0; i < n; ++i) T->cycles += T->cost_factor;
}

/* -- memory -- */
sn_rt sv *rt_resolve(rt *T, unsigned sp, long long off, int wr) {
  const char *what = wr ? "write" : "read";
  if (sp == 0u) {
    rt_fail2(T, "null pointer ", what, 0);
    return 0;
  }
  if (sp == 1u) {
    if (off < 0 || off >= T->nglobals) {
      rt_fail2(T, "global ", what, " out of bounds");
      return 0;
    }
    return T->globals + off;
  }
  if (sp == 2u) {
    if (off < 0 || off >= T->nstack) {
      rt_fail2(T, "stack ", what, " out of bounds");
      return 0;
    }
    return T->stack + off;
  }
  {
    unsigned long long idx = (unsigned long long)(sp - 3u);
    if (idx >= (unsigned long long)T->nheap) {
      rt_fail2(T, "wild pointer ", what, 0);
      return 0;
    }
    if (T->heap[idx].freed) {
      rt_fail2(T, "use-after-free ", what, 0);
      return 0;
    }
    if (off < 0 || off >= T->heap[idx].n) {
      rt_fail2(T, "heap ", what, " out of bounds");
      return 0;
    }
    return T->heap[idx].cells + off;
  }
}
sn_rt void rt_copy(rt *T, unsigned dsp, long long doff, unsigned ssp,
                   long long soff, long long n) {
  long long i;
  for (i = 0; i < n && !rt_halted(T); ++i) {
    sv v = rt_load(T, ssp, soff + i);
    rt_store(T, dsp, doff + i, v);
  }
}
sn_rt void rt_zero(rt *T, unsigned sp, long long off, long long n) {
  long long i;
  for (i = 0; i < n; ++i) rt_store(T, sp, off + i, sv_int(0));
}

/* -- output buffer -- */
static inline void rt_out_raw(rt *T, const char *s, unsigned long long n) {
  if (T->out_len + n + 1u > T->out_cap) {
    unsigned long long nc = T->out_cap ? T->out_cap : 64u;
    while (nc < T->out_len + n + 1u) nc *= 2u;
    T->out = (char *)realloc(T->out, (size_t)nc);
    T->out_cap = nc;
  }
  memcpy(T->out + T->out_len, s, (size_t)n);
  T->out_len += n;
  T->out[T->out_len] = 0;
}
static inline void rt_out_ch(rt *T, char c) { rt_out_raw(T, &c, 1u); }
static inline void rt_out_str(rt *T, const char *s) {
  rt_out_raw(T, s, (unsigned long long)strlen(s));
}

/* -- deterministic PRNG (support/Prng.h: splitmix64 + xoshiro256**) -- */
static inline unsigned long long rt_rotl(unsigned long long x, int k) {
  return (x << k) | (x >> (64 - k));
}
static inline void rt_seed(rt *T, unsigned long long seed) {
  unsigned long long x = seed;
  int i;
  for (i = 0; i < 4; ++i) {
    unsigned long long z;
    x += 0x9e3779b97f4a7c15ULL;
    z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    T->rng[i] = z ^ (z >> 31);
  }
}
static inline unsigned long long rt_rng_next(rt *T) {
  unsigned long long *s = T->rng;
  unsigned long long result = rt_rotl(s[1] * 5u, 7) * 9u;
  unsigned long long t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rt_rotl(s[3], 45);
  return result;
}

/* -- program input -- */
static inline int rt_read_char(rt *T) {
  if (T->in_pos >= T->prm.input_len) return -1;
  return (int)(unsigned char)T->prm.input[T->in_pos++];
}
static inline int rt_isspace(int c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}
static inline long long rt_read_int(rt *T) {
  int neg = 0, any = 0;
  long long v = 0;
  while (T->in_pos < T->prm.input_len &&
         rt_isspace((int)(unsigned char)T->prm.input[T->in_pos]))
    T->in_pos++;
  if (T->in_pos >= T->prm.input_len) return -1;
  if (T->prm.input[T->in_pos] == '-') {
    neg = 1;
    T->in_pos++;
  }
  while (T->in_pos < T->prm.input_len) {
    int c = (int)(unsigned char)T->prm.input[T->in_pos];
    if (c < '0' || c > '9') break;
    v = v * 10 + (long long)(c - '0');
    T->in_pos++;
    any = 1;
  }
  if (!any) return -1;
  return neg ? -v : v;
}

/* -- binary operators (BytecodeVM::applyBinary; op = BinaryOp int) --
 * The generic path: the bodies inline the int/int and double/double
 * cases and call this for everything else. INT64_MIN / -1 and % -1
 * wrap like + - * instead of trapping. */
sn_rt sv rt_bin(rt *T, int op, const sv *pl, const sv *pr, long long rs,
                long long ls) {
  sv l = *pl, r = *pr;
  switch (op) {
  case 0: /* Add */
    if (l.k == 2u || r.k == 2u) {
      sv p = l.k == 2u ? l : r;
      sv n = l.k == 2u ? r : l;
      return sv_ptr(p.ps, p.po + sv_as_int(n) * rs);
    }
    if (l.k == 1u || r.k == 1u)
      return sv_dbl(sv_as_double(l) + sv_as_double(r));
    return sv_int(sv_as_int(l) + sv_as_int(r));
  case 1: /* Sub */
    if (l.k == 2u && r.k == 2u) {
      if (l.ps != r.ps) {
        rt_fail(T, "subtracting pointers into different objects");
        return sv_int(0);
      }
      return sv_int((l.po - r.po) / ls);
    }
    if (l.k == 2u) return sv_ptr(l.ps, l.po - sv_as_int(r) * rs);
    if (l.k == 1u || r.k == 1u)
      return sv_dbl(sv_as_double(l) - sv_as_double(r));
    return sv_int(sv_as_int(l) - sv_as_int(r));
  case 2: /* Mul */
    if (l.k == 1u || r.k == 1u)
      return sv_dbl(sv_as_double(l) * sv_as_double(r));
    return sv_int(sv_as_int(l) * sv_as_int(r));
  case 3: /* Div */
    if (l.k == 1u || r.k == 1u) {
      double d = sv_as_double(r);
      if (d == 0.0) {
        rt_fail(T, "floating division by zero");
        return sv_int(0);
      }
      return sv_dbl(sv_as_double(l) / d);
    }
    if (sv_as_int(r) == 0) {
      rt_fail(T, "integer division by zero");
      return sv_int(0);
    }
    if (sv_as_int(r) == -1)
      return sv_int((long long)(0u - (unsigned long long)sv_as_int(l)));
    return sv_int(sv_as_int(l) / sv_as_int(r));
  case 4: /* Rem */
    if (sv_as_int(r) == 0) {
      rt_fail(T, "integer remainder by zero");
      return sv_int(0);
    }
    if (sv_as_int(r) == -1) return sv_int(0);
    return sv_int(sv_as_int(l) % sv_as_int(r));
  case 5: { /* Shl */
    long long sh = sv_as_int(r);
    if (sh < 0 || sh > 63) {
      rt_fail(T, "shift amount out of range");
      return sv_int(0);
    }
    return sv_int((long long)((unsigned long long)sv_as_int(l) << sh));
  }
  case 6: { /* Shr */
    long long sh = sv_as_int(r);
    if (sh < 0 || sh > 63) {
      rt_fail(T, "shift amount out of range");
      return sv_int(0);
    }
    return sv_int(sv_as_int(l) >> sh);
  }
  case 7: return sv_int(sv_as_int(l) & sv_as_int(r));
  case 8: return sv_int(sv_as_int(l) | sv_as_int(r));
  case 9: return sv_int(sv_as_int(l) ^ sv_as_int(r));
  case 10: case 11: case 12: case 13: { /* Lt Gt Le Ge */
    double cmp;
    int res;
    if (l.k == 2u && r.k == 2u) {
      if (l.ps != r.ps)
        cmp = l.ps < r.ps ? -1.0 : 1.0;
      else
        cmp = l.po < r.po ? -1.0 : (l.po > r.po ? 1.0 : 0.0);
    } else if (l.k == 1u || r.k == 1u) {
      double a = sv_as_double(l), b = sv_as_double(r);
      cmp = a < b ? -1.0 : (a > b ? 1.0 : 0.0);
    } else {
      long long a = sv_as_int(l), b = sv_as_int(r);
      cmp = a < b ? -1.0 : (a > b ? 1.0 : 0.0);
    }
    if (op == 10) res = cmp < 0.0;
    else if (op == 11) res = cmp > 0.0;
    else if (op == 12) res = cmp <= 0.0;
    else res = cmp >= 0.0;
    return sv_int(res ? 1 : 0);
  }
  case 14: case 15: { /* Eq Ne */
    int eq;
    if (l.k == 2u && r.k == 2u)
      eq = l.ps == r.ps && l.po == r.po;
    else if (l.k == 3u || r.k == 3u)
      eq = (l.k == 3u && r.k == 3u)
               ? l.fn == r.fn
               : (l.k == 3u ? (l.fn < 0 && !sv_truthy(r))
                            : (r.fn < 0 && !sv_truthy(l)));
    else if (l.k == 2u || r.k == 2u) {
      sv p = l.k == 2u ? l : r;
      sv n = l.k == 2u ? r : l;
      eq = p.ps == 0u && sv_as_int(n) == 0;
    } else if (l.k == 1u || r.k == 1u)
      eq = sv_as_double(l) == sv_as_double(r);
    else
      eq = sv_as_int(l) == sv_as_int(r);
    return sv_int(((op == 14) == (eq != 0)) ? 1 : 0);
  }
  default:
    break; /* LogicalAnd/LogicalOr are lowered to branches */
  }
  return sv_int(0);
}

/* -- builtins (BytecodeVM::doBuiltin; kind = BuiltinKind int) -- */
sn_rt sv rt_builtin(rt *T, int kind, const char *name, long long argbase,
                    long long nargs) {
  sv a0 = nargs > 0 ? T->regs[argbase] : sv_int(0);
  switch (kind) {
  case 1: { /* print_int */
    char b[32];
    unsigned long long n = 0;
    b[0] = 0;
    sb_i64(b, sizeof b, &n, sv_as_int(a0));
    rt_out_raw(T, b, n);
    return sv_int(0);
  }
  case 2: /* print_char */
    rt_out_ch(T, (char)sv_as_int(a0));
    return sv_int(0);
  case 3: { /* print_str */
    long long i;
    if (a0.k != 2u) {
      rt_fail(T, "print_str expects a string pointer");
      return sv_int(0);
    }
    for (i = 0; i < (1 << 20); ++i) {
      sv c = rt_load(T, a0.ps, a0.po + i);
      long long ch;
      if (rt_halted(T)) return sv_int(0);
      ch = sv_as_int(c);
      if (ch == 0) return sv_int(0);
      rt_out_ch(T, (char)ch);
    }
    rt_fail(T, "unterminated string passed to print_str");
    return sv_int(0);
  }
  case 4: { /* print_double */
    char b[64];
    snprintf(b, sizeof b, "%.6g", sv_as_double(a0));
    rt_out_str(T, b);
    return sv_int(0);
  }
  case 5: return sv_int(rt_read_int(T));
  case 6: return sv_int((long long)rt_read_char(T));
  case 7: { /* malloc */
    long long ncells = sv_as_int(a0);
    if (ncells <= 0) return sv_ptr(0u, 0);
    if (T->heap_used + ncells > T->prm.max_heap_cells) {
      rt_limit_heap(T);
      return sv_int(0);
    }
    T->heap_used += ncells;
    if (T->heap_used > T->heap_hw) T->heap_hw = T->heap_used;
    if (T->nheap == T->capheap) {
      long long nc = T->capheap ? T->capheap * 2 : 16;
      T->heap = (sheap *)realloc(T->heap, (size_t)nc * sizeof(sheap));
      T->capheap = nc;
    }
    T->heap[T->nheap].cells = (sv *)calloc((size_t)ncells, sizeof(sv));
    T->heap[T->nheap].n = ncells;
    T->heap[T->nheap].freed = 0;
    T->nheap += 1;
    return sv_ptr(3u + (unsigned)(T->nheap - 1), 0);
  }
  case 8: { /* free */
    unsigned long long idx;
    if (a0.k != 2u) {
      rt_fail(T, "free of a non-pointer value");
      return sv_int(0);
    }
    if (a0.ps == 0u) return sv_int(0);
    idx = (unsigned long long)(unsigned)(a0.ps - 3u);
    if (a0.ps < 3u || idx >= (unsigned long long)T->nheap || a0.po != 0) {
      rt_fail(T, "free of a non-heap pointer");
      return sv_int(0);
    }
    if (T->heap[idx].freed) {
      rt_fail(T, "double free");
      return sv_int(0);
    }
    T->heap_used -= T->heap[idx].n;
    T->heap[idx].freed = 1;
    free(T->heap[idx].cells);
    T->heap[idx].cells = 0;
    T->heap[idx].n = 0;
    return sv_int(0);
  }
  case 9: /* abort */
    rt_fail(T, "abort() called");
    return sv_int(0);
  case 10: /* exit */
    T->exited = 1;
    T->exit_val = sv_as_int(a0);
    return sv_int(0);
  case 11: /* rand */
    return sv_int((long long)(rt_rng_next(T) >> 33));
  case 12: /* srand */
    rt_seed(T, (unsigned long long)sv_as_int(a0));
    return sv_int(0);
  case 13: { /* sqrt */
    double d = sv_as_double(a0);
    if (d < 0) {
      rt_fail(T, "sqrt of a negative number");
      return sv_int(0);
    }
    return sv_dbl(sqrt(d));
  }
  case 14: return sv_dbl(fabs(sv_as_double(a0)));
  case 15: return sv_dbl(floor(sv_as_double(a0)));
  default:
    break;
  }
  rt_fail2(T, "unknown builtin '", name, "'");
  return sv_int(0);
}
)__C__";

} // namespace

namespace {

//===----------------------------------------------------------------------===//
// The emitter
//===----------------------------------------------------------------------===//

/// The inline fast paths of one BinOp over operands `l` and `r`: the
/// int/int case (when IntGuard also holds) and the double/double case.
/// An empty expression has no fast path; everything else calls rt_bin.
struct FastBin {
  std::string IntGuard, Int, Dbl;
};

FastBin fastBin(BinaryOp Op) {
  if (Op == BinaryOp::LogicalAnd || Op == BinaryOp::LogicalOr)
    return {};
  std::string Sp = binaryOpSpelling(Op);
  FastBin F{"", "sv_int(l->i " + Sp + " r->i)", ""};
  switch (Op) {
  case BinaryOp::Add:
  case BinaryOp::Sub:
  case BinaryOp::Mul:
    F.Dbl = "sv_dbl(l->d " + Sp + " r->d)";
    break;
  case BinaryOp::Lt:
  case BinaryOp::Gt:
    F.Dbl = "sv_int(l->d " + Sp + " r->d)";
    break;
  // rt_bin compares doubles three-way, so NaN <= x and NaN >= x are 1.
  case BinaryOp::Le:
    F.Dbl = "sv_int(!(l->d > r->d))";
    break;
  case BinaryOp::Ge:
    F.Dbl = "sv_int(!(l->d < r->d))";
    break;
  // rt_bin fails on a zero divisor or a shift count out of range, and
  // wraps a -1 divisor instead of trapping.
  case BinaryOp::Div:
  case BinaryOp::Rem:
    F.IntGuard = " && r->i != 0 && r->i != -1";
    break;
  case BinaryOp::Shl:
    F.Int = "sv_int((long long)((unsigned long long)l->i << r->i))";
    [[fallthrough]];
  case BinaryOp::Shr:
    F.IntGuard = " && (unsigned long long)r->i < 64u";
    break;
  default:
    break;
  }
  return F;
}

class CEmitter {
public:
  CEmitter(const TranslationUnit &Unit, const CfgModule &Cfgs,
           const BcModule &Bc, const NativeLayoutPlan &Plan)
      : Unit(Unit), Cfgs(Cfgs), Bc(Bc), Plan(Plan) {}

  bool emit(CSourceParts &Out);
  const std::string &error() const { return Err; }

private:
  /// Which C function an instruction's text lands in.
  enum class Region { Hot, Cold, Init };

  /// Per-chunk emission state. A chunk is split into *segments* at every
  /// BlockEnter; segments are the reorderable unit (each one is closed
  /// with an explicit transfer, so emission order is semantics-free).
  struct FnState {
    uint32_t Fid = 0;
    const BcChunk *Ch = nullptr;
    std::string Name;
    bool IsInit = false;
    std::vector<size_t> SegStart;   ///< Ascending; SegStart[0] == 0.
    std::vector<int> SegBlock;      ///< Block id; -1 for a preamble.
    std::vector<uint8_t> SegCold;
    std::set<size_t> HotLabels, ColdLabels;
    std::set<int> ColdEntries;           ///< Block ids entered from hot.
    std::map<int, size_t> ResumeTargets; ///< Block id -> hot offset.
    bool UsesTrampoline = false;
    bool HasCold = false;
    std::vector<std::string> InstrText; ///< One slot per instruction.
    std::vector<std::string> SegTail;   ///< Fall-through fixups.

    size_t segOf(size_t Off) const {
      size_t Lo = 0, Hi = SegStart.size();
      while (Lo + 1 < Hi) {
        size_t Mid = (Lo + Hi) / 2;
        if (SegStart[Mid] <= Off)
          Lo = Mid;
        else
          Hi = Mid;
      }
      return Lo;
    }
    Region regionAt(size_t Off) const {
      if (IsInit)
        return Region::Init;
      return SegCold[segOf(Off)] ? Region::Cold : Region::Hot;
    }
    bool isSegStart(size_t Off) const {
      size_t S = segOf(Off);
      return SegStart[S] == Off;
    }
    void needLabel(size_t Off, Region R) {
      if (R == Region::Cold)
        ColdLabels.insert(Off);
      else
        HotLabels.insert(Off); // Init shares the hot label set
    }
  };

  bool fail(const std::string &M) {
    if (Err.empty())
      Err = M;
    return false;
  }

  static std::string hltText(Region R) {
    switch (R) {
    case Region::Hot:
      return "return sv_int(0);";
    case Region::Cold:
      return "*resume = -2; return;";
    case Region::Init:
      return "return;";
    }
    return "";
  }

  /// convert(V, Ty) as an emission-time-specialized expression.
  static std::string convExpr(const Type *Ty, const std::string &E) {
    if (!Ty)
      return E;
    switch (Ty->kind()) {
    case TypeKind::Int:
    case TypeKind::Char:
      return "cv_int(" + E + ")";
    case TypeKind::Double:
      return "cv_dbl(" + E + ")";
    case TypeKind::Pointer:
      return typeCast<PointerType>(Ty)->pointee()->isFunction()
                 ? "cv_pfn(" + E + ")"
                 : "cv_pdata(" + E + ")";
    default:
      return E;
    }
  }

  std::string arcBump(const FnState &St, uint16_t Block, unsigned Slot) {
    int64_t Base = Shape.ArcBase[St.Fid][Block];
    uint32_t Succ = Shape.Succs[St.Fid][Block][Slot];
    bool Fall = Pos[St.Fid][Succ] == Pos[St.Fid][Block] + 1;
    return "T->arc[" + std::to_string(Base + Slot) + "] += 1.0; T->" +
           (Fall ? "lc_fall" : "lc_taken") + " += 1u; ";
  }

  std::string transferText(FnState &St, size_t FromOff, int64_t Target);
  std::string poolName(const StringLitExpr *S);
  bool prepareFn(FnState &St);
  bool emitInstr(FnState &St, size_t Off);
  bool generateChunk(FnState &St);
  void assembleRegion(FnState &St, Region R, std::string &Out);
  void emitFnBodies(FnState &St, std::string &Out);
  void emitWrapper(const FunctionDecl *F, std::string &Out);

  const TranslationUnit &Unit;
  const CfgModule &Cfgs;
  const BcModule &Bc;
  const NativeLayoutPlan &Plan;

  ProfileShape Shape;
  std::vector<std::vector<uint32_t>> Pos;
  std::vector<int64_t> StringBase;
  int64_t NGlobals = 0;
  bool HasIndirect = false;
  std::map<const StringLitExpr *, unsigned> Pools;
  std::vector<const StringLitExpr *> PoolOrder;
  std::string Err;
};

std::string CEmitter::transferText(FnState &St, size_t FromOff,
                                   int64_t Target) {
  Region FR = St.regionAt(FromOff);
  Region TR = St.regionAt(static_cast<size_t>(Target));
  if (FR == TR) {
    St.needLabel(static_cast<size_t>(Target), TR);
    return "goto L" + std::to_string(Target) + ";";
  }
  size_t TSeg = St.segOf(static_cast<size_t>(Target));
  int Tb = St.SegBlock[TSeg];
  if (FR == Region::Hot) {
    St.ColdEntries.insert(Tb);
    St.UsesTrampoline = true;
    St.needLabel(static_cast<size_t>(Target), Region::Cold);
    return "cold_entry = " + std::to_string(Tb) + "; goto SN_COLDCALL;";
  }
  St.ResumeTargets[Tb] = static_cast<size_t>(Target);
  St.needLabel(static_cast<size_t>(Target), Region::Hot);
  return "*resume = " + std::to_string(Tb) + "; return;";
}

std::string CEmitter::poolName(const StringLitExpr *S) {
  auto It = Pools.find(S);
  if (It == Pools.end()) {
    It = Pools.emplace(S, static_cast<unsigned>(Pools.size())).first;
    PoolOrder.push_back(S);
  }
  return "ss_" + std::to_string(It->second);
}

/// Splits the chunk into segments, applies the layout plan's coldness,
/// then downgrades to all-hot when outlining would be unsound (plain
/// branches across the region boundary) or pointless (no hot->cold arc).
bool CEmitter::prepareFn(FnState &St) {
  const std::vector<BcInstr> &Code = St.Ch->Code;
  St.SegStart.clear();
  St.SegBlock.clear();
  St.SegStart.push_back(0);
  St.SegBlock.push_back(!Code.empty() && Code[0].K == BcOp::BlockEnter
                            ? Code[0].X
                            : -1);
  for (size_t I = 1; I < Code.size(); ++I)
    if (Code[I].K == BcOp::BlockEnter) {
      St.SegStart.push_back(I);
      St.SegBlock.push_back(Code[I].X);
    }
  St.SegCold.assign(St.SegStart.size(), 0);

  // Plan coldness: only when this function has a valid plan row.
  uint32_t Fid = St.Fid;
  bool ValidRow = Fid < Plan.Order.size() &&
                  Fid < Pos.size() &&
                  !Plan.Order[Fid].empty() &&
                  Plan.Order[Fid].size() == Pos[Fid].size();
  if (ValidRow && Fid < Plan.FirstColdPos.size() &&
      Plan.FirstColdPos[Fid] < Pos[Fid].size()) {
    uint32_t FCP = Plan.FirstColdPos[Fid];
    for (size_t S = 0; S < St.SegStart.size(); ++S) {
      int B = St.SegBlock[S];
      if (B >= 0 && static_cast<size_t>(B) < Pos[Fid].size() &&
          Pos[Fid][B] >= FCP)
        St.SegCold[S] = 1;
    }
  }
  // The function entry (offset 0) must stay hot.
  if (St.SegCold[0])
    St.SegCold.assign(St.SegStart.size(), 0);

  auto ClearCold = [&] { St.SegCold.assign(St.SegStart.size(), 0); };

  // Soundness: plain (non-arc) branches cannot cross regions, and arc
  // transfers across regions must target a segment start.
  bool Sound = true;
  for (size_t I = 0; I < Code.size() && Sound; ++I) {
    const BcInstr &Ins = Code[I];
    Region FR = St.SegCold[St.segOf(I)] ? Region::Cold : Region::Hot;
    auto SameRegion = [&](int64_t T) {
      return (St.SegCold[St.segOf(static_cast<size_t>(T))] != 0) ==
             (FR == Region::Cold);
    };
    auto ArcOk = [&](int64_t T) {
      return SameRegion(T) || St.isSegStart(static_cast<size_t>(T));
    };
    switch (Ins.K) {
    case BcOp::Jmp:
    case BcOp::BrFalse:
    case BcOp::BrTrue:
      Sound = SameRegion(Ins.X);
      break;
    case BcOp::ArcJmp:
      Sound = ArcOk(Ins.X);
      break;
    case BcOp::ArcCondBr:
      Sound = ArcOk(Ins.X) && ArcOk(Ins.Imm);
      break;
    case BcOp::ArcSwitch: {
      const auto *Tbl = static_cast<const BcSwitchTable *>(Ins.Ptr);
      Sound = ArcOk(Tbl->DefaultTarget);
      for (const BcSwitchCase &C : Tbl->Cases)
        Sound = Sound && ArcOk(C.Target);
      break;
    }
    default:
      break;
    }
  }
  if (!Sound)
    ClearCold();

  // Pointlessness: outline only when some hot transfer actually reaches
  // a cold segment (otherwise the cold function would be dead code).
  bool AnyCold = false, Entered = false;
  for (uint8_t C : St.SegCold)
    AnyCold = AnyCold || C;
  if (AnyCold) {
    auto ToCold = [&](size_t FromOff, int64_t T) {
      return !St.SegCold[St.segOf(FromOff)] &&
             St.SegCold[St.segOf(static_cast<size_t>(T))];
    };
    for (size_t S = 0; S < St.SegStart.size() && !Entered; ++S) {
      size_t End = S + 1 < St.SegStart.size() ? St.SegStart[S + 1]
                                              : Code.size();
      if (End == St.SegStart[S])
        continue;
      const BcInstr &Last = Code[End - 1];
      switch (Last.K) {
      case BcOp::ArcJmp:
        Entered = ToCold(End - 1, Last.X);
        break;
      case BcOp::ArcCondBr:
        Entered = ToCold(End - 1, Last.X) || ToCold(End - 1, Last.Imm);
        break;
      case BcOp::ArcSwitch: {
        const auto *Tbl = static_cast<const BcSwitchTable *>(Last.Ptr);
        Entered = ToCold(End - 1, Tbl->DefaultTarget);
        for (const BcSwitchCase &C : Tbl->Cases)
          Entered = Entered || ToCold(End - 1, C.Target);
        break;
      }
      case BcOp::Jmp:
      case BcOp::RetVal:
      case BcOp::RetVoid:
      case BcOp::FailMsg:
      case BcOp::Halt:
        break;
      default:
        // Implicit fall-through into the next segment.
        if (S + 1 < St.SegStart.size())
          Entered = ToCold(End - 1, static_cast<int64_t>(St.SegStart[S + 1]));
        break;
      }
    }
    if (!Entered)
      ClearCold();
  }
  for (uint8_t C : St.SegCold)
    St.HasCold = St.HasCold || C;
  return true;
}

/// One instruction -> C statement(s). Everything the VM resolves per
/// dispatch (operands, strides, offsets, conversions, counter slots,
/// fall-through classification) is resolved here, once.
bool CEmitter::emitInstr(FnState &St, size_t Off) {
  const BcInstr &I = St.Ch->Code[Off];
  Region Rg = St.regionAt(Off);
  std::string &O = St.InstrText[Off];
  auto RS = [](uint16_t N) { return "R[" + std::to_string(N) + "]"; };
  std::string Hlt = hltText(Rg);
  std::string HltIf = "if (rt_halted(T)) { " + Hlt + " }";
  std::string Refresh = St.IsInit ? "R = T->regs;" : "R = T->regs + rb;";
  auto ArgBase = [&](uint16_t B) {
    return St.IsInit ? std::to_string(B) : "rb + " + std::to_string(B);
  };
  std::string NewRb = St.IsInit ? std::to_string(St.Ch->NumRegs)
                                : "rb + " + std::to_string(St.Ch->NumRegs);
  auto Ret = [&](const std::string &V) -> std::string {
    switch (Rg) {
    case Region::Hot:
      return "return " + V + ";";
    case Region::Cold:
      return "*retv = " + V + "; *resume = -1; return;";
    case Region::Init:
      return "return;";
    }
    return "";
  };

  switch (I.K) {
  case BcOp::ConstInt:
    O = "  " + RS(I.A) + " = sv_int(" + i64Lit(I.Imm) + ");\n";
    return true;
  case BcOp::ConstDouble:
    O = "  " + RS(I.A) + " = sv_dbl(" + dblLit(I.Dbl) + ");\n";
    return true;
  case BcOp::ConstStr: {
    if (static_cast<size_t>(I.X) >= StringBase.size())
      return fail("internal error: string id out of range");
    O = "  " + RS(I.A) + " = sv_ptr(1u, " + i64Lit(StringBase[I.X]) + ");\n";
    return true;
  }
  case BcOp::ConstFn: {
    const auto *F = static_cast<const FunctionDecl *>(I.Ptr);
    O = "  " + RS(I.A) + " = sv_fn(" + std::to_string(F->functionId()) +
        ");\n";
    return true;
  }
  case BcOp::Move:
    O = "  " + RS(I.A) + " = " + RS(I.B) + ";\n";
    return true;
  case BcOp::Truthy:
    O = "  " + RS(I.A) + " = sv_int(sv_truthy(" + RS(I.B) + ") ? 1 : 0);\n";
    return true;
  case BcOp::LoadGlobal:
    if (static_cast<uint64_t>(static_cast<int64_t>(I.X)) >=
        static_cast<uint64_t>(NGlobals))
      O = "  rt_fail(T, \"global read out of bounds\"); " + Hlt + "\n";
    else
      O = "  " + RS(I.A) + " = T->globals[" + std::to_string(I.X) + "];\n";
    return true;
  case BcOp::LoadLocal:
    O = "  { long long off = T->frame_base + " + i64Lit(I.X) +
        "; if (off < 0 || off >= T->nstack) { rt_fail(T, \"stack read out "
        "of bounds\"); " +
        Hlt + " } " + RS(I.A) + " = T->stack[off]; }\n";
    return true;
  case BcOp::LeaGlobal:
    O = "  " + RS(I.A) + " = sv_ptr(1u, " + i64Lit(I.X) + ");\n";
    return true;
  case BcOp::LeaLocal:
    O = "  " + RS(I.A) + " = sv_ptr(2u, T->frame_base + " + i64Lit(I.X) +
        ");\n";
    return true;
  case BcOp::LvalFromPtr: {
    const auto *Msg = static_cast<const std::string *>(I.Ptr);
    O = "  if (" + RS(I.B) + ".k != 2u) { rt_fail(T, " + cstr(*Msg) + "); " +
        Hlt + " }\n  " + RS(I.A) + " = " + RS(I.B) + ";\n";
    return true;
  }
  case BcOp::ArrowLoc:
    O = "  if (" + RS(I.B) +
        ".k != 2u) { rt_fail(T, \"'->' applied to non-pointer value\"); " +
        Hlt + " }\n  " + RS(I.A) + " = sv_ptr(" + RS(I.B) + ".ps, " + RS(I.B) +
        ".po + " + i64Lit(I.X) + ");\n";
    return true;
  case BcOp::IndexLoc:
    O = "  if (" + RS(I.B) +
        ".k != 2u) { rt_fail(T, \"indexing a non-pointer value\"); " + Hlt +
        " }\n  " + RS(I.A) + " = sv_ptr(" + RS(I.B) + ".ps, " + RS(I.B) +
        ".po + sv_as_int(" + RS(I.C) + ") * " + i64Lit(I.X) + ");\n";
    return true;
  case BcOp::AddOffs:
    O = "  " + RS(I.A) + " = sv_ptr(" + RS(I.B) + ".ps, " + RS(I.B) +
        ".po + " + i64Lit(I.X) + ");\n";
    return true;
  case BcOp::LoadCellD:
    O = "  { sv v = rt_load(T, " + RS(I.B) + ".ps, " + RS(I.B) + ".po); " +
        HltIf + " " + RS(I.A) + " = v; }\n";
    return true;
  case BcOp::ConvStore: {
    const auto *Ty = static_cast<const Type *>(I.Ptr);
    O = "  { sv v = " + convExpr(Ty, RS(I.C)) + "; rt_store(T, " + RS(I.B) +
        ".ps, " + RS(I.B) + ".po, v); " + HltIf + " " + RS(I.A) +
        " = v; }\n";
    return true;
  }
  case BcOp::StructAssign:
    O = "  if (" + RS(I.C) +
        ".k != 2u) { rt_fail(T, \"struct assignment from non-aggregate "
        "value\"); " +
        Hlt + " }\n  { unsigned ds = " + RS(I.B) + ".ps; long long dofs = " +
        RS(I.B) + ".po; rt_copy(T, ds, dofs, " + RS(I.C) + ".ps, " + RS(I.C) +
        ".po, " + i64Lit(I.X) + "); " + HltIf + " " + RS(I.A) +
        " = sv_ptr(ds, dofs); }\n";
    return true;
  case BcOp::ZeroLoc:
    O = "  rt_zero(T, " + RS(I.A) + ".ps, " + RS(I.A) + ".po, " +
        i64Lit(I.Imm) + "); " + HltIf + "\n";
    return true;
  case BcOp::StrCopyLoc: {
    const auto *S = static_cast<const StringLitExpr *>(I.Ptr);
    const std::string &V = S->value();
    O = "  { unsigned bs = " + RS(I.A) + ".ps; long long bo = " + RS(I.A) +
        ".po; rt_zero(T, bs, bo, " + i64Lit(I.X) + "); " + HltIf + "\n";
    if (!V.empty()) {
      O += "    { long long j; for (j = 0; j < " +
           std::to_string(V.size()) + "; ++j) rt_store(T, bs, bo + j, "
           "sv_int((long long)" +
           poolName(S) + "[j])); }\n";
    }
    O += "    " + HltIf + " }\n";
    return true;
  }
  case BcOp::Neg:
    O = "  " + RS(I.A) + " = " + RS(I.B) + ".k == 1u ? sv_dbl(-" + RS(I.B) +
        ".d) : sv_int(-sv_as_int(" + RS(I.B) + "));\n";
    return true;
  case BcOp::LogNot:
    O = "  " + RS(I.A) + " = sv_int(sv_truthy(" + RS(I.B) + ") ? 0 : 1);\n";
    return true;
  case BcOp::BitNot:
    O = "  " + RS(I.A) + " = sv_int(~sv_as_int(" + RS(I.B) + "));\n";
    return true;
  case BcOp::DerefRV:
    if (I.Sub) {
      O = "  if (" + RS(I.B) + ".k == 3u) { " + RS(I.A) + " = " + RS(I.B) +
          "; } else if (" + RS(I.B) +
          ".k != 2u) { rt_fail(T, \"dereference of non-pointer value\"); " +
          Hlt + " } else { " + RS(I.A) + " = " + RS(I.B) + "; }\n";
    } else {
      O = "  if (" + RS(I.B) + ".k == 3u) { " + RS(I.A) + " = " + RS(I.B) +
          "; } else if (" + RS(I.B) +
          ".k != 2u) { rt_fail(T, \"dereference of non-pointer value\"); " +
          Hlt + " } else { sv v = rt_load(T, " + RS(I.B) + ".ps, " + RS(I.B) +
          ".po); " + HltIf + " " + RS(I.A) + " = v; }\n";
    }
    return true;
  case BcOp::IncDec: {
    bool Inc = (I.Sub & bc::IncDecIsInc) != 0;
    bool Pre = (I.Sub & bc::IncDecIsPre) != 0;
    std::string Sign = Inc ? "+" : "-";
    O = "  { unsigned ls = " + RS(I.B) + ".ps; long long lo = " + RS(I.B) +
        ".po; sv oldv; sv newv; oldv = rt_load(T, ls, lo); " + HltIf +
        "\n    if (oldv.k == 2u) newv = sv_ptr(oldv.ps, oldv.po " + Sign +
        " " + i64Lit(I.X) + "); else if (oldv.k == 1u) newv = sv_dbl(oldv.d " +
        Sign + " 1.0); else newv = sv_int(sv_as_int(oldv) " + Sign +
        " 1);\n    rt_store(T, ls, lo, newv); " + HltIf + " " + RS(I.A) +
        " = " + (Pre ? "newv" : "oldv") + "; }\n";
    return true;
  }
  case BcOp::BinOp: {
    FastBin F = fastBin(static_cast<BinaryOp>(I.Sub));
    std::string Slow = "{ sv v = rt_bin(T, " + std::to_string(I.Sub) +
                       ", l, r, " + i64Lit(I.X) + ", " + i64Lit(I.Imm) +
                       "); " + HltIf + " " + RS(I.A) + " = v; }";
    O = "  { const sv *l = &" + RS(I.B) + ", *r = &" + RS(I.C) + ";\n    ";
    if (!F.Int.empty())
      O += "if (l->k == 0u && r->k == 0u" + F.IntGuard + ") " + RS(I.A) +
           " = " + F.Int + ";\n    else ";
    if (!F.Dbl.empty())
      O += "if (l->k == 1u && r->k == 1u) " + RS(I.A) + " = " + F.Dbl +
           ";\n    else ";
    O += Slow + " }\n";
    return true;
  }
  case BcOp::Conv: {
    const auto *Ty = static_cast<const Type *>(I.Ptr);
    O = "  " + RS(I.A) + " = " + convExpr(Ty, RS(I.B)) + ";\n";
    return true;
  }
  case BcOp::Tick:
    if (I.X == 1)
      O = "  rt_tick(T); " + HltIf + "\n";
    else if (I.X > 1)
      O = "  rt_tick_n(T, " + std::to_string(I.X) + "u); " + HltIf + "\n";
    return true;
  case BcOp::TickCall: {
    const auto *F = static_cast<const FunctionDecl *>(I.Ptr);
    O = "  rt_tick(T);\n";
    if (I.X >= 0)
      O += "  T->cs[" + std::to_string(I.X) + "] += 1.0;\n";
    // On a halt at the call tick, the VM still charges the about-to-run
    // callee's entry/call counters when the call would have been
    // admitted (profile parity for step-limited runs).
    std::string Leak;
    if (!I.Sub && F && !F->isBuiltin() && Bc.chunkFor(F)) {
      std::string Fid = std::to_string(F->functionId());
      std::string Frame = i64Lit(F->frameSizeCells());
      Leak = " if (T->call_depth < T->prm.max_call_depth) { if "
             "(rt_stack_used(T) <= T->prm.max_host_stack_bytes) { T->entry[" +
             Fid + "] += 1.0; T->lc_calls += 1u; if (T->nstack + " + Frame +
             " <= (long long)(1u << 24)) { if (T->call_depth + 1u > "
             "T->call_depth_hw) T->call_depth_hw = T->call_depth + 1u; } } }";
    }
    O += "  if (rt_halted(T)) {" + Leak + " " + Hlt + " }\n";
    return true;
  }
  case BcOp::BlockEnter: {
    if (St.IsInit)
      return fail("internal error: BlockEnter in global initializer");
    int64_t Base = Shape.BlockBase[St.Fid];
    if (Base < 0)
      return fail("internal error: no block base for function");
    O = "  rt_tick(T); T->blk[" + std::to_string(Base + I.X) +
        "] += 1.0; " + HltIf + "\n";
    return true;
  }
  case BcOp::Jmp:
    O = "  " + transferText(St, Off, I.X) + "\n";
    return true;
  case BcOp::BrFalse:
    St.needLabel(static_cast<size_t>(I.X), Rg);
    O = "  if (!sv_truthy(" + RS(I.A) + ")) goto L" + std::to_string(I.X) +
        ";\n";
    return true;
  case BcOp::BrTrue:
    St.needLabel(static_cast<size_t>(I.X), Rg);
    O = "  if (sv_truthy(" + RS(I.A) + ")) goto L" + std::to_string(I.X) +
        ";\n";
    return true;
  case BcOp::ArcJmp: {
    if (St.IsInit)
      return fail("internal error: ArcJmp in global initializer");
    O = "  " + arcBump(St, I.B, I.C) + transferText(St, Off, I.X) + "\n";
    return true;
  }
  case BcOp::ArcCondBr: {
    if (St.IsInit)
      return fail("internal error: ArcCondBr in global initializer");
    O = "  if (sv_truthy(" + RS(I.A) + ")) { " + arcBump(St, I.B, 0) +
        transferText(St, Off, I.X) + " } else { " + arcBump(St, I.B, 1) +
        transferText(St, Off, I.Imm) + " }\n";
    return true;
  }
  case BcOp::ArcSwitch: {
    if (St.IsInit)
      return fail("internal error: ArcSwitch in global initializer");
    const auto *Tbl = static_cast<const BcSwitchTable *>(I.Ptr);
    O = "  { long long swv = sv_as_int(" + RS(I.A) + ");\n";
    bool First = true;
    for (const BcSwitchCase &C : Tbl->Cases) {
      O += std::string("    ") + (First ? "if" : "else if") + " (swv == " +
           i64Lit(C.Value) + ") { " + arcBump(St, I.B, C.Slot) +
           transferText(St, Off, C.Target) + " }\n";
      First = false;
    }
    O += std::string("    ") + (First ? "{ (void)swv; " : "else { ") +
         arcBump(St, I.B, Tbl->DefaultSlot) +
         transferText(St, Off, Tbl->DefaultTarget) + " } }\n";
    return true;
  }
  case BcOp::RetVal: {
    const auto *Ty = static_cast<const Type *>(I.Ptr);
    if (Rg == Region::Init)
      O = "  T->lc_rets += 1u;\n  return;\n";
    else
      O = "  { sv v = " + convExpr(Ty, RS(I.A)) + "; T->lc_rets += 1u; " +
          Ret("v") + " }\n";
    return true;
  }
  case BcOp::RetVoid:
    // The VM charges lc_rets only when a function profile is current
    // (never during global init).
    if (Rg == Region::Init)
      O = "  return;\n";
    else
      O = "  T->lc_rets += 1u;\n  " + Ret("sv_int(0)") + "\n";
    return true;
  case BcOp::FailMsg: {
    const auto *Msg = static_cast<const std::string *>(I.Ptr);
    O = "  rt_fail(T, " + cstr(*Msg) + "); " + Hlt + "\n";
    return true;
  }
  case BcOp::CheckFn:
    O = "  if (" + RS(I.A) + ".k != 3u || " + RS(I.A) +
        ".fn < 0) { rt_fail(T, \"indirect call through a non-function "
        "value\"); " +
        Hlt + " }\n";
    return true;
  case BcOp::SiteBump:
    O = "  T->cs[" + std::to_string(I.X) + "] += 1.0;\n";
    return true;
  case BcOp::CheckStructArg:
    O = "  if (" + RS(I.A) +
        ".k != 2u) { rt_fail(T, \"struct argument is not an aggregate\"); " +
        Hlt + " }\n";
    return true;
  case BcOp::CallDirect: {
    const auto *F = static_cast<const FunctionDecl *>(I.Ptr);
    O = "  { sv v = call_" + std::to_string(F->functionId()) + "(T, " +
        ArgBase(I.B) + ", " + std::to_string(I.C) + ", " + NewRb + "); " +
        Refresh + " " + HltIf + " " + RS(I.A) + " = v; }\n";
    return true;
  }
  case BcOp::CallIndirect:
    O = "  { sv v = rt_call_indirect(T, " + RS(static_cast<uint16_t>(I.X)) +
        ".fn, " + ArgBase(I.B) + ", " + std::to_string(I.C) + ", " + NewRb +
        "); " + Refresh + " " + HltIf + " " + RS(I.A) + " = v; }\n";
    return true;
  case BcOp::CallBuiltin: {
    const auto *F = static_cast<const FunctionDecl *>(I.Ptr);
    O = "  { sv v = rt_builtin(T, " +
        std::to_string(static_cast<int>(F->builtin())) + ", " +
        cstr(F->name()) + ", " + ArgBase(I.B) + ", " + std::to_string(I.C) +
        "); " + HltIf + " " + RS(I.A) + " = v; }\n";
    return true;
  }
  case BcOp::Halt:
    O = "  rt_fail(T, \"internal error: bytecode fell off chunk end\"); " +
        Hlt + "\n";
    return true;
  }
  return fail("internal error: unknown opcode");
}

bool CEmitter::generateChunk(FnState &St) {
  const std::vector<BcInstr> &Code = St.Ch->Code;
  St.InstrText.assign(Code.size(), std::string());
  St.SegTail.assign(St.SegStart.size(), std::string());
  for (size_t I = 0; I < Code.size(); ++I)
    if (!emitInstr(St, I))
      return false;
  if (St.IsInit)
    return true;
  // Segments are emitted out of original order, so every one that can
  // run off its end gets an explicit transfer to its original successor.
  for (size_t S = 0; S < St.SegStart.size(); ++S) {
    size_t End = S + 1 < St.SegStart.size() ? St.SegStart[S + 1]
                                            : Code.size();
    if (End == St.SegStart[S])
      continue;
    switch (Code[End - 1].K) {
    case BcOp::Jmp:
    case BcOp::ArcJmp:
    case BcOp::ArcCondBr:
    case BcOp::ArcSwitch:
    case BcOp::RetVal:
    case BcOp::RetVoid:
    case BcOp::FailMsg:
    case BcOp::Halt:
      break;
    default:
      if (S + 1 < St.SegStart.size())
        St.SegTail[S] =
            "  " +
            transferText(St, End - 1,
                         static_cast<int64_t>(St.SegStart[S + 1])) +
            "\n";
      else
        St.SegTail[S] =
            "  rt_fail(T, \"internal error: bytecode fell off chunk "
            "end\"); " +
            hltText(St.regionAt(End - 1)) + "\n";
      break;
    }
  }
  return true;
}

void CEmitter::assembleRegion(FnState &St, Region R, std::string &Out) {
  std::vector<size_t> Ordered;
  for (size_t S = 0; S < St.SegStart.size(); ++S)
    if ((St.SegCold[S] != 0) == (R == Region::Cold))
      Ordered.push_back(S);
  std::stable_sort(Ordered.begin(), Ordered.end(),
                   [&](size_t A, size_t B) {
                     auto Key = [&](size_t S) -> int64_t {
                       int Blk = St.SegBlock[S];
                       if (Blk < 0)
                         return -1; // preamble leads
                       if (static_cast<size_t>(Blk) < Pos[St.Fid].size())
                         return static_cast<int64_t>(Pos[St.Fid][Blk]);
                       return Blk;
                     };
                     return Key(A) < Key(B);
                   });
  const std::set<size_t> &Labels =
      R == Region::Cold ? St.ColdLabels : St.HotLabels;
  for (size_t S : Ordered) {
    size_t End = S + 1 < St.SegStart.size() ? St.SegStart[S + 1]
                                            : St.Ch->Code.size();
    for (size_t I = St.SegStart[S]; I < End; ++I) {
      if (Labels.count(I)) {
        Out += "L";
        Out += std::to_string(I);
        Out += ": ;\n";
      }
      Out += St.InstrText[I];
    }
    Out += St.SegTail[S];
  }
}

void CEmitter::emitFnBodies(FnState &St, std::string &Out) {
  std::string N = std::to_string(St.Fid);
  if (St.HasCold) {
    // The outlined cold continuation: entered at a cold block id, runs
    // until it returns (resume = -1, value in *retv), halts (-2), or
    // transfers back to a hot block (resume = block id).
    Out += "static void fn_" + N +
           "_cold(rt *T, long long rb, int entry, sv *retv, int *resume) "
           "{\n";
    Out += "  sv *R = T->regs + rb;\n  (void)R;\n  (void)retv;\n";
    std::map<int, size_t> ColdStart;
    for (size_t S = 0; S < St.SegStart.size(); ++S)
      if (St.SegCold[S] && St.SegBlock[S] >= 0)
        ColdStart[St.SegBlock[S]] = St.SegStart[S];
    Out += "  switch (entry) {\n";
    for (int Bid : St.ColdEntries)
      Out += "  case " + std::to_string(Bid) + ": goto L" +
             std::to_string(ColdStart[Bid]) + ";\n";
    Out += "  default: rt_fail(T, \"internal error: bad cold entry\"); "
           "*resume = -2; return;\n  }\n";
    assembleRegion(St, Region::Cold, Out);
    Out += "}\n\n";
  }
  Out += "static sv fn_" + N + "(rt *T, long long rb) {\n";
  Out += "  sv *R = T->regs + rb;\n  (void)R;\n";
  if (St.Ch->Code.empty()) {
    Out += "  return sv_int(0);\n}\n\n";
    return;
  }
  if (St.UsesTrampoline)
    Out += "  int cold_entry = 0;\n  int resume = 0;\n  sv coldret;\n";
  // Execution starts at offset 0 regardless of where layout placed the
  // entry segment in the emitted order.
  St.HotLabels.insert(0);
  Out += "  goto L0;\n";
  assembleRegion(St, Region::Hot, Out);
  if (St.UsesTrampoline) {
    Out += "SN_COLDCALL:\n";
    Out += "  coldret = sv_int(0);\n  resume = -2;\n";
    Out += "  fn_" + N + "_cold(T, rb, cold_entry, &coldret, &resume);\n";
    Out += "  R = T->regs + rb;\n";
    Out += "  if (resume == -1) return coldret;\n";
    Out += "  if (resume < 0) return sv_int(0);\n";
    Out += "  switch (resume) {\n";
    for (const auto &[Bid, HotOff] : St.ResumeTargets)
      Out += "  case " + std::to_string(Bid) + ": goto L" +
             std::to_string(HotOff) + ";\n";
    Out += "  default: return sv_int(0);\n  }\n";
  }
  Out += "}\n\n";
}

/// The call protocol, one wrapper per function id (defined or not):
/// callFunction's limit checks, profile charges, frame setup, parameter
/// binding and teardown, with everything per-function resolved at
/// emission time.
void CEmitter::emitWrapper(const FunctionDecl *F, std::string &Out) {
  uint32_t Fid = F->functionId();
  std::string N = std::to_string(Fid);
  const BcChunk *Ch =
      Fid < Bc.Chunks.size() ? Bc.Chunks[Fid].get() : nullptr;
  std::string Name = cstr(F->name());
  Out += "sn_hidden sv call_" + N +
         "(rt *T, long long argbase, long long nargs, long long newrb) {\n";
  if (!Ch) {
    Out += "  (void)argbase; (void)nargs; (void)newrb;\n";
    Out += "  if (T->call_depth >= T->prm.max_call_depth) { "
           "rt_limit_call_depth(T, " +
           Name + "); return sv_int(0); }\n";
    Out += "  if (rt_stack_used(T) > T->prm.max_host_stack_bytes) { "
           "rt_limit_host_stack(T, " +
           Name + "); return sv_int(0); }\n";
    Out += "  rt_fail2(T, \"call to undefined function '\", " + Name +
           ", \"'\");\n  return sv_int(0);\n}\n\n";
    return;
  }
  bool HasParams = !F->params().empty();
  Out += "  long long saved_base;\n  double saved_factor;\n"
         "  unsigned long long *saved_self;\n  sv ret;\n";
  if (HasParams)
    Out += "  sv arg;\n";
  else
    Out += "  (void)argbase; (void)nargs;\n";
  Out += "  if (T->call_depth >= T->prm.max_call_depth) { "
         "rt_limit_call_depth(T, " +
         Name + "); return sv_int(0); }\n";
  Out += "  if (rt_stack_used(T) > T->prm.max_host_stack_bytes) { "
         "rt_limit_host_stack(T, " +
         Name + "); return sv_int(0); }\n";
  Out += "  T->entry[" + N + "] += 1.0;\n  T->lc_calls += 1u;\n";
  Out += "  saved_base = T->frame_base;\n  saved_factor = T->cost_factor;\n"
         "  saved_self = T->cur_self;\n";
  Out += "  T->frame_base = T->nstack;\n";
  std::string Frame = i64Lit(F->frameSizeCells());
  Out += "  if (T->nstack + " + Frame +
         " > (long long)(1u << 24)) { rt_limit_host_frame(T, " + Name +
         "); return sv_int(0); }\n";
  Out += "  rt_stack_grow(T, T->nstack + " + Frame + ");\n";
  Out += "  T->cost_factor = T->prm.cost_factor[" + N + "];\n";
  Out += "  T->cur_self = &T->self[" + N + "];\n";
  Out += "  T->call_depth += 1u;\n";
  Out += "  if (T->call_depth > T->call_depth_hw) T->call_depth_hw = "
         "T->call_depth;\n";
  const std::vector<const Type *> &ParamTypes = F->type()->params();
  for (size_t P = 0; P < F->params().size(); ++P) {
    const VarDecl *V = F->params()[P];
    const Type *PTy = P < ParamTypes.size() ? ParamTypes[P] : nullptr;
    std::string Sp, Loc;
    if (V->storage() == StorageKind::Global) {
      Sp = "1u";
      Loc = i64Lit(V->cellOffset());
    } else {
      Sp = "2u";
      Loc = "T->frame_base + " + i64Lit(V->cellOffset());
    }
    Out += "  arg = " + std::to_string(P) + " < nargs ? T->regs[argbase + " +
           std::to_string(P) + "] : sv_int(0);\n";
    if (PTy && PTy->isStruct())
      Out += "  if (arg.k == 2u) rt_copy(T, " + Sp + ", " + Loc +
             ", arg.ps, arg.po, " + i64Lit(PTy->sizeInCells()) + ");\n";
    else
      Out += "  rt_store(T, " + Sp + ", " + Loc + ", " +
             convExpr(V->type(), "arg") + ");\n";
  }
  Out += "  rt_regs_grow(T, newrb + " + std::to_string(Ch->NumRegs) +
         ");\n";
  Out += "  ret = sv_int(0);\n  if (!rt_halted(T)) ret = fn_" + N +
         "(T, newrb);\n";
  Out += "  T->call_depth -= 1u;\n  T->cost_factor = saved_factor;\n"
         "  T->cur_self = saved_self;\n  T->nstack = T->frame_base;\n"
         "  T->frame_base = saved_base;\n  return ret;\n}\n\n";
}

bool CEmitter::emit(CSourceParts &Out) {
  // Mirror RunState::findMain's checks up front; the host driver turns
  // these into the VM's canned RunResults (fresh result, Error only).
  const FunctionDecl *Main = Unit.findFunction("main");
  if (!Main || !Main->isDefined())
    return fail("program has no main function");
  if (!Main->params().empty())
    return fail("main must take no parameters");

  Shape = computeProfileShape(Unit, Cfgs);
  Pos = layoutPositions(Unit, Cfgs,
                        Plan.Order.empty() ? nullptr : &Plan.Order);

  NGlobals = Unit.GlobalSizeCells;
  StringBase.clear();
  for (const std::string &S : Unit.StringTable) {
    StringBase.push_back(NGlobals);
    NGlobals += static_cast<int64_t>(S.size()) + 1;
  }

  for (const auto &Ch : Bc.Chunks)
    if (Ch)
      for (const BcInstr &I : Ch->Code)
        if (I.K == BcOp::CallIndirect)
          HasIndirect = true;
  for (const BcInstr &I : Bc.GlobalInit.Code)
    if (I.K == BcOp::CallIndirect)
      HasIndirect = true;

  size_t NFuncs = Unit.Functions.size();
  std::vector<const FunctionDecl *> ByFid(NFuncs, nullptr);
  for (const FunctionDecl *F : Unit.Functions)
    ByFid[F->functionId()] = F;

  std::vector<FnState> States(NFuncs);
  for (size_t Fid = 0; Fid < NFuncs; ++Fid) {
    const BcChunk *Ch =
        Fid < Bc.Chunks.size() ? Bc.Chunks[Fid].get() : nullptr;
    if (!Ch || !ByFid[Fid])
      continue;
    FnState &St = States[Fid];
    St.Fid = static_cast<uint32_t>(Fid);
    St.Ch = Ch;
    St.Name = ByFid[Fid]->name();
    if (!prepareFn(St) || !generateChunk(St))
      return false;
  }
  FnState InitSt;
  InitSt.IsInit = true;
  InitSt.Ch = &Bc.GlobalInit;
  if (!generateChunk(InitSt))
    return false;

  // ---- the prelude: opens every translation unit ----
  std::string &P = Out.Prelude;
  P += "/* Generated by the sest C backend; do not edit.\n"
       "   Standalone lowering of one program + layout plan; ABI in\n"
       "   src/backend/NativeAbi.h (version 1). */\n";
  P += "#include <stdlib.h>\n#include <string.h>\n#include <stdio.h>\n"
       "#include <math.h>\n\n";
  auto Max1 = [](int64_t N) { return std::to_string(N > 0 ? N : 1); };
  P += "#define SN_NFUNCS1 " + Max1(static_cast<int64_t>(NFuncs)) + "\n";
  P += "#define SN_NBLK1 " + Max1(Shape.TotalBlocks) + "\n";
  P += "#define SN_NARC1 " + Max1(Shape.TotalArcs) + "\n";
  P += "#define SN_NCS1 " + Max1(static_cast<int64_t>(Unit.NumCallSites)) +
       "\n";
  P += kAbiText;
  P += kRuntimeDecls;
  // Everything one unit may reference in another: the StrCopyLoc string
  // pools, every call wrapper, and indirect dispatch.
  P += "\n";
  for (size_t I = 0; I < PoolOrder.size(); ++I)
    if (!PoolOrder[I]->value().empty())
      P += "sn_hidden extern const unsigned char ss_" + std::to_string(I) +
           "[];\n";
  for (size_t Fid = 0; Fid < NFuncs; ++Fid)
    P += "sn_hidden sv call_" + std::to_string(Fid) +
         "(rt *T, long long argbase, long long nargs, long long newrb);\n";
  if (HasIndirect)
    P += "sn_hidden sv rt_call_indirect(rt *T, int fid, long long argbase, "
         "long long nargs, long long newrb);\n";

  // ---- group 0: the runtime definitions, tables and entry points ----
  std::string &R = Out.Groups.emplace_back(kRuntimeDefs);
  // String pools: sl_<i> back the string-table's startup global fill,
  // ss_<k> back StrCopyLoc initializers. Empty strings need no bytes.
  auto EmitBytes = [](std::string &O, const std::string &Decl,
                      const std::string &S) {
    O += Decl + "[] = {";
    for (size_t I = 0; I < S.size(); ++I) {
      if (I % 16 == 0)
        O += "\n  ";
      O += std::to_string(static_cast<unsigned char>(S[I])) + ",";
    }
    O += "\n};\n";
  };
  R += "\n";
  for (size_t I = 0; I < Unit.StringTable.size(); ++I)
    if (!Unit.StringTable[I].empty())
      EmitBytes(R, "static const unsigned char sl_" + std::to_string(I),
                Unit.StringTable[I]);
  for (size_t I = 0; I < PoolOrder.size(); ++I)
    if (!PoolOrder[I]->value().empty())
      EmitBytes(R, "sn_hidden const unsigned char ss_" + std::to_string(I),
                PoolOrder[I]->value());
  R += "\n";

  if (HasIndirect) {
    R += "typedef sv (*sn_callfn)(rt *, long long, long long, long long);\n";
    R += "static const sn_callfn SN_CALLS[] = {";
    for (size_t Fid = 0; Fid < NFuncs; ++Fid) {
      if (Fid % 8 == 0)
        R += "\n  ";
      R += "call_" + std::to_string(Fid) + ",";
    }
    R += "\n};\n\n";
    for (size_t Fid = 0; Fid < NFuncs; ++Fid) {
      const FunctionDecl *F = ByFid[Fid];
      if (!F)
        continue;
      const auto &PT = F->type()->params();
      bool AnyStruct = false;
      for (const Type *Ty : PT)
        AnyStruct = AnyStruct || (Ty && Ty->isStruct());
      if (!AnyStruct)
        continue;
      R += "static const unsigned char sn_ps_" + std::to_string(Fid) +
           "[] = {";
      for (const Type *Ty : PT)
        R += (Ty && Ty->isStruct()) ? "1," : "0,";
      R += "};\n";
    }
    R += "typedef struct sn_fninfo { const char *name; int builtin; "
         "long long nparams; const unsigned char *pstruct; } "
         "sn_fninfo;\n";
    R += "static const sn_fninfo SN_FNS[] = {";
    for (size_t Fid = 0; Fid < NFuncs; ++Fid) {
      const FunctionDecl *F = ByFid[Fid];
      std::string Name = F ? cstr(F->name()) : "\"\"";
      int BK = F ? static_cast<int>(F->builtin()) : 0;
      size_t NP = F ? F->type()->params().size() : 0;
      bool AnyStruct = false;
      if (F)
        for (const Type *Ty : F->type()->params())
          AnyStruct = AnyStruct || (Ty && Ty->isStruct());
      R += "\n  { " + Name + ", " + std::to_string(BK) + ", " +
           std::to_string(NP) + ", " +
           (AnyStruct ? "sn_ps_" + std::to_string(Fid) : std::string("0")) +
           " },";
    }
    R += "\n};\n";
    // Mirrors the VM's CallIndirect handler: struct-parameter guard
    // against the resolved callee, builtins routed to rt_builtin.
    R += "sn_hidden sv rt_call_indirect(rt *T, int fid, long long argbase, "
         "long long nargs, long long newrb) {\n"
         "  const sn_fninfo *f = &SN_FNS[fid];\n"
         "  long long a;\n"
         "  for (a = 0; a < nargs && a < f->nparams; ++a)\n"
         "    if (f->pstruct && f->pstruct[a] && T->regs[argbase + a].k "
         "!= 2u) {\n"
         "      rt_fail(T, \"struct argument is not an aggregate\");\n"
         "      return sv_int(0);\n"
         "    }\n"
         "  if (f->builtin) return rt_builtin(T, f->builtin, f->name, "
         "argbase, nargs);\n"
         "  return SN_CALLS[fid](T, argbase, nargs, newrb);\n"
         "}\n\n";
  }

  // Global initializer: straight-line, original order (no profiling).
  R += "static void sn_global_init(rt *T) {\n  sv *R = T->regs;\n  "
       "(void)R;\n";
  for (size_t I = 0; I < InitSt.Ch->Code.size(); ++I) {
    if (InitSt.HotLabels.count(I))
      R += "L" + std::to_string(I) + ": ;\n";
    R += InitSt.InstrText[I];
  }
  R += "}\n\n";

  std::string MainFid = std::to_string(Main->functionId());
  R += "int sest_native_run(const sest_native_params *prm, "
       "sest_native_result *res) {\n"
       "  char anchor;\n"
       "  sv ret;\n"
       "  rt *T = (rt *)calloc(1, sizeof(rt));\n"
       "  if (!T) return 1;\n"
       "  T->prm = *prm;\n"
       "  T->cost_factor = 1.0;\n"
       "  T->cur_self = &T->self_dummy;\n"
       "  T->host_base = &anchor;\n"
       "  rt_seed(T, prm->rand_seed);\n";
  R += "  T->nglobals = " + std::to_string(NGlobals) + ";\n";
  R += "  T->globals = (sv *)calloc(" + Max1(NGlobals) +
       ", sizeof(sv));\n"
       "  if (!T->globals) { free(T); return 1; }\n";
  for (size_t I = 0; I < Unit.StringTable.size(); ++I) {
    const std::string &S = Unit.StringTable[I];
    if (S.empty())
      continue;
    R += "  { long long j; for (j = 0; j < " + std::to_string(S.size()) +
         "; ++j) T->globals[" + i64Lit(StringBase[I]) +
         " + j] = sv_int((long long)sl_" + std::to_string(I) + "[j]); }\n";
  }
  R += "  rt_regs_grow(T, " + std::to_string(Bc.GlobalInit.NumRegs) +
       ");\n"
       "  sn_global_init(T);\n"
       "  ret = sv_int(0);\n"
       "  if (!rt_halted(T)) ret = call_" +
       MainFid +
       "(T, 0, 0, 0);\n"
       "  res->ok = T->failed ? 0 : 1;\n"
       "  res->limit = T->limit;\n"
       "  res->exit_code = T->exited ? T->exit_val : sv_as_int(ret);\n"
       "  res->steps = T->steps;\n"
       "  res->heap_hw = T->heap_hw;\n"
       "  res->call_depth_hw = T->call_depth_hw;\n"
       "  res->lc_fall = T->lc_fall;\n"
       "  res->lc_taken = T->lc_taken;\n"
       "  res->lc_calls = T->lc_calls;\n"
       "  res->lc_rets = T->lc_rets;\n"
       "  res->cycles = T->cycles;\n"
       "  res->output = T->out ? T->out : \"\";\n"
       "  res->output_len = T->out_len;\n"
       "  res->error = T->err;\n"
       "  res->error_len = strlen(T->err);\n"
       "  res->blocks = T->blk;\n"
       "  res->arcs = T->arc;\n"
       "  res->entries = T->entry;\n"
       "  res->callsites = T->cs;\n"
       "  res->self_steps = T->self;\n"
       "  res->impl = T;\n"
       "  return 0;\n"
       "}\n\n";
  R += "void sest_native_free(sest_native_result *res) {\n"
       "  rt *T = (rt *)res->impl;\n"
       "  long long i;\n"
       "  if (!T) return;\n"
       "  for (i = 0; i < T->nheap; ++i) free(T->heap[i].cells);\n"
       "  free(T->heap);\n"
       "  free(T->globals);\n"
       "  free(T->stack);\n"
       "  free(T->regs);\n"
       "  free(T->out);\n"
       "  free(T);\n"
       "  res->impl = 0;\n"
       "}\n\n";
  R += "const unsigned long long sest_native_shape[5] = { 1u, " +
       std::to_string(NFuncs) + "u, " + std::to_string(Shape.TotalBlocks) +
       "u, " + std::to_string(Shape.TotalArcs) + "u, " +
       std::to_string(Unit.NumCallSites) + "u };\n";

  // ---- one group per function: fn_N, fn_N_cold and call_N ----
  for (size_t Fid = 0; Fid < NFuncs; ++Fid) {
    if (!ByFid[Fid])
      continue;
    std::string &G = Out.Groups.emplace_back("\n");
    if (Fid < Bc.Chunks.size() && Bc.Chunks[Fid])
      emitFnBodies(States[Fid], G);
    emitWrapper(ByFid[Fid], G);
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// CBackend entry points (compile/available live in Native.cpp)
//===----------------------------------------------------------------------===//

std::string CSourceParts::singleUnit() const {
  std::string Out = Prelude;
  for (const std::string &G : Groups)
    Out += G;
  return Out;
}

std::vector<std::string> CSourceParts::shards(unsigned K) const {
  size_t N = std::min<size_t>(std::max(K, 1u), Groups.size());
  // Longest processing time first: each group, largest first, joins the
  // lightest shard so far (ties to the lowest index).
  std::vector<size_t> BySize(Groups.size());
  std::iota(BySize.begin(), BySize.end(), size_t{0});
  std::stable_sort(BySize.begin(), BySize.end(), [&](size_t A, size_t B) {
    return Groups[A].size() > Groups[B].size();
  });
  std::vector<size_t> Load(N, 0);
  std::vector<std::vector<size_t>> Members(N);
  for (size_t G : BySize) {
    size_t S = static_cast<size_t>(
        std::min_element(Load.begin(), Load.end()) - Load.begin());
    Load[S] += Groups[G].size();
    Members[S].push_back(G);
  }
  std::vector<std::string> Out(N, Prelude);
  for (size_t S = 0; S < N; ++S) {
    std::sort(Members[S].begin(), Members[S].end());
    for (size_t G : Members[S])
      Out[S] += Groups[G];
  }
  return Out;
}

bool CBackend::emitParts(const TranslationUnit &Unit, const CfgModule &Cfgs,
                         const bc::BcModule &Bc, const NativeLayoutPlan &Plan,
                         CSourceParts &Out, std::string *Error) const {
  CEmitter E(Unit, Cfgs, Bc, Plan);
  Out = CSourceParts();
  if (E.emit(Out))
    return true;
  if (Error)
    *Error = E.error();
  return false;
}

std::string CBackend::emitSource(const TranslationUnit &Unit,
                                 const CfgModule &Cfgs,
                                 const bc::BcModule &Bc,
                                 const NativeLayoutPlan &Plan,
                                 std::string *Error) const {
  CSourceParts Parts;
  if (!emitParts(Unit, Cfgs, Bc, Plan, Parts, Error))
    return "";
  return Parts.singleUnit();
}

const Backend &sest::backend::cBackend() {
  static CBackend B;
  return B;
}
