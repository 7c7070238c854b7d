#pragma once

/// \file simd.hpp
/// Portable SIMD layer for the hot simulation kernels.
///
/// Four implementations of the same kernel set coexist in the binary,
/// selected at runtime by CPU-feature dispatch (simd_dispatch.hpp):
///
///  - scalar   plain std::complex loops, bit-identical to the historical
///             kernels (the determinism anchor every other path is tested
///             against);
///  - width-2  one complex double per 128-bit vector — SSE2 on x86-64,
///             NEON on aarch64 (both baseline ISAs, always available when
///             the translation unit compiles);
///  - width-4  two complex doubles per 256-bit vector — AVX2+FMA on
///             x86-64, compiled in its own translation unit with
///             -mavx2 -mfma and only ever called after a runtime CPUID
///             check;
///  - width-8  four complex doubles per 512-bit vector — AVX-512 F+DQ on
///             x86-64, compiled in its own translation unit (gated by the
///             CHARTER_SIMD_AVX512 CMake option) with -mavx512f -mavx512dq
///             and only ever called after a runtime CPUID check.
///
/// The vector types below (CVec2d / CVec4d / CVec8d) are defined only when
/// the including translation unit enables the matching ISA, so ordinary code
/// never sees intrinsics; everything else reaches the kernels through the
/// KernelTable function-pointer set, which keeps the call ABI identical
/// across paths and lets sim/kernels.hpp stay a thin forwarding header.
///
/// Diagonal density-matrix ops do not get pair kernels: every diagonal
/// update (RZ, static-ZZ flushes, CX ZZ, drive crosstalk) is a list of
/// DiagFactor values, and diag_run applies any run of them in one pass over
/// the state.  The vector paths resolve each factor into per-lane cmul
/// operands once per call and interleave four independent registers per
/// step (math/simd_diag_run.hpp); AVX-512 has its own diag_run rather than
/// forwarding to AVX2.
///
/// Determinism contract (tested by tests/test_simd.cpp):
///  - each path computes every output element with a fixed operation order,
///    so results are bit-identical run-to-run and across thread counts;
///  - the scalar path is bit-identical to the pre-SIMD kernels;
///  - paths agree with each other to <= 1e-12 in max-abs amplitude
///    difference (FMA and reassociation change rounding, never physics);
///  - on each path, diag_run over factors f0..fk is bit-identical to
///    applying f0, ..., fk in separate passes.

#include <array>
#include <cstddef>
#include <cstdint>

#include "math/matrix.hpp"

namespace charter::math::simd {

/// Widens \p x by inserting a zero bit at the position given by \p mask
/// (a power of two).  Shared by every kernel's pair/group enumeration.
inline std::uint64_t insert_zero_bit(std::uint64_t x, std::uint64_t mask) {
  return ((x & ~(mask - 1)) << 1) | (x & (mask - 1));
}

/// One factor of a diagonal run: element i is multiplied by
/// d[bit(i & m0) + 2*bit(i & m1)].  m0 is a single-bit mask; a one-qubit
/// diagonal sets m1 = 0 and uses d[0..1] only.
struct DiagFactor {
  std::uint64_t m0 = 0;
  std::uint64_t m1 = 0;
  std::array<cplx, 4> d{};
};

/// Most factors one diag_run pass applies; the kernels precompute per-lane
/// factor vectors for a chunk on the stack, so a call never allocates.
inline constexpr std::size_t kDiagRunChunk = 16;

/// One kernel set.  Signatures mirror sim/kernels.hpp exactly; `dim` is the
/// amplitude count (a power of two), qubit q maps to bit q of the index.
struct KernelTable {
  const char* name;  ///< "scalar", "sse2"/"neon", "avx2", or "avx512"

  // ---- statevector / generic gate kernels -------------------------------
  void (*apply_1q)(cplx* a, std::uint64_t dim, int q, const Mat2& u);
  void (*apply_diag_1q)(cplx* a, std::uint64_t dim, int q, cplx d0, cplx d1);
  void (*apply_x)(cplx* a, std::uint64_t dim, int q);
  void (*apply_cx)(cplx* a, std::uint64_t dim, int c, int t);
  void (*apply_diag_2q)(cplx* a, std::uint64_t dim, int qa, int qb,
                        const std::array<cplx, 4>& d);
  /// Dense 4x4 unitary on (qa, qb); index convention bit(qa) + 2*bit(qb).
  void (*apply_2q)(cplx* a, std::uint64_t dim, int qa, int qb, const Mat4& u);

  // ---- fused density-matrix pair kernels --------------------------------
  void (*apply_1q_pair)(cplx* a, std::uint64_t dim, int qa, const Mat2& ua,
                        int qb, const Mat2& ub);
  void (*apply_cx_pair)(cplx* a, std::uint64_t dim, int c1, int t1, int c2,
                        int t2);

  // ---- density-matrix channel blocks ------------------------------------
  // All operate on the 4-element groups {base, base|row, base|col,
  // base|row|col} of vec(rho); row/col are single-bit masks with row < col
  // (the vec(rho) layout guarantees col = row << n).

  /// a[i00] += gamma*a[i11]; a[i11] *= 1-gamma; off-diagonals *= keep.
  void (*thermal_block)(cplx* a, std::uint64_t dim, std::uint64_t row,
                        std::uint64_t col, double gamma, double keep);
  /// Diagonals mixed toward each other with weight mix; coherences *= coh.
  void (*depol1q_block)(cplx* a, std::uint64_t dim, std::uint64_t row,
                        std::uint64_t col, double mix, double coh);
  /// Diagonal pair and coherence pair each mixed with weight p.
  void (*bitflip_block)(cplx* a, std::uint64_t dim, std::uint64_t row,
                        std::uint64_t col, double p);

  /// acc[i] += src[i] for i in [0, n) — the Kraus-sum accumulation loop.
  void (*accum_add)(cplx* acc, const cplx* src, std::uint64_t n);

  // ---- diagonal runs ----------------------------------------------------

  /// Multiplies every element by its value of f[0], then f[1], ...,
  /// f[count-1], in one pass over \p a.  Each element gets exactly the
  /// complex-multiply sequence of \p count single-factor passes on the same
  /// path, so a run is bit-identical to applying its factors one at a time.
  /// Runs longer than kDiagRunChunk take one pass per chunk.
  void (*diag_run)(cplx* a, std::uint64_t dim, const DiagFactor* f,
                   std::size_t count);
};

/// Table getters, one per translation unit.  A getter returns nullptr when
/// its ISA was not compiled in (e.g. the AVX2 unit built without
/// -mavx2 -mfma, or the width-2 unit on an ISA with neither SSE2 nor NEON).
const KernelTable* table_scalar();
const KernelTable* table_width2();
const KernelTable* table_avx2();
const KernelTable* table_avx512();

// ===========================================================================
// Width-2 complex vector: one complex double in a 128-bit register.
// Defined for TUs compiled with SSE2 (x86-64 baseline) or NEON (aarch64
// baseline).  Complex multiply uses the same mul/mul/sub/add sequence as
// std::complex, so this path typically matches scalar bit-for-bit.
// ===========================================================================

#if defined(__SSE2__)
#define CHARTER_SIMD_HAS_WIDTH2 1
#include <emmintrin.h>

struct CVec2d {
  __m128d v;

  static CVec2d load(const cplx* p) {
    return {_mm_loadu_pd(reinterpret_cast<const double*>(p))};
  }
  void store(cplx* p) const {
    _mm_storeu_pd(reinterpret_cast<double*>(p), v);
  }
  static CVec2d from(cplx c) { return load(&c); }
  static CVec2d zero() { return {_mm_setzero_pd()}; }

  friend CVec2d operator+(CVec2d a, CVec2d b) {
    return {_mm_add_pd(a.v, b.v)};
  }
  /// Scale both components by a real factor.
  CVec2d rscale(double s) const { return {_mm_mul_pd(v, _mm_set1_pd(s))}; }
};

/// Right operand y = c + di of cmul, split into [c, c] and [d, d] so a
/// factor reused across a loop is shuffled once.
struct CMul2d {
  __m128d re, im;
};
inline CMul2d cmul_operand(CVec2d y) {
  return {_mm_unpacklo_pd(y.v, y.v), _mm_unpackhi_pd(y.v, y.v)};
}

/// Complex product x*y: [ac - bd, bc + ad] via mul/mul/negate-low/add —
/// the exact operation sequence of std::complex multiplication.
inline CVec2d cmul(CVec2d x, const CMul2d& y) {
  const __m128d xs = _mm_shuffle_pd(x.v, x.v, 1);     // [b, a]
  __m128d t = _mm_mul_pd(xs, y.im);                   // [b*d, a*d]
  t = _mm_xor_pd(t, _mm_set_pd(0.0, -0.0));           // [-b*d, a*d]
  return {_mm_add_pd(_mm_mul_pd(x.v, y.re), t)};
}
inline CVec2d cmul(CVec2d x, CVec2d y) { return cmul(x, cmul_operand(y)); }

#elif defined(__ARM_NEON) && defined(__aarch64__)
#define CHARTER_SIMD_HAS_WIDTH2 1
#include <arm_neon.h>

struct CVec2d {
  float64x2_t v;

  static CVec2d load(const cplx* p) {
    return {vld1q_f64(reinterpret_cast<const double*>(p))};
  }
  void store(cplx* p) const {
    vst1q_f64(reinterpret_cast<double*>(p), v);
  }
  static CVec2d from(cplx c) { return load(&c); }
  static CVec2d zero() { return {vdupq_n_f64(0.0)}; }

  friend CVec2d operator+(CVec2d a, CVec2d b) {
    return {vaddq_f64(a.v, b.v)};
  }
  CVec2d rscale(double s) const { return {vmulq_n_f64(v, s)}; }
};

/// Right operand y = c + di of cmul, split into [c, c] and [d, d].
struct CMul2d {
  float64x2_t re, im;
};
inline CMul2d cmul_operand(CVec2d y) {
  return {vdupq_laneq_f64(y.v, 0), vdupq_laneq_f64(y.v, 1)};
}

/// Complex product x*y: [ac - bd, bc + ad].  The lane-0 sign flip rides the
/// fused multiply by the exact constants (-1, 1).
inline CVec2d cmul(CVec2d x, const CMul2d& y) {
  const float64x2_t xs = vextq_f64(x.v, x.v, 1);   // [b, a]
  const float64x2_t sign = {-1.0, 1.0};
  const float64x2_t t = vmulq_f64(xs, y.im);       // [b*d, a*d]
  return {vfmaq_f64(vmulq_f64(x.v, y.re), t, sign)};
}
inline CVec2d cmul(CVec2d x, CVec2d y) { return cmul(x, cmul_operand(y)); }
#endif  // width-2 ISA

// ===========================================================================
// Width-4 complex vector: two complex doubles in a 256-bit register.
// Only defined in the AVX2+FMA translation unit.
// ===========================================================================

#if defined(__AVX2__) && defined(__FMA__)
#define CHARTER_SIMD_HAS_AVX2 1
#include <immintrin.h>

struct CVec4d {
  __m256d v;  ///< [re0, im0, re1, im1]

  static CVec4d load(const cplx* p) {
    return {_mm256_loadu_pd(reinterpret_cast<const double*>(p))};
  }
  void store(cplx* p) const {
    _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
  }
  /// Both lanes set to the same complex value.
  static CVec4d bcast(cplx c) {
    return {_mm256_broadcast_pd(reinterpret_cast<const __m128d*>(&c))};
  }
  /// Lane 0 = lo, lane 1 = hi.
  static CVec4d set(cplx lo, cplx hi) {
    return {_mm256_set_pd(hi.imag(), hi.real(), lo.imag(), lo.real())};
  }

  friend CVec4d operator+(CVec4d a, CVec4d b) {
    return {_mm256_add_pd(a.v, b.v)};
  }
  CVec4d rscale(double s) const {
    return {_mm256_mul_pd(v, _mm256_set1_pd(s))};
  }
  /// this*s + b*t with real factors, fused per element.
  CVec4d rmix(double s, CVec4d b, double t) const {
    return {_mm256_fmadd_pd(b.v, _mm256_set1_pd(t),
                            _mm256_mul_pd(v, _mm256_set1_pd(s)))};
  }

  /// Lane-0 complex duplicated into both lanes.
  CVec4d dup_lo() const { return {_mm256_permute2f128_pd(v, v, 0x00)}; }
  /// Lane-1 complex duplicated into both lanes.
  CVec4d dup_hi() const { return {_mm256_permute2f128_pd(v, v, 0x11)}; }
  /// Lanes exchanged.
  CVec4d swap_lanes() const { return {_mm256_permute2f128_pd(v, v, 0x01)}; }
};

/// [a.lane0, b.lane1].
inline CVec4d concat_lo_hi(CVec4d a, CVec4d b) {
  return {_mm256_permute2f128_pd(a.v, b.v, 0x30)};
}
/// [a.lane1, b.lane0].
inline CVec4d concat_hi_lo(CVec4d a, CVec4d b) {
  return {_mm256_permute2f128_pd(a.v, b.v, 0x21)};
}
/// [a.lane0, b.lane0].
inline CVec4d concat_lo_lo(CVec4d a, CVec4d b) {
  return {_mm256_permute2f128_pd(a.v, b.v, 0x20)};
}
/// [a.lane1, b.lane1].
inline CVec4d concat_hi_hi(CVec4d a, CVec4d b) {
  return {_mm256_permute2f128_pd(a.v, b.v, 0x31)};
}

/// Right operand of cmul split into real and imaginary duplicates
/// ([c, c, c', c'] and [d, d, d', d']), so a reused factor is shuffled once.
struct CMul4d {
  __m256d re, im;
};
inline CMul4d cmul_operand(CVec4d y) {
  return {_mm256_movedup_pd(y.v), _mm256_permute_pd(y.v, 0xF)};
}

/// Complex product on both lanes via the fmaddsub recipe:
/// even slots a*c - b*d, odd slots b*c + a*d.
inline CVec4d cmul(CVec4d x, const CMul4d& y) {
  const __m256d xs = _mm256_permute_pd(x.v, 0x5);  // [b, a, b', a']
  return {_mm256_fmaddsub_pd(x.v, y.re, _mm256_mul_pd(xs, y.im))};
}
inline CVec4d cmul(CVec4d x, CVec4d y) { return cmul(x, cmul_operand(y)); }

/// acc + x*y on both lanes.
inline CVec4d cfma(CVec4d acc, CVec4d x, CVec4d y) { return acc + cmul(x, y); }
#endif  // AVX2 + FMA

// ===========================================================================
// Width-8 complex vector: four complex doubles in a 512-bit register.
// Only defined in the AVX-512 translation unit (-mavx512f -mavx512dq; DQ
// supplies _mm512_broadcast_f64x2).
// ===========================================================================

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#define CHARTER_SIMD_HAS_AVX512 1
#include <immintrin.h>

struct CVec8d {
  __m512d v;  ///< [re0, im0, re1, im1, re2, im2, re3, im3]

  static CVec8d load(const cplx* p) {
    return {_mm512_loadu_pd(reinterpret_cast<const double*>(p))};
  }
  void store(cplx* p) const {
    _mm512_storeu_pd(reinterpret_cast<double*>(p), v);
  }
  /// All four lanes set to the same complex value.
  static CVec8d bcast(cplx c) {
    return {_mm512_broadcast_f64x2(
        _mm_loadu_pd(reinterpret_cast<const double*>(&c)))};
  }
  /// Lane k = ck (lane 0 lowest in memory).
  static CVec8d set4(cplx c0, cplx c1, cplx c2, cplx c3) {
    return {_mm512_set_pd(c3.imag(), c3.real(), c2.imag(), c2.real(),
                          c1.imag(), c1.real(), c0.imag(), c0.real())};
  }

  friend CVec8d operator+(CVec8d a, CVec8d b) {
    return {_mm512_add_pd(a.v, b.v)};
  }
  CVec8d rscale(double s) const {
    return {_mm512_mul_pd(v, _mm512_set1_pd(s))};
  }
  /// this*s + b*t with real factors, fused per element.
  CVec8d rmix(double s, CVec8d b, double t) const {
    return {_mm512_fmadd_pd(b.v, _mm512_set1_pd(t),
                            _mm512_mul_pd(v, _mm512_set1_pd(s)))};
  }

  /// Arbitrary permutation of the four 128-bit complex lanes; \p imm selects
  /// source lane (imm >> (2k)) & 3 into destination lane k.
  template <int imm>
  CVec8d lanes() const {
    return {_mm512_shuffle_f64x2(v, v, imm)};
  }
};

/// Right operand of cmul split into real and imaginary duplicates, so a
/// reused factor is shuffled once.
struct CMul8d {
  __m512d re, im;
};
inline CMul8d cmul_operand(CVec8d y) {
  return {_mm512_movedup_pd(y.v), _mm512_permute_pd(y.v, 0xFF)};
}

/// Complex product on all four lanes via the fmaddsub recipe:
/// even slots a*c - b*d, odd slots b*c + a*d.
inline CVec8d cmul(CVec8d x, const CMul8d& y) {
  const __m512d xs = _mm512_permute_pd(x.v, 0x55);  // [b, a, ...]
  return {_mm512_fmaddsub_pd(x.v, y.re, _mm512_mul_pd(xs, y.im))};
}
inline CVec8d cmul(CVec8d x, CVec8d y) { return cmul(x, cmul_operand(y)); }

/// acc + x*y on all four lanes.
inline CVec8d cfma(CVec8d acc, CVec8d x, CVec8d y) { return acc + cmul(x, y); }
#endif  // AVX-512 F + DQ

}  // namespace charter::math::simd
