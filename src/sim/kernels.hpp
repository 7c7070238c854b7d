#pragma once

/// \file kernels.hpp
/// Low-level gate kernels over raw amplitude arrays.
///
/// These are the hot loops of every engine.  They operate on a contiguous
/// array of 2^n complex amplitudes; qubit q corresponds to bit q of the state
/// index (qubit 0 = least significant).  The density-matrix engine reuses the
/// same kernels by treating vec(rho) as a 2n-qubit state.
///
/// Since the SIMD layer landed, this header is a thin forwarding shim: each
/// hot kernel dispatches through math::simd::active() to the scalar, width-2
/// (SSE2/NEON), AVX2+FMA or AVX-512 implementation selected at runtime
/// (math/simd_dispatch.hpp).  The scalar path is bit-identical to the
/// historical loops that used to live here; the vector paths agree with it
/// to <= 1e-12 and are individually deterministic — fixed per-element
/// operation order, bit-identical across thread counts.  Rarely-hot kernels
/// (general 4x4 unitaries, Toffoli, SWAP, reductions) remain scalar inline.
///
/// Pair kernels.  Every coherent density-matrix update is a *pair* of
/// single-qubit-style updates — U on pseudo-qubit q and conj(U) on q+n —
/// which the plain kernels would realize as two full passes over 16*4^n
/// bytes.  The apply_*_pair kernels fuse the two into one pass: each
/// 4-amplitude group is loaded once, the first update's arithmetic is applied
/// and then the second's, so the results match the sequential two-pass forms
/// (bit-identically on the scalar path) while halving memory traffic.
///
/// Diagonal runs.  Diagonal updates (RZ, static-ZZ flushes, CX ZZ, drive
/// crosstalk) go further: diag_run applies any number of diagonal factors in
/// one pass, each element multiplied by every factor in order.  A diagonal
/// density-matrix op is a 2-factor run (row, then conjugated column), a
/// diagonal trajectory op (and the trajectory engine's no-jump K0 and Z
/// Pauli) a 1-factor run, and the NoiseProgram tape interpreter
/// (noise/program.hpp) folds each maximal run of consecutive diagonal tape
/// ops into one call on both engines.
///
/// Iteration order is cache-blocked by construction: groups are enumerated
/// by inserting zero bits into an ascending counter, so the 2 (or 4) strided
/// streams a kernel reads all advance sequentially through memory and each
/// cache line is touched exactly once per pass.
///
/// All kernels are OpenMP-parallel above a size threshold and in-place.

#include <array>
#include <cstddef>
#include <cstdint>

#include "math/matrix.hpp"
#include "math/simd_dispatch.hpp"
#include "util/parallel.hpp"

namespace charter::sim {

using math::cplx;
using math::Mat2;
using math::Mat4;

namespace kernels {

/// Applies a general 2x2 unitary (or Kraus operator) on qubit \p q.
inline void apply_1q(cplx* a, std::uint64_t dim, int q, const Mat2& u) {
  math::simd::active().apply_1q(a, dim, q, u);
}

/// Applies the diagonal gate diag(d0, d1) on qubit \p q (e.g. RZ).
inline void apply_diag_1q(cplx* a, std::uint64_t dim, int q, cplx d0,
                          cplx d1) {
  math::simd::active().apply_diag_1q(a, dim, q, d0, d1);
}

/// Applies two independent 2x2 operators in one pass: \p ua on qubit \p qa
/// first, then \p ub on qubit \p qb (qa != qb).  Matches apply_1q(qa, ua)
/// followed by apply_1q(qb, ub): within each 4-amplitude group the ua-pairs
/// are transformed first and the ub-pairs second.
inline void apply_1q_pair(cplx* a, std::uint64_t dim, int qa, const Mat2& ua,
                          int qb, const Mat2& ub) {
  math::simd::active().apply_1q_pair(a, dim, qa, ua, qb, ub);
}

/// Multiplies every amplitude by its value of each factor in \p f, in order,
/// in one pass (see math::simd::DiagFactor).  Bit-identical to applying the
/// factors one pass at a time on the same path.
inline void diag_run(cplx* a, std::uint64_t dim,
                     const math::simd::DiagFactor* f, std::size_t count) {
  math::simd::active().diag_run(a, dim, f, count);
}

/// Applies two CX gates with disjoint bit sets in one pass: control \p c1 /
/// target \p t1, then control \p c2 / target \p t2.  Requires
/// {c1, t1} and {c2, t2} disjoint (the density-matrix row/column halves
/// always are).  A pure permutation: bit-identical on every path.
inline void apply_cx_pair(cplx* a, std::uint64_t dim, int c1, int t1, int c2,
                          int t2) {
  math::simd::active().apply_cx_pair(a, dim, c1, t1, c2, t2);
}

/// Applies Pauli-X on qubit \p q (amplitude swap).
inline void apply_x(cplx* a, std::uint64_t dim, int q) {
  math::simd::active().apply_x(a, dim, q);
}

/// Applies CX with control \p c and target \p t.
inline void apply_cx(cplx* a, std::uint64_t dim, int c, int t) {
  math::simd::active().apply_cx(a, dim, c, t);
}

/// Applies the diagonal two-qubit gate diag(d) on (qa, qb); the 2-bit index
/// into \p d is bit(qa) + 2*bit(qb).
inline void apply_diag_2q(cplx* a, std::uint64_t dim, int qa, int qb,
                          const std::array<cplx, 4>& d) {
  math::simd::active().apply_diag_2q(a, dim, qa, qb, d);
}

/// Applies a general 4x4 unitary on (qa, qb); matrix index convention as in
/// gate_unitary_2q: idx = bit(qa) + 2*bit(qb).  Dispatches through the
/// SIMD layer like the 1q kernels.
inline void apply_2q(cplx* a, std::uint64_t dim, int qa, int qb,
                     const Mat4& u) {
  math::simd::active().apply_2q(a, dim, qa, qb, u);
}

/// Applies Toffoli (controls c0, c1; target t).
inline void apply_ccx(cplx* a, std::uint64_t dim, int c0, int c1, int t) {
  const std::uint64_t c0m = 1ULL << c0;
  const std::uint64_t c1m = 1ULL << c1;
  const std::uint64_t tm = 1ULL << t;
  util::parallel_for(static_cast<std::int64_t>(dim >> 1), [=](std::int64_t i) {
    const std::uint64_t ui = static_cast<std::uint64_t>(i);
    const std::uint64_t i0 = ((ui & ~(tm - 1)) << 1) | (ui & (tm - 1));
    if ((i0 & c0m) && (i0 & c1m)) std::swap(a[i0], a[i0 | tm]);
  });
}

/// Applies SWAP(qa, qb).
inline void apply_swap(cplx* a, std::uint64_t dim, int qa, int qb) {
  const std::uint64_t amask = 1ULL << qa;
  const std::uint64_t bmask = 1ULL << qb;
  util::parallel_for(static_cast<std::int64_t>(dim), [=](std::int64_t i) {
    const std::uint64_t ui = static_cast<std::uint64_t>(i);
    // Swap amplitudes where bit a = 1, bit b = 0 with the mirrored index;
    // touch each pair once.
    if ((ui & amask) && !(ui & bmask)) {
      const std::uint64_t j = (ui & ~amask) | bmask;
      std::swap(a[ui], a[j]);
    }
  });
}

/// Squared norm of the state.  A scalar order-fixed reduction on every
/// path, so sums never reassociate across dispatch changes.
inline double norm_sq(const cplx* a, std::uint64_t dim) {
  return util::parallel_sum(static_cast<std::int64_t>(dim),
                            [=](std::int64_t i) { return std::norm(a[i]); });
}

/// Scales all amplitudes by \p s.
inline void scale(cplx* a, std::uint64_t dim, double s) {
  util::parallel_for(static_cast<std::int64_t>(dim),
                     [=](std::int64_t i) { a[i] *= s; });
}

}  // namespace kernels
}  // namespace charter::sim
