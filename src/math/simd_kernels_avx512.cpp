// Width-8 kernel path: four complex doubles per 512-bit AVX-512 register.
// This translation unit is compiled with -mavx512f -mavx512dq when the
// CHARTER_SIMD_AVX512 CMake option is on (see CMakeLists.txt) and only ever
// entered after the dispatcher's runtime CPUID check, so the rest of the
// binary stays baseline-ISA clean.
//
// Iteration strategy mirrors the AVX2 unit, one register width up: strides
// >= 4 process four pairs (one 512-bit load per stream) per iteration, while
// stride 1 and 2 keep whole pair groups inside a register and resolve them
// with _mm512_shuffle_f64x2 128-bit-lane permutes.  The statevector-side
// kernels — the ones hot in 20+ qubit fused-tape trajectory sweeps — and
// diag_run, which carries every diagonal density-matrix op (ZZ flushes, CX
// ZZ, crosstalk, RZ), are vectorized here.  The remaining density-matrix
// pair/channel kernels forward to the AVX2 implementations, falling back
// to scalar in an AVX2-less build.  Both units compute a complex product
// with the same per-element fmaddsub sequence, so a forwarded kernel and a
// native one round identically.
//
// Each output element is computed by a fixed operation sequence, so results
// are deterministic per path and across thread counts; FMA contraction is
// what separates this path from scalar (<= 1e-12, tests/test_simd.cpp).

#include <array>
#include <utility>

#include "math/simd.hpp"
#include "math/simd_diag_run.hpp"
#include "util/parallel.hpp"

#if defined(CHARTER_SIMD_HAS_AVX512)

namespace charter::math::simd {

namespace {

/// Table supplying the kernels this unit does not re-vectorize (and the
/// small-dim escape hatch): AVX2 when compiled in, scalar otherwise.
const KernelTable* narrow() {
  const KernelTable* t = table_avx2();
  return t != nullptr ? t : table_scalar();
}

// Lane-permute immediates for _mm512_shuffle_f64x2: destination 128-bit
// lane k takes source lane (imm >> 2k) & 3.
inline constexpr int kDupEvenS1 = 0xA0;  // [0,0,2,2] — pair-lo, stride 1
inline constexpr int kDupOddS1 = 0xF5;   // [1,1,3,3] — pair-hi, stride 1
inline constexpr int kSwapS1 = 0xB1;     // [1,0,3,2] — exchange, stride 1
inline constexpr int kDupLoS2 = 0x44;    // [0,1,0,1] — pair-lo, stride 2
inline constexpr int kDupHiS2 = 0xEE;    // [2,3,2,3] — pair-hi, stride 2
inline constexpr int kSwapS2 = 0x4E;     // [2,3,0,1] — exchange, stride 2

void k_apply_1q(cplx* a, std::uint64_t dim, int q, const Mat2& u) {
  if (dim < 8) {
    narrow()->apply_1q(a, dim, q, u);
    return;
  }
  const std::uint64_t stride = 1ULL << q;
  if (stride == 1) {
    // Register holds two full pairs: [a0, a1 | a2, a3].
    const CVec8d cA = CVec8d::set4(u(0, 0), u(1, 0), u(0, 0), u(1, 0));
    const CVec8d cB = CVec8d::set4(u(0, 1), u(1, 1), u(0, 1), u(1, 1));
    util::parallel_for(static_cast<std::int64_t>(dim >> 2),
                       [=](std::int64_t k) {
                         cplx* ptr = a + (static_cast<std::uint64_t>(k) << 2);
                         const CVec8d x = CVec8d::load(ptr);
                         (cmul(x.lanes<kDupEvenS1>(), cA) +
                          cmul(x.lanes<kDupOddS1>(), cB))
                             .store(ptr);
                       });
    return;
  }
  if (stride == 2) {
    // Register holds two interleaved pairs: [x(i), x(i+1) | x(i+2), x(i+3)]
    // with pairs (i, i+2) and (i+1, i+3).
    const CVec8d cA = CVec8d::set4(u(0, 0), u(0, 0), u(1, 0), u(1, 0));
    const CVec8d cB = CVec8d::set4(u(0, 1), u(0, 1), u(1, 1), u(1, 1));
    util::parallel_for(static_cast<std::int64_t>(dim >> 2),
                       [=](std::int64_t k) {
                         cplx* ptr = a + (static_cast<std::uint64_t>(k) << 2);
                         const CVec8d x = CVec8d::load(ptr);
                         (cmul(x.lanes<kDupLoS2>(), cA) +
                          cmul(x.lanes<kDupHiS2>(), cB))
                             .store(ptr);
                       });
    return;
  }
  // stride >= 4: four consecutive pairs per iteration, contiguous streams.
  const CVec8d u00 = CVec8d::bcast(u(0, 0)), u01 = CVec8d::bcast(u(0, 1));
  const CVec8d u10 = CVec8d::bcast(u(1, 0)), u11 = CVec8d::bcast(u(1, 1));
  util::parallel_for(static_cast<std::int64_t>(dim >> 3), [=](std::int64_t p) {
    const std::uint64_t up = static_cast<std::uint64_t>(p) << 2;
    const std::uint64_t i0 = insert_zero_bit(up, stride);
    const CVec8d x0 = CVec8d::load(a + i0);
    const CVec8d x1 = CVec8d::load(a + (i0 | stride));
    cfma(cmul(x0, u00), x1, u01).store(a + i0);
    cfma(cmul(x0, u10), x1, u11).store(a + (i0 | stride));
  });
}

void k_apply_diag_1q(cplx* a, std::uint64_t dim, int q, cplx d0, cplx d1) {
  if (dim < 8) {
    narrow()->apply_diag_1q(a, dim, q, d0, d1);
    return;
  }
  const std::uint64_t mask = 1ULL << q;
  if (mask == 1) {
    const CVec8d d = CVec8d::set4(d0, d1, d0, d1);
    util::parallel_for(static_cast<std::int64_t>(dim >> 2),
                       [=](std::int64_t k) {
                         cplx* ptr = a + (static_cast<std::uint64_t>(k) << 2);
                         cmul(CVec8d::load(ptr), d).store(ptr);
                       });
    return;
  }
  if (mask == 2) {
    const CVec8d d = CVec8d::set4(d0, d0, d1, d1);
    util::parallel_for(static_cast<std::int64_t>(dim >> 2),
                       [=](std::int64_t k) {
                         cplx* ptr = a + (static_cast<std::uint64_t>(k) << 2);
                         cmul(CVec8d::load(ptr), d).store(ptr);
                       });
    return;
  }
  // mask >= 4: each register of four consecutive amplitudes shares the bit.
  const CVec8d v0 = CVec8d::bcast(d0), v1 = CVec8d::bcast(d1);
  util::parallel_for(static_cast<std::int64_t>(dim >> 2), [=](std::int64_t k) {
    const std::uint64_t i = static_cast<std::uint64_t>(k) << 2;
    cmul(CVec8d::load(a + i), (i & mask) ? v1 : v0).store(a + i);
  });
}

void k_apply_x(cplx* a, std::uint64_t dim, int q) {
  if (dim < 8) {
    narrow()->apply_x(a, dim, q);
    return;
  }
  const std::uint64_t stride = 1ULL << q;
  if (stride == 1) {
    util::parallel_for(static_cast<std::int64_t>(dim >> 2),
                       [=](std::int64_t k) {
                         cplx* ptr = a + (static_cast<std::uint64_t>(k) << 2);
                         CVec8d::load(ptr).lanes<kSwapS1>().store(ptr);
                       });
    return;
  }
  if (stride == 2) {
    util::parallel_for(static_cast<std::int64_t>(dim >> 2),
                       [=](std::int64_t k) {
                         cplx* ptr = a + (static_cast<std::uint64_t>(k) << 2);
                         CVec8d::load(ptr).lanes<kSwapS2>().store(ptr);
                       });
    return;
  }
  util::parallel_for(static_cast<std::int64_t>(dim >> 3), [=](std::int64_t p) {
    const std::uint64_t up = static_cast<std::uint64_t>(p) << 2;
    const std::uint64_t i0 = insert_zero_bit(up, stride);
    const CVec8d x0 = CVec8d::load(a + i0);
    const CVec8d x1 = CVec8d::load(a + (i0 | stride));
    x1.store(a + i0);
    x0.store(a + (i0 | stride));
  });
}

void k_apply_cx(cplx* a, std::uint64_t dim, int c, int t) {
  const std::uint64_t cmask = 1ULL << c;
  const std::uint64_t tmask = 1ULL << t;
  if (dim < 8 || cmask < 4 || tmask < 4) {
    // A narrow mask breaks the four-consecutive-pairs layout; CX is a pure
    // permutation, so the narrower path is bit-exact.
    narrow()->apply_cx(a, dim, c, t);
    return;
  }
  util::parallel_for(static_cast<std::int64_t>(dim >> 3), [=](std::int64_t p) {
    const std::uint64_t up = static_cast<std::uint64_t>(p) << 2;
    const std::uint64_t i0 = insert_zero_bit(up, tmask);
    if (!(i0 & cmask)) return;
    const CVec8d x0 = CVec8d::load(a + i0);
    const CVec8d x1 = CVec8d::load(a + (i0 | tmask));
    x1.store(a + i0);
    x0.store(a + (i0 | tmask));
  });
}

void k_apply_diag_2q(cplx* a, std::uint64_t dim, int qa, int qb,
                     const std::array<cplx, 4>& d) {
  if (dim < 8) {
    narrow()->apply_diag_2q(a, dim, qa, qb, d);
    return;
  }
  const std::uint64_t amask = 1ULL << qa;
  const std::uint64_t bmask = 1ULL << qb;
  if (amask >= 4 && bmask >= 4) {
    const std::array<CVec8d, 4> db = {CVec8d::bcast(d[0]), CVec8d::bcast(d[1]),
                                      CVec8d::bcast(d[2]),
                                      CVec8d::bcast(d[3])};
    util::parallel_for(
        static_cast<std::int64_t>(dim >> 2), [=](std::int64_t k) {
          const std::uint64_t i = static_cast<std::uint64_t>(k) << 2;
          const unsigned idx =
              ((i & amask) ? 1u : 0u) | ((i & bmask) ? 2u : 0u);
          cmul(CVec8d::load(a + i), db[idx]).store(a + i);
        });
    return;
  }
  // Narrow mask: gather the per-element factors with set4 (element-generic).
  util::parallel_for(static_cast<std::int64_t>(dim >> 2), [=](std::int64_t k) {
    const std::uint64_t i = static_cast<std::uint64_t>(k) << 2;
    const auto sel = [=](std::uint64_t j) {
      return ((j & amask) ? 1u : 0u) | ((j & bmask) ? 2u : 0u);
    };
    const CVec8d m =
        CVec8d::set4(d[sel(i)], d[sel(i + 1)], d[sel(i + 2)], d[sel(i + 3)]);
    cmul(CVec8d::load(a + i), m).store(a + i);
  });
}

void k_apply_2q(cplx* a, std::uint64_t dim, int qa, int qb, const Mat4& u) {
  const std::uint64_t amask = 1ULL << qa;
  const std::uint64_t bmask = 1ULL << qb;
  const std::uint64_t lo = amask < bmask ? amask : bmask;
  const std::uint64_t hi = amask < bmask ? bmask : amask;
  if (dim < 32 || lo < 4) {
    // The wide path wants four contiguous group bases; the AVX2 unit covers
    // lo == 2 and scalar covers bit 0.
    narrow()->apply_2q(a, dim, qa, qb, u);
    return;
  }
  // lo >= 4: group bases come in runs of four; four groups per iteration,
  // one 512-bit load per input stream — the hot kernel of fused-wide
  // trajectory sweeps.
  std::array<CVec8d, 16> um;
  for (int r = 0; r < 4; ++r)
    for (int k = 0; k < 4; ++k)
      um[static_cast<std::size_t>(r * 4 + k)] = CVec8d::bcast(u(r, k));
  util::parallel_for(static_cast<std::int64_t>(dim >> 4), [=](std::int64_t i) {
    std::uint64_t base = insert_zero_bit(static_cast<std::uint64_t>(i) << 2,
                                         lo);
    base = insert_zero_bit(base, hi);
    const std::uint64_t idx[4] = {base, base | amask, base | bmask,
                                  base | amask | bmask};
    CVec8d in[4];
    for (int k = 0; k < 4; ++k) in[k] = CVec8d::load(a + idx[k]);
    for (int r = 0; r < 4; ++r) {
      CVec8d acc = cmul(in[0], um[static_cast<std::size_t>(r * 4)]);
      for (int k = 1; k < 4; ++k)
        acc = cfma(acc, in[k], um[static_cast<std::size_t>(r * 4 + k)]);
      acc.store(a + idx[r]);
    }
  });
}

void k_accum_add(cplx* acc, const cplx* src, std::uint64_t n) {
  util::parallel_for(static_cast<std::int64_t>(n >> 2), [=](std::int64_t k) {
    const std::uint64_t i = static_cast<std::uint64_t>(k) << 2;
    (CVec8d::load(acc + i) + CVec8d::load(src + i)).store(acc + i);
  });
  for (std::uint64_t i = n & ~std::uint64_t{3}; i < n; ++i) acc[i] += src[i];
}

const KernelTable* build_table() {
  static KernelTable table = [] {
    const KernelTable* n = narrow();
    KernelTable t = *n;  // other DM pair/channel kernels: the narrow path
    t.name = "avx512";
    t.apply_1q = k_apply_1q;
    t.apply_diag_1q = k_apply_diag_1q;
    t.apply_x = k_apply_x;
    t.apply_cx = k_apply_cx;
    t.apply_diag_2q = k_apply_diag_2q;
    t.apply_2q = k_apply_2q;
    t.accum_add = k_accum_add;
    t.diag_run = diag_run_blocked<CVec8d>;
    return t;
  }();
  return &table;
}

}  // namespace

const KernelTable* table_avx512() { return build_table(); }

}  // namespace charter::math::simd

#else  // !CHARTER_SIMD_HAS_AVX512

namespace charter::math::simd {
const KernelTable* table_avx512() { return nullptr; }
}  // namespace charter::math::simd

#endif
