// SIMD layer contract tests (math/simd.hpp, math/simd_dispatch.hpp):
//
//  1. The scalar path is bit-identical to the pre-SIMD kernels.  Reference
//     copies of the historical loops live in this file (serial, verbatim
//     arithmetic); the scalar table must reproduce them exactly — double ==,
//     not a tolerance — for every kernel, every qubit position, and every
//     width 1..7.
//  2. Every available path agrees with scalar to <= 1e-12 in max-abs
//     amplitude difference over the same randomized sweep.
//  3. Each path is deterministic: repeating a kernel on the same input is
//     bit-identical (the vector paths mix register and fallback loops, so
//     this guards against any input-independent nondeterminism).
//  4. The dispatcher: scalar is always available, set_path round-trips, and
//     the active table matches the reported path.
//  5. On each path, a diag_run is bit-identical to applying its factors one
//     pass at a time.
//
// The sweep runs on the dispatch *table* functions directly, so it tests
// exactly what sim/kernels.hpp forwards to.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <complex>
#include <cstring>
#include <utility>
#include <vector>

#include "math/simd.hpp"
#include "math/simd_dispatch.hpp"
#include "util/rng.hpp"

namespace ms = charter::math::simd;
using charter::math::cplx;
using charter::math::Mat2;
using charter::util::Rng;

namespace {

// ---------------------------------------------------------------------------
// Reference kernels: the pre-SIMD scalar loops, inlined serially.
// ---------------------------------------------------------------------------

std::uint64_t insert0(std::uint64_t x, std::uint64_t m) {
  return ((x & ~(m - 1)) << 1) | (x & (m - 1));
}

void ref_apply_1q(cplx* a, std::uint64_t dim, int q, const Mat2& u) {
  const std::uint64_t stride = 1ULL << q;
  for (std::uint64_t p = 0; p < (dim >> 1); ++p) {
    const std::uint64_t i0 = insert0(p, stride);
    const std::uint64_t i1 = i0 | stride;
    const cplx a0 = a[i0];
    const cplx a1 = a[i1];
    a[i0] = u(0, 0) * a0 + u(0, 1) * a1;
    a[i1] = u(1, 0) * a0 + u(1, 1) * a1;
  }
}

void ref_apply_diag_1q(cplx* a, std::uint64_t dim, int q, cplx d0, cplx d1) {
  const std::uint64_t mask = 1ULL << q;
  for (std::uint64_t i = 0; i < dim; ++i) a[i] *= (i & mask) ? d1 : d0;
}

void ref_apply_x(cplx* a, std::uint64_t dim, int q) {
  const std::uint64_t stride = 1ULL << q;
  for (std::uint64_t p = 0; p < (dim >> 1); ++p) {
    const std::uint64_t i0 = insert0(p, stride);
    std::swap(a[i0], a[i0 | stride]);
  }
}

void ref_apply_cx(cplx* a, std::uint64_t dim, int c, int t) {
  const std::uint64_t cm = 1ULL << c;
  const std::uint64_t tm = 1ULL << t;
  for (std::uint64_t i = 0; i < (dim >> 1); ++i) {
    const std::uint64_t i0 = insert0(i, tm);
    if (i0 & cm) std::swap(a[i0], a[i0 | tm]);
  }
}

void ref_apply_diag_2q(cplx* a, std::uint64_t dim, int qa, int qb,
                       const std::array<cplx, 4>& d) {
  const std::uint64_t am = 1ULL << qa;
  const std::uint64_t bm = 1ULL << qb;
  for (std::uint64_t i = 0; i < dim; ++i) {
    const unsigned idx = ((i & am) ? 1u : 0u) | ((i & bm) ? 2u : 0u);
    a[i] *= d[idx];
  }
}

void ref_apply_2q(cplx* a, std::uint64_t dim, int qa, int qb,
                  const charter::math::Mat4& u) {
  const std::uint64_t amask = 1ULL << qa;
  const std::uint64_t bmask = 1ULL << qb;
  const std::uint64_t lo = amask < bmask ? amask : bmask;
  const std::uint64_t hi = amask < bmask ? bmask : amask;
  for (std::uint64_t i = 0; i < (dim >> 2); ++i) {
    const std::uint64_t base = insert0(insert0(i, lo), hi);
    const std::uint64_t idx[4] = {base, base | amask, base | bmask,
                                  base | amask | bmask};
    cplx in[4];
    for (int k = 0; k < 4; ++k) in[k] = a[idx[k]];
    for (int r = 0; r < 4; ++r) {
      cplx acc = 0.0;
      for (int k = 0; k < 4; ++k)
        acc += u(static_cast<std::size_t>(r), static_cast<std::size_t>(k)) *
               in[k];
      a[idx[r]] = acc;
    }
  }
}

void ref_apply_1q_pair(cplx* a, std::uint64_t dim, int qa, const Mat2& ua,
                       int qb, const Mat2& ub) {
  const std::uint64_t am = 1ULL << qa;
  const std::uint64_t bm = 1ULL << qb;
  const std::uint64_t lo = am < bm ? am : bm;
  const std::uint64_t hi = am < bm ? bm : am;
  for (std::uint64_t i = 0; i < (dim >> 2); ++i) {
    const std::uint64_t base = insert0(insert0(i, lo), hi);
    const std::uint64_t i00 = base, i10 = base | am, i01 = base | bm,
                        i11 = base | am | bm;
    const cplx v00 = a[i00], v10 = a[i10], v01 = a[i01], v11 = a[i11];
    const cplx t00 = ua(0, 0) * v00 + ua(0, 1) * v10;
    const cplx t10 = ua(1, 0) * v00 + ua(1, 1) * v10;
    const cplx t01 = ua(0, 0) * v01 + ua(0, 1) * v11;
    const cplx t11 = ua(1, 0) * v01 + ua(1, 1) * v11;
    a[i00] = ub(0, 0) * t00 + ub(0, 1) * t01;
    a[i01] = ub(1, 0) * t00 + ub(1, 1) * t01;
    a[i10] = ub(0, 0) * t10 + ub(0, 1) * t11;
    a[i11] = ub(1, 0) * t10 + ub(1, 1) * t11;
  }
}

void ref_apply_cx_pair(cplx* a, std::uint64_t dim, int c1, int t1, int c2,
                       int t2) {
  const std::uint64_t c1m = 1ULL << c1, t1m = 1ULL << t1;
  const std::uint64_t c2m = 1ULL << c2, t2m = 1ULL << t2;
  const std::uint64_t lo = t1m < t2m ? t1m : t2m;
  const std::uint64_t hi = t1m < t2m ? t2m : t1m;
  for (std::uint64_t i = 0; i < (dim >> 2); ++i) {
    const std::uint64_t base = insert0(insert0(i, lo), hi);
    if (base & c1m) {
      std::swap(a[base], a[base | t1m]);
      std::swap(a[base | t2m], a[base | t1m | t2m]);
    }
    if (base & c2m) {
      std::swap(a[base], a[base | t2m]);
      std::swap(a[base | t1m], a[base | t1m | t2m]);
    }
  }
}

void ref_thermal_block(cplx* a, std::uint64_t dim, std::uint64_t row,
                       std::uint64_t col, double gamma, double keep) {
  for (std::uint64_t i = 0; i < (dim >> 2); ++i) {
    const std::uint64_t base = insert0(insert0(i, row), col);
    a[base] += gamma * a[base | row | col];
    a[base | row | col] *= (1.0 - gamma);
    a[base | col] *= keep;
    a[base | row] *= keep;
  }
}

void ref_depol1q_block(cplx* a, std::uint64_t dim, std::uint64_t row,
                       std::uint64_t col, double mix, double coh) {
  for (std::uint64_t i = 0; i < (dim >> 2); ++i) {
    const std::uint64_t base = insert0(insert0(i, row), col);
    const cplx d0 = a[base], d1 = a[base | row | col];
    a[base] = (1.0 - mix) * d0 + mix * d1;
    a[base | row | col] = (1.0 - mix) * d1 + mix * d0;
    a[base | col] *= coh;
    a[base | row] *= coh;
  }
}

void ref_bitflip_block(cplx* a, std::uint64_t dim, std::uint64_t row,
                       std::uint64_t col, double p) {
  for (std::uint64_t i = 0; i < (dim >> 2); ++i) {
    const std::uint64_t base = insert0(insert0(i, row), col);
    const cplx b00 = a[base], b01 = a[base | col], b10 = a[base | row],
               b11 = a[base | row | col];
    a[base] = (1.0 - p) * b00 + p * b11;
    a[base | row | col] = (1.0 - p) * b11 + p * b00;
    a[base | col] = (1.0 - p) * b01 + p * b10;
    a[base | row] = (1.0 - p) * b10 + p * b01;
  }
}

// ---------------------------------------------------------------------------
// Sweep machinery
// ---------------------------------------------------------------------------

std::vector<cplx> random_state(std::uint64_t dim, Rng& rng) {
  std::vector<cplx> a(dim);
  for (cplx& v : a) v = cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  return a;
}

Mat2 random_mat2(Rng& rng) {
  Mat2 u;
  for (cplx& v : u.m)
    v = cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  return u;
}

std::array<cplx, 4> random_diag4(Rng& rng) {
  std::array<cplx, 4> d;
  for (cplx& v : d)
    v = cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  return d;
}

charter::math::Mat4 random_mat4(Rng& rng) {
  charter::math::Mat4 u;
  for (cplx& v : u.m)
    v = cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  return u;
}

/// A run of \p count random diagonal factors on an n-qubit state: the first
/// on masks (m0, m1), the rest on random positions, one-qubit (m1 = 0) or
/// two-qubit at random.
std::vector<ms::DiagFactor> random_run(int n, std::size_t count, Rng& rng,
                                       std::uint64_t m0, std::uint64_t m1) {
  std::vector<ms::DiagFactor> f(count);
  for (std::size_t k = 0; k < count; ++k) {
    if (k > 0) {
      const int qa = static_cast<int>(rng.uniform_int(n));
      const int qb = static_cast<int>(rng.uniform_int(n));
      m0 = 1ULL << qa;
      m1 = (qa == qb || rng.uniform() < 0.3) ? 0 : 1ULL << qb;
    }
    f[k].m0 = m0;
    f[k].m1 = m1;
    f[k].d = random_diag4(rng);
  }
  return f;
}

/// Reference diagonal run: one serial pass per factor.
void ref_diag_run(cplx* a, std::uint64_t dim,
                  const std::vector<ms::DiagFactor>& f) {
  for (const ms::DiagFactor& k : f)
    for (std::uint64_t i = 0; i < dim; ++i)
      a[i] *= k.d[((i & k.m0) ? 1u : 0u) | ((i & k.m1) ? 2u : 0u)];
}

double max_abs_diff(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

bool bit_identical(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

/// Runs every kernel of \p table over all qubit positions at width \p n and
/// compares against the serial reference copies above via \p check, which
/// receives (reference_result, table_result, context_label).
template <typename Check>
void sweep_against_reference(const ms::KernelTable& table, int n, Rng& rng,
                             Check&& check) {
  const std::uint64_t dim = 1ULL << n;
  const auto fresh = [&] { return random_state(dim, rng); };
  const auto run = [&](const char* label, auto&& ref_fn, auto&& simd_fn) {
    std::vector<cplx> want = fresh();
    std::vector<cplx> got = want;
    ref_fn(want.data());
    simd_fn(got.data());
    check(want, got, label);
    // Determinism: re-running on the same input is bit-identical.
    std::vector<cplx> again = want;
    simd_fn(again.data());
    std::vector<cplx> again2 = want;
    simd_fn(again2.data());
    EXPECT_TRUE(bit_identical(again, again2)) << label << " nondeterministic";
  };

  for (int q = 0; q < n; ++q) {
    const Mat2 u = random_mat2(rng);
    const cplx d0(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    const cplx d1(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    run("apply_1q", [&](cplx* a) { ref_apply_1q(a, dim, q, u); },
        [&](cplx* a) { table.apply_1q(a, dim, q, u); });
    run("apply_diag_1q",
        [&](cplx* a) { ref_apply_diag_1q(a, dim, q, d0, d1); },
        [&](cplx* a) { table.apply_diag_1q(a, dim, q, d0, d1); });
    run("apply_x", [&](cplx* a) { ref_apply_x(a, dim, q); },
        [&](cplx* a) { table.apply_x(a, dim, q); });
  }

  for (int qa = 0; qa < n; ++qa) {
    for (int qb = 0; qb < n; ++qb) {
      if (qa == qb) continue;
      const Mat2 ua = random_mat2(rng), ub = random_mat2(rng);
      const std::array<cplx, 4> d = random_diag4(rng);
      run("apply_cx", [&](cplx* a) { ref_apply_cx(a, dim, qa, qb); },
          [&](cplx* a) { table.apply_cx(a, dim, qa, qb); });
      // Dense 4x4 (kUnitary2q tape op) — exercised at every (qa, qb)
      // ordering so the bit-0 operand and low-stride fallbacks are hit.
      if (n >= 2) {
        const charter::math::Mat4 u4 = random_mat4(rng);
        run("apply_2q", [&](cplx* a) { ref_apply_2q(a, dim, qa, qb, u4); },
            [&](cplx* a) { table.apply_2q(a, dim, qa, qb, u4); });
      }
      run("apply_diag_2q",
          [&](cplx* a) { ref_apply_diag_2q(a, dim, qa, qb, d); },
          [&](cplx* a) { table.apply_diag_2q(a, dim, qa, qb, d); });
      run("apply_1q_pair",
          [&](cplx* a) { ref_apply_1q_pair(a, dim, qa, ua, qb, ub); },
          [&](cplx* a) { table.apply_1q_pair(a, dim, qa, ua, qb, ub); });
      // Diagonal run: the (qa, qb) factor plus random one- and two-qubit
      // factors, 1..9 in all, against the reference one-factor passes.
      const std::vector<ms::DiagFactor> f = random_run(
          n, 1 + static_cast<std::size_t>(rng.uniform_int(9)), rng,
          1ULL << qa, 1ULL << qb);
      run("diag_run", [&](cplx* a) { ref_diag_run(a, dim, f); },
          [&](cplx* a) { table.diag_run(a, dim, f.data(), f.size()); });
      // Channel blocks: row < col per the vec(rho) layout contract.
      if (qa < qb) {
        const std::uint64_t row = 1ULL << qa;
        const std::uint64_t col = 1ULL << qb;
        const double gamma = rng.uniform(0.0, 0.9);
        const double keep = rng.uniform(0.1, 1.0);
        const double mix = rng.uniform(0.0, 0.5);
        const double coh = rng.uniform(0.2, 1.0);
        const double p = rng.uniform(0.0, 0.5);
        run("thermal_block",
            [&](cplx* a) { ref_thermal_block(a, dim, row, col, gamma, keep); },
            [&](cplx* a) {
              table.thermal_block(a, dim, row, col, gamma, keep);
            });
        run("depol1q_block",
            [&](cplx* a) { ref_depol1q_block(a, dim, row, col, mix, coh); },
            [&](cplx* a) { table.depol1q_block(a, dim, row, col, mix, coh); });
        run("bitflip_block",
            [&](cplx* a) { ref_bitflip_block(a, dim, row, col, p); },
            [&](cplx* a) { table.bitflip_block(a, dim, row, col, p); });
      }
    }
  }

  // CX pairs require two disjoint {control, target} sets.
  if (n >= 4) {
    for (int c1 = 0; c1 < n; ++c1)
      for (int t1 = 0; t1 < n; ++t1)
        for (int c2 = 0; c2 < n; ++c2)
          for (int t2 = 0; t2 < n; ++t2) {
            const bool distinct = c1 != t1 && c2 != t2 && c1 != c2 &&
                                  c1 != t2 && t1 != c2 && t1 != t2;
            if (!distinct) continue;
            run("apply_cx_pair",
                [&](cplx* a) { ref_apply_cx_pair(a, dim, c1, t1, c2, t2); },
                [&](cplx* a) { table.apply_cx_pair(a, dim, c1, t1, c2, t2); });
          }
  }

  // Kraus accumulation.
  {
    std::vector<cplx> acc = fresh(), src = fresh();
    std::vector<cplx> want = acc;
    for (std::uint64_t i = 0; i < dim; ++i) want[i] += src[i];
    table.accum_add(acc.data(), src.data(), dim);
    check(want, acc, "accum_add");
  }
}

}  // namespace

TEST(SimdDispatch, ScalarAlwaysAvailable) {
  EXPECT_TRUE(ms::path_available(ms::SimdPath::kScalar));
  EXPECT_NE(ms::table_scalar(), nullptr);
  EXPECT_STREQ(ms::table_scalar()->name, "scalar");
}

TEST(SimdDispatch, SetPathRoundTrips) {
  const ms::SimdPath original = ms::active_path();
  for (const ms::SimdPath p : {ms::SimdPath::kScalar, ms::SimdPath::kWidth2,
                               ms::SimdPath::kAvx2, ms::SimdPath::kAvx512}) {
    if (!ms::path_available(p)) {
      EXPECT_FALSE(ms::set_path(p));
      continue;
    }
    EXPECT_TRUE(ms::set_path(p));
    EXPECT_EQ(ms::active_path(), p);
    EXPECT_STREQ(ms::active().name, ms::path_name(p));
  }
  EXPECT_TRUE(ms::set_path(original));
}

TEST(SimdDispatch, BestPathIsAvailableAndListed) {
  EXPECT_TRUE(ms::path_available(ms::best_path()));
  const std::string avail = ms::available_paths();
  EXPECT_NE(avail.find("scalar"), std::string::npos);
  EXPECT_NE(avail.find(ms::path_name(ms::best_path())), std::string::npos);
}

// The scalar table must reproduce the pre-SIMD kernels bit for bit: the
// golden fixtures and every historical result were produced by exactly this
// arithmetic.
TEST(SimdKernels, ScalarPathBitIdenticalToPreChangeKernels) {
  Rng rng(0xc0ffee);
  for (int n = 1; n <= 7; ++n) {
    sweep_against_reference(
        *ms::table_scalar(), n, rng,
        [&](const std::vector<cplx>& want, const std::vector<cplx>& got,
            const char* label) {
          ASSERT_TRUE(bit_identical(want, got))
              << label << " diverged from the pre-change kernels at n=" << n;
        });
  }
}

// Every vector path agrees with the reference (== scalar) to <= 1e-12 over
// the full op x position x width sweep.
TEST(SimdKernels, AllPathsAgreeWithinTolerance) {
  for (const ms::SimdPath p : {ms::SimdPath::kWidth2, ms::SimdPath::kAvx2,
                               ms::SimdPath::kAvx512}) {
    if (!ms::path_available(p)) {
      GTEST_LOG_(INFO) << "path " << ms::path_name(p)
                       << " unavailable; skipped";
      continue;
    }
    const ms::KernelTable* table = p == ms::SimdPath::kWidth2
                                       ? ms::table_width2()
                                       : p == ms::SimdPath::kAvx2
                                             ? ms::table_avx2()
                                             : ms::table_avx512();
    ASSERT_NE(table, nullptr);
    Rng rng(0x5eed + static_cast<std::uint64_t>(p));
    for (int n = 1; n <= 7; ++n) {
      sweep_against_reference(
          *table, n, rng,
          [&](const std::vector<cplx>& want, const std::vector<cplx>& got,
              const char* label) {
            ASSERT_LE(max_abs_diff(want, got), 1e-12)
                << label << " path=" << table->name << " n=" << n;
          });
    }
  }
}

// On every path a diagonal run is bit-identical to applying its factors one
// pass at a time, both as one-factor runs and through the plain
// apply_diag_1q/apply_diag_2q kernels.  Covers factor counts 1..9 and one
// past a chunk, masks at bits 0, 1 and >= 2, and states down to dim 4 (a
// one-qubit density matrix), below one vector block on the wide paths.
TEST(SimdKernels, DiagRunBitIdenticalToOneFactorAtATime) {
  for (const ms::SimdPath p : {ms::SimdPath::kScalar, ms::SimdPath::kWidth2,
                               ms::SimdPath::kAvx2, ms::SimdPath::kAvx512}) {
    if (!ms::path_available(p)) continue;
    const ms::KernelTable& table =
        p == ms::SimdPath::kScalar   ? *ms::table_scalar()
        : p == ms::SimdPath::kWidth2 ? *ms::table_width2()
        : p == ms::SimdPath::kAvx2   ? *ms::table_avx2()
                                     : *ms::table_avx512();
    Rng rng(0xd1a9 + static_cast<std::uint64_t>(p));
    std::vector<std::size_t> counts = {1, 2, 3, 4, 5, 6, 7, 8, 9};
    counts.push_back(ms::kDiagRunChunk + 3);
    for (int n = 2; n <= 8; ++n) {
      const std::uint64_t dim = 1ULL << n;
      for (const std::size_t count : counts) {
        const int qa = static_cast<int>(count % static_cast<std::size_t>(n));
        const int qb = (qa + 1) % n;
        const std::vector<ms::DiagFactor> f = random_run(
            n, count, rng, 1ULL << qa, count % 3 == 0 ? 0 : 1ULL << qb);
        const std::vector<cplx> start = random_state(dim, rng);
        std::vector<cplx> run = start, one = start, ops = start;
        table.diag_run(run.data(), dim, f.data(), f.size());
        for (const ms::DiagFactor& k : f) {
          table.diag_run(one.data(), dim, &k, 1);
          const int q0 = std::countr_zero(k.m0);
          if (k.m1 == 0)
            table.apply_diag_1q(ops.data(), dim, q0, k.d[0], k.d[1]);
          else
            table.apply_diag_2q(ops.data(), dim, q0, std::countr_zero(k.m1),
                                k.d);
        }
        EXPECT_TRUE(bit_identical(run, one))
            << table.name << " n=" << n << " count=" << count;
        EXPECT_TRUE(bit_identical(run, ops))
            << table.name << " n=" << n << " count=" << count;
      }
    }
  }
}
