#pragma once

/// \file simd_diag_run.hpp
/// Shared body of the vector diag_run kernels (width-2, AVX2, AVX-512).
/// Only the kernel translation units include this header; each instantiates
/// the template with its own vector type, under its own ISA flags.

#include <cstddef>
#include <cstdint>

#include "math/simd.hpp"
#include "util/parallel.hpp"

namespace charter::math::simd {

/// diag_run for a vector type V of W = sizeof(V) / sizeof(cplx) lanes.
///
/// The state is walked in blocks of kRegs * W consecutive elements.  The
/// kRegs registers of a block carry independent cmul chains, so one
/// register's multiply latency hides behind the others'.  Factor values are
/// resolved into per-lane cmul operands once per chunk: for factor k and a
/// block starting at b, the selector h = bit(b & m0) + 2*bit(b & m1) picks
/// tab[k][h], whose entry r holds the factor value of each lane of register
/// r.  A mask below the block size is always clear in b, so it is resolved
/// from the lane's own offset instead; a mask at or above it comes from h.
/// Every element therefore sees the cmul chain of \p count single-factor
/// passes, value for value.
template <typename V>
void diag_run_blocked(cplx* a, std::uint64_t dim, const DiagFactor* f,
                      std::size_t count) {
  using Op = decltype(cmul_operand(V{}));
  constexpr int W = static_cast<int>(sizeof(V) / sizeof(cplx));
  constexpr int kRegs = 4;
  constexpr std::uint64_t kBlock = std::uint64_t{W} * kRegs;
  // A block counts as kBlock / 2 iterations of a per-op kernel's loop over
  // amplitude pairs.
  constexpr std::int64_t kBlockPairs = static_cast<std::int64_t>(kBlock) / 2;
  if (dim < kBlock) {
    // A state smaller than one block (a one-qubit density matrix on the
    // wide paths) runs the same block arithmetic on a padded copy.
    cplx pad[kBlock] = {};
    for (std::uint64_t i = 0; i < dim; ++i) pad[i] = a[i];
    diag_run_blocked<V>(pad, kBlock, f, count);
    for (std::uint64_t i = 0; i < dim; ++i) a[i] = pad[i];
    return;
  }
  // Plain arrays and loops only: library templates instantiated under this
  // unit's ISA flags could be merged with baseline-ISA copies at link time.
  for (std::size_t c0 = 0; c0 < count; c0 += kDiagRunChunk) {
    const std::size_t n =
        count - c0 < kDiagRunChunk ? count - c0 : kDiagRunChunk;
    std::uint64_t m0[kDiagRunChunk] = {}, m1[kDiagRunChunk] = {};
    Op tab[kDiagRunChunk][4][kRegs];
    for (std::size_t k = 0; k < n; ++k) {
      const DiagFactor& fk = f[c0 + k];
      m0[k] = fk.m0;
      m1[k] = fk.m1;
      for (unsigned h = 0; h < 4; ++h) {
        // Selectors no block base can produce need no operands.
        if (((h & 1u) && fk.m0 < kBlock) || ((h & 2u) && fk.m1 < kBlock))
          continue;
        for (int r = 0; r < kRegs; ++r) {
          cplx lanes[W];
          for (int l = 0; l < W; ++l) {
            const auto e = static_cast<std::uint64_t>(r * W + l);
            const auto bit = [&](std::uint64_t m, unsigned hbit) {
              return m >= kBlock ? (h & hbit) != 0 : (e & m) != 0;
            };
            lanes[l] = fk.d[(bit(fk.m0, 1u) ? 1u : 0u) |
                            (bit(fk.m1, 2u) ? 2u : 0u)];
          }
          tab[k][h][r] = cmul_operand(V::load(lanes));
        }
      }
    }
    const auto* t = tab;
    util::parallel_for(
        static_cast<std::int64_t>(dim / kBlock),
        [=](std::int64_t blk) {
          const std::uint64_t b = static_cast<std::uint64_t>(blk) * kBlock;
          cplx* p = a + b;
          V x[kRegs];
          for (int r = 0; r < kRegs; ++r) x[r] = V::load(p + r * W);
          for (std::size_t k = 0; k < n; ++k) {
            const unsigned h =
                ((b & m0[k]) ? 1u : 0u) | ((b & m1[k]) ? 2u : 0u);
            const Op* ops = t[k][h];
            for (int r = 0; r < kRegs; ++r) x[r] = cmul(x[r], ops[r]);
          }
          for (int r = 0; r < kRegs; ++r) x[r].store(p + r * W);
        },
        kBlockPairs);
  }
}

}  // namespace charter::math::simd
