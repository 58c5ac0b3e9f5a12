// Register-tiled leaf kernels over Blocked (BCSR) operands.
//
// A bcsr(R,C) matrix stores R*C contiguous row-major value lanes per block,
// so the inner loops below are constant-trip R x C FMA tiles the compiler
// fully unrolls and vectorizes (the whole point of the format: one crd read
// and one pos probe amortize over R*C dense flops, and the lanes stream
// sequentially). Padded lanes hold exact zeros, so tiles never branch on
// occupancy; only block columns that straddle the matrix edge take the
// scalar tail path (operand reads must not run past the dense vectors).
//
// Common block shapes get compile-time micro-kernels (2x2, 4x4, 8x8, 4x8);
// anything else runs the runtime-extent fallback with the same structure.
#include <algorithm>
#include <array>
#include <type_traits>
#include <vector>

#include "kernels/leaf_kernels.h"
#include "kernels/work.h"

namespace spdistal::kern {

using rt::Coord;

namespace {

// a(i) = B(i,j) * c(j), B = bcsr(BR,BC). Row-coordinate pieces: every block
// row overlapping the piece is processed whole (accumulators for all BR
// lanes), then only in-piece rows scatter — wasted lanes beat a branchy
// tile, and out-of-piece rows are simply not written. BR == 0 reads the
// block extents at run time and keeps its accumulators on the heap.
template <bool L, int BR, int BC>
rt::WorkEstimate spmv_bcsr(const Tensor& a, const Tensor& B, const Tensor& c,
                           const PieceBounds& piece) {
  WorkCounter work;
  const Coord R = BR > 0 ? BR : B.format().mode(0).block();
  const Coord Cb = BR > 0 ? BC : B.format().mode(1).block();
  const auto& blk = B.storage().level(1);
  const rt::RegionAccessor<rt::PosRange, 1, L> pos(*blk.pos, rt::Access::Read);
  const rt::RegionAccessor<int32_t, 1, L> crd(*blk.crd, rt::Access::Read);
  const rt::RegionAccessor<double, 1, L> bv(*B.storage().vals(),
                                            rt::Access::Read);
  const rt::RegionAccessor<double, 1, L> cv(*c.storage().vals(),
                                            rt::Access::Read);
  const rt::RegionAccessor<double, 1, L> av(*a.storage().vals());
  const Coord M = B.dims()[0];
  const Coord N = B.dims()[1];
  const rt::Rect1 rows = piece.dist_coords.value_or(rt::Rect1{0, M - 1});
  if (rows.empty()) return work.done();
  std::conditional_t<(BR > 0), std::array<double, (BR > 0 ? BR : 1)>,
                     std::vector<double>>
      acc{};
  if constexpr (BR == 0) acc.resize(static_cast<size_t>(R));
  for (Coord bi = rows.lo / R; bi <= rows.hi / R; ++bi) {
    const rt::PosRange seg = pos[bi];
    work.segment();
    std::fill(acc.begin(), acc.end(), 0.0);
    for (Coord q = seg.lo; q <= seg.hi; ++q) {
      const Coord j0 = Coord{crd[q]} * Cb;
      const Coord base = q * R * Cb;
      // A constant lane count (the whole block) unrolls the tile; only a
      // block column past the matrix edge takes the shorter one.
      auto lanes = [&](Coord jcnt) {
        for (Coord r = 0; r < R; ++r) {
          for (Coord cc = 0; cc < jcnt; ++cc) {
            acc[static_cast<size_t>(r)] += bv[base + r * Cb + cc] * cv[j0 + cc];
          }
        }
      };
      if (j0 + Cb <= N) {
        lanes(Cb);
      } else {
        lanes(N - j0);
      }
      work.flops += 2.0 * static_cast<double>(R * Cb);
      work.bytes += 8.0 * static_cast<double>(R * Cb) + 4.0 +
                    8.0 * static_cast<double>(Cb);
      work.nnz += static_cast<double>(R * Cb);
    }
    const Coord r_lo = std::max<Coord>(rows.lo - bi * R, 0);
    const Coord r_hi =
        std::min<Coord>(std::min<Coord>(rows.hi, M - 1) - bi * R, R - 1);
    for (Coord r = r_lo; r <= r_hi; ++r) {
      av[bi * R + r] += acc[static_cast<size_t>(r)];
    }
    work.stream(r_hi - r_lo + 1);
  }
  return work.done();
}

// A(i,j) = B(i,k) * C(k,j), B = bcsr(BR,BC) over (i,k), A/C dense. For each
// stored block and in-piece row r, the row's BC lanes load into registers
// and the j loop updates A's row r from C's rows k0..k0+BC-1, all walked
// contiguously (a j-outer dot per lane would stride C by J). Each output
// entry still sums its block's lanes in ck order before adding into A.
// Block columns that straddle the matrix edge and runtime extents
// (BR == 0) run one dot per (row, j) over a runtime lane count instead.
// `cols` clamps j for the axis-1 tile of a 2-D grid distribution.
template <bool L, int BR, int BC>
rt::WorkEstimate spmm_bcsr(const Tensor& A, const Tensor& B, const Tensor& C,
                           const PieceBounds& piece,
                           std::optional<uint32_t> col_var) {
  WorkCounter work;
  const Coord R = BR > 0 ? BR : B.format().mode(0).block();
  const Coord Cb = BR > 0 ? BC : B.format().mode(1).block();
  const auto& blk = B.storage().level(1);
  const rt::RegionAccessor<rt::PosRange, 1, L> pos(*blk.pos, rt::Access::Read);
  const rt::RegionAccessor<int32_t, 1, L> crd(*blk.crd, rt::Access::Read);
  const rt::RegionAccessor<double, 1, L> bv(*B.storage().vals(),
                                            rt::Access::Read);
  const rt::RegionAccessor<double, 2, L> cv(*C.storage().vals(),
                                            rt::Access::Read);
  const rt::RegionAccessor<double, 2, L> av(*A.storage().vals());
  const Coord M = B.dims()[0];
  const Coord K = B.dims()[1];
  const Coord J = A.dims()[1];
  const rt::Rect1 rows = piece.dist_coords.value_or(rt::Rect1{0, M - 1});
  const rt::Rect1 cols = col_var.has_value()
                             ? piece.var_bound(*col_var, rt::Rect1{0, J - 1})
                             : rt::Rect1{0, J - 1};
  if (rows.empty() || cols.empty()) return work.done();
  for (Coord bi = rows.lo / R; bi <= rows.hi / R; ++bi) {
    const rt::PosRange seg = pos[bi];
    work.segment();
    const Coord r_lo = std::max<Coord>(rows.lo - bi * R, 0);
    const Coord r_hi =
        std::min<Coord>(std::min<Coord>(rows.hi, M - 1) - bi * R, R - 1);
    for (Coord q = seg.lo; q <= seg.hi; ++q) {
      const Coord k0 = Coord{crd[q]} * Cb;
      const Coord base = q * R * Cb;
      bool tiled = false;
      if constexpr (BR > 0) {
        tiled = k0 + BC <= K;
        if (tiled) {
          typename rt::RegionAccessor<double, 2, L>::Row c[BC];
#pragma GCC unroll 8
          for (int ck = 0; ck < BC; ++ck) c[ck] = cv.row(k0 + ck);
          for (Coord r = r_lo; r <= r_hi; ++r) {
            const auto out = av.row(bi * BR + r);
            double b[BC];
#pragma GCC unroll 8
            for (int ck = 0; ck < BC; ++ck) b[ck] = bv[base + r * BC + ck];
            for (Coord j = cols.lo; j <= cols.hi; ++j) {
              double sum = 0;
#pragma GCC unroll 8
              for (int ck = 0; ck < BC; ++ck) sum += b[ck] * c[ck][j];
              out[j] += sum;
            }
          }
        }
      }
      if (!tiled) {
        const Coord kcnt = std::min<Coord>(Cb, K - k0);
        for (Coord r = r_lo; r <= r_hi; ++r) {
          const auto out = av.row(bi * R + r);
          for (Coord j = cols.lo; j <= cols.hi; ++j) {
            double sum = 0;
            for (Coord ck = 0; ck < kcnt; ++ck) {
              sum += bv[base + r * Cb + ck] * cv(k0 + ck, j);
            }
            out[j] += sum;
          }
        }
      }
      const double rows_done = static_cast<double>(r_hi - r_lo + 1);
      work.flops += 2.0 * rows_done * static_cast<double>(Cb) *
                    static_cast<double>(cols.size());
      work.bytes += 8.0 * static_cast<double>(R * Cb) + 4.0 +
                    8.0 * static_cast<double>(Cb * cols.size());
      work.nnz += rows_done * static_cast<double>(Cb);
    }
  }
  return work.done();
}

}  // namespace

Leaf make_spmv_bcsr(Tensor a, Tensor B, Tensor c) {
  const int R = B.format().mode(0).block();
  const int C = B.format().mode(1).block();
  auto leaf = [&]<int BR, int BC>() -> Leaf {
    return [a, B, c](const PieceBounds& p) {
      return rt::dispatch_logged([&]<bool L>() {
        return spmv_bcsr<L, BR, BC>(a, B, c, p);
      });
    };
  };
  if (R == 2 && C == 2) return leaf.template operator()<2, 2>();
  if (R == 4 && C == 4) return leaf.template operator()<4, 4>();
  if (R == 4 && C == 8) return leaf.template operator()<4, 8>();
  if (R == 8 && C == 8) return leaf.template operator()<8, 8>();
  return leaf.template operator()<0, 0>();  // runtime extents
}

Leaf make_spmm_bcsr(Tensor A, Tensor B, Tensor C,
                    std::optional<uint32_t> col_var) {
  const int R = B.format().mode(0).block();
  const int Cb = B.format().mode(1).block();
  auto leaf = [&]<int BR, int BC>() -> Leaf {
    return [A, B, C, col_var](const PieceBounds& p) {
      return rt::dispatch_logged([&]<bool L>() {
        return spmm_bcsr<L, BR, BC>(A, B, C, p, col_var);
      });
    };
  };
  if (R == 2 && Cb == 2) return leaf.template operator()<2, 2>();
  if (R == 4 && Cb == 4) return leaf.template operator()<4, 4>();
  if (R == 4 && Cb == 8) return leaf.template operator()<4, 8>();
  if (R == 8 && Cb == 8) return leaf.template operator()<8, 8>();
  return leaf.template operator()<0, 0>();  // runtime extents
}

}  // namespace spdistal::kern
