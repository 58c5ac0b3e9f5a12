#include "kernels/leaf_kernels.h"
#include "kernels/work.h"

namespace spdistal::kern {

using rt::Coord;

namespace {

// Matricized tensor-times-Khatri-Rao product:
// A(i,l) = B(i,j,k) * C(j,l) * D(k,l) with dense factor matrices. A row
// piece (`row_piece`) walks the fibers of its rows and also prices 16 bytes
// of pos per fiber, plus per row when level 1 is Compressed; a non-zero
// piece walks dist_pos of B's innermost level.
template <bool L>
rt::WorkEstimate spmttkrp_walk(const Tensor& A, const Tensor& B,
                               const Tensor& C, const Tensor& D,
                               const PieceBounds& piece, bool row_piece) {
  WorkCounter work;
  const auto& l2 = B.storage().level(2);
  const rt::RegionAccessor<int32_t, 1, L> l2crd(*l2.crd, rt::Access::Read);
  const rt::RegionAccessor<double, 1, L> bv(*B.storage().vals(),
                                            rt::Access::Read);
  const rt::RegionAccessor<double, 2, L> cv(*C.storage().vals(),
                                            rt::Access::Read);
  const rt::RegionAccessor<double, 2, L> dv(*D.storage().vals(),
                                            rt::Access::Read);
  const rt::RegionAccessor<double, 2, L> av(*A.storage().vals());
  const Coord Lc = A.dims()[1];
  PosSpan span;
  Coord first_row = -1;
  if (row_piece) {
    const rt::Rect1 rows =
        piece.dist_coords.value_or(rt::Rect1{0, B.dims()[0] - 1});
    const rt::Rect1 fibers = fibers_of_rows<L>(B.storage(), rows);
    span = parents_span<L>(l2, fibers);
    first_row = rows.lo;
    work.segment(fibers.size());
    if (B.storage().level(1).kind.is_compressed()) work.segment(rows.size());
  } else {
    span.positions = piece.dist_pos.value_or(rt::Rect1{0, l2.positions - 1});
  }
  walk_fibers<L>(B.storage(), span, first_row,
                 [&](Coord i, Coord j, Coord q2, bool) {
                   const Coord k = l2crd[q2];
                   const double v = bv[q2];
                   for (Coord l = 0; l < Lc; ++l) {
                     av(i, l) += v * cv(j, l) * dv(k, l);
                   }
                 });
  // 4L flops per non-zero; the C/D rows stream once and the A row stays
  // cache-resident across the fiber.
  work.fma_dense_cached(2 * Lc, span.positions.size());
  return work.done();
}

}  // namespace

Leaf make_spmttkrp_row(Tensor A, Tensor B, Tensor C, Tensor D) {
  return [A, B, C, D](const PieceBounds& piece) {
    return rt::dispatch_logged([&]<bool L>() {
      return spmttkrp_walk<L>(A, B, C, D, piece, true);
    });
  };
}

Leaf make_spmttkrp_nz(Tensor A, Tensor B, Tensor C, Tensor D) {
  return [A, B, C, D](const PieceBounds& piece) {
    return rt::dispatch_logged([&]<bool L>() {
      return spmttkrp_walk<L>(A, B, C, D, piece, false);
    });
  };
}

}  // namespace spdistal::kern
