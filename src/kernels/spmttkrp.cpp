#include "kernels/leaf_kernels.h"
#include "kernels/work.h"

namespace spdistal::kern {

using rt::Coord;

// Matricized tensor-times-Khatri-Rao product:
// A(i,l) = B(i,j,k) * C(j,l) * D(k,l) with dense factor matrices.
Leaf make_spmttkrp_row(Tensor A, Tensor B, Tensor C, Tensor D) {
  return [A, B, C, D](const PieceBounds& piece) mutable -> rt::WorkEstimate {
    WorkCounter work;
    const auto& l1 = B.storage().level(1);
    const auto& l2 = B.storage().level(2);
    const rt::RegionAccessor<rt::PosRange> l2pos(*l2.pos, rt::Access::Read);
    const rt::RegionAccessor<int32_t> l2crd(*l2.crd, rt::Access::Read);
    const rt::RegionAccessor<double> bv(*B.storage().vals(), rt::Access::Read);
    const rt::RegionAccessor<double, 2> cv(*C.storage().vals(),
                                           rt::Access::Read);
    const rt::RegionAccessor<double, 2> dv(*D.storage().vals(),
                                           rt::Access::Read);
    const rt::RegionAccessor<double, 2> av(*A.storage().vals());
    rt::RegionAccessor<rt::PosRange> l1pos;
    rt::RegionAccessor<int32_t> l1crd;
    if (l1.kind.is_compressed()) {
      l1pos = rt::RegionAccessor<rt::PosRange>(*l1.pos, rt::Access::Read);
      l1crd = rt::RegionAccessor<int32_t>(*l1.crd, rt::Access::Read);
    }
    const Coord L = A.dims()[1];
    const rt::Rect1 rows = piece.dist_coords.value_or(
        rt::Rect1{0, B.dims()[0] - 1});
    for (Coord i = rows.lo; i <= rows.hi; ++i) {
      auto fiber = [&](Coord j, Coord q1) {
        const rt::PosRange seg = l2pos[q1];
        work.segment();
        for (Coord q2 = seg.lo; q2 <= seg.hi; ++q2) {
          const Coord k = l2crd[q2];
          const double v = bv[q2];
          for (Coord l = 0; l < L; ++l) {
            av(i, l) += v * cv(j, l) * dv(k, l);
          }
          // 4L flops per non-zero; the C/D rows stream once and the A row
          // stays cache-resident across the fiber.
          work.fma_dense_cached(2 * L);
        }
      };
      if (l1.kind.is_compressed()) {
        const rt::PosRange seg = l1pos[i];
        work.segment();
        for (Coord q1 = seg.lo; q1 <= seg.hi; ++q1) {
          fiber(l1crd[q1], q1);
        }
      } else {
        for (Coord j = 0; j < l1.extent; ++j) {
          fiber(j, i * l1.extent + j);
        }
      }
    }
    return work.done();
  };
}

Leaf make_spmttkrp_nz(Tensor A, Tensor B, Tensor C, Tensor D) {
  return [A, B, C, D](const PieceBounds& piece) mutable -> rt::WorkEstimate {
    WorkCounter work;
    const auto& l2 = B.storage().level(2);
    const rt::RegionAccessor<int32_t> l2crd(*l2.crd, rt::Access::Read);
    const rt::RegionAccessor<double> bv(*B.storage().vals(), rt::Access::Read);
    const rt::RegionAccessor<double, 2> cv(*C.storage().vals(),
                                           rt::Access::Read);
    const rt::RegionAccessor<double, 2> dv(*D.storage().vals(),
                                           rt::Access::Read);
    const rt::RegionAccessor<double, 2> av(*A.storage().vals());
    const Coord L = A.dims()[1];
    const rt::Rect1 range = piece.dist_pos.value_or(
        rt::Rect1{0, l2.positions - 1});
    walk_fibers(B.storage(), range, [&](Coord i, Coord j, Coord q2, bool) {
      const Coord k = l2crd[q2];
      const double v = bv[q2];
      for (Coord l = 0; l < L; ++l) {
        av(i, l) += v * cv(j, l) * dv(k, l);
      }
      work.fma_dense_cached(2 * L);
    });
    return work.done();
  };
}

}  // namespace spdistal::kern
