#include "kernels/leaf_kernels.h"
#include "kernels/work.h"

namespace spdistal::kern {

using rt::Coord;

Leaf make_spmm_nz(Tensor A, Tensor B, Tensor C,
                  std::optional<uint32_t> col_var) {
  return [A, B, C, col_var](const PieceBounds& piece) mutable
             -> rt::WorkEstimate {
    WorkCounter work;
    const auto& Bl = B.storage().level(1);
    const rt::RegionAccessor<int32_t> crd(*Bl.crd, rt::Access::Read);
    const rt::RegionAccessor<double> bv(*B.storage().vals(), rt::Access::Read);
    const rt::RegionAccessor<double, 2> cv(*C.storage().vals(),
                                           rt::Access::Read);
    const rt::RegionAccessor<double, 2> av(*A.storage().vals());
    const Coord J = A.dims()[1];
    const rt::Rect1 range = piece.dist_pos.value_or(
        rt::Rect1{0, Bl.positions - 1});
    const rt::Rect1 cols = col_var.has_value()
                               ? piece.var_bound(*col_var, rt::Rect1{0, J - 1})
                               : rt::Rect1{0, J - 1};
    if (cols.empty()) return work.done();
    walk_positions(Bl, range, [&](Coord i, Coord q) {
      const Coord k = crd[q];
      const double v = bv[q];
      for (Coord j = cols.lo; j <= cols.hi; ++j) {
        av(i, j) += v * cv(k, j);
      }
      work.fma_dense_cached(cols.size());
    });
    return work.done();
  };
}

Leaf make_spmm_row(Tensor A, Tensor B, Tensor C,
                   std::optional<uint32_t> col_var) {
  return [A, B, C, col_var](const PieceBounds& piece) mutable
             -> rt::WorkEstimate {
    WorkCounter work;
    const auto& Bl = B.storage().level(1);
    const rt::RegionAccessor<rt::PosRange> pos(*Bl.pos, rt::Access::Read);
    const rt::RegionAccessor<int32_t> crd(*Bl.crd, rt::Access::Read);
    const rt::RegionAccessor<double> bv(*B.storage().vals(), rt::Access::Read);
    const rt::RegionAccessor<double, 2> cv(*C.storage().vals(),
                                           rt::Access::Read);
    const rt::RegionAccessor<double, 2> av(*A.storage().vals());
    const Coord J = A.dims()[1];
    const rt::Rect1 rows = piece.dist_coords.value_or(
        rt::Rect1{0, B.dims()[0] - 1});
    // Axis-1 tile of a grid distribution: this piece owns only a block of
    // the dense output columns.
    const rt::Rect1 cols = col_var.has_value()
                               ? piece.var_bound(*col_var, rt::Rect1{0, J - 1})
                               : rt::Rect1{0, J - 1};
    if (cols.empty()) return work.done();
    // The Senanayake et al. schedule: loop non-zeros of the row, stream the
    // dense row of C into the dense row of A.
    for (Coord i = rows.lo; i <= rows.hi; ++i) {
      const rt::PosRange seg = pos[i];
      work.segment();
      for (Coord q = seg.lo; q <= seg.hi; ++q) {
        const Coord k = crd[q];
        const double v = bv[q];
        for (Coord j = cols.lo; j <= cols.hi; ++j) {
          av(i, j) += v * cv(k, j);
        }
        // 2·|cols| flops per non-zero; C's row streams, A's row stays
        // resident.
        work.fma_dense_cached(cols.size());
      }
    }
    return work.done();
  };
}

}  // namespace spdistal::kern
