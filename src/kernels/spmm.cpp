#include "kernels/leaf_kernels.h"
#include "kernels/work.h"

namespace spdistal::kern {

using rt::Coord;

namespace {

// The Senanayake et al. schedule over one piece's stored positions of B:
// loop non-zeros, stream the dense row of C into the dense row of A. A row
// piece (`rows`) walks the positions of its rows and also prices 16 bytes
// of pos per row; a non-zero piece walks dist_pos. With `col_var`, the
// dense j loop clamps to the piece's bound for that variable (the axis-1
// tile of a grid distribution).
template <bool L>
rt::WorkEstimate spmm_walk(const Tensor& A, const Tensor& B, const Tensor& C,
                           std::optional<uint32_t> col_var,
                           const PieceBounds& piece, bool row_piece) {
  WorkCounter work;
  const auto& Bl = B.storage().level(1);
  const Coord J = A.dims()[1];
  const rt::Rect1 cols = col_var.has_value()
                             ? piece.var_bound(*col_var, rt::Rect1{0, J - 1})
                             : rt::Rect1{0, J - 1};
  if (cols.empty()) return work.done();
  const rt::RegionAccessor<int32_t, 1, L> crd(*Bl.crd, rt::Access::Read);
  const rt::RegionAccessor<double, 1, L> bv(*B.storage().vals(),
                                            rt::Access::Read);
  const rt::RegionAccessor<double, 2, L> cv(*C.storage().vals(),
                                            rt::Access::Read);
  const rt::RegionAccessor<double, 2, L> av(*A.storage().vals());
  PosSpan span;
  if (row_piece) {
    const rt::Rect1 rows =
        piece.dist_coords.value_or(rt::Rect1{0, B.dims()[0] - 1});
    span = parents_span<L>(Bl, rows);
    work.segment(rows.size());
  } else {
    span.positions = piece.dist_pos.value_or(rt::Rect1{0, Bl.positions - 1});
  }
  walk_positions<L>(Bl, span, [&](Coord i, Coord q) {
    const Coord k = crd[q];
    const double v = bv[q];
    for (Coord j = cols.lo; j <= cols.hi; ++j) {
      av(i, j) += v * cv(k, j);
    }
  });
  // 2·|cols| flops per non-zero; C's row streams, A's row stays resident.
  work.fma_dense_cached(cols.size(), span.positions.size());
  return work.done();
}

}  // namespace

Leaf make_spmm_nz(Tensor A, Tensor B, Tensor C,
                  std::optional<uint32_t> col_var) {
  return [A, B, C, col_var](const PieceBounds& piece) {
    return rt::dispatch_logged([&]<bool L>() {
      return spmm_walk<L>(A, B, C, col_var, piece, false);
    });
  };
}

Leaf make_spmm_row(Tensor A, Tensor B, Tensor C,
                   std::optional<uint32_t> col_var) {
  return [A, B, C, col_var](const PieceBounds& piece) {
    return rt::dispatch_logged([&]<bool L>() {
      return spmm_walk<L>(A, B, C, col_var, piece, true);
    });
  };
}

}  // namespace spdistal::kern
