#include "kernels/leaf_kernels.h"
#include "kernels/work.h"

namespace spdistal::kern {

using rt::Coord;

namespace {

// Sparse tensor-times-vector over {Dense, Compressed|Dense, Compressed}
// 3-tensors: A(i,j) = B(i,j,k) * c(k). The output's (i,j) pattern is the
// set of B's non-empty fibers in order: the walk locates the piece's first
// fiber in A once, then advances one output position per fiber. A row
// piece (`row_piece`) walks the fibers of its rows and also prices 16 bytes
// of pos per row; a non-zero piece walks dist_pos of B's innermost level.
template <bool L>
rt::WorkEstimate spttv_walk(const Tensor& A, const Tensor& B, const Tensor& c,
                            const PieceBounds& piece, bool row_piece) {
  WorkCounter work;
  const auto& l2 = B.storage().level(2);
  const rt::RegionAccessor<int32_t, 1, L> l2crd(*l2.crd, rt::Access::Read);
  const rt::RegionAccessor<double, 1, L> bv(*B.storage().vals(),
                                            rt::Access::Read);
  const rt::RegionAccessor<double, 1, L> cv(*c.storage().vals(),
                                            rt::Access::Read);
  const auto& al = A.storage().level(1);
  const rt::RegionAccessor<int32_t, 1, L> acrd(*al.crd, rt::Access::Read);
  const rt::RegionAccessor<double, 1, L> avals(*A.storage().vals());
  PosSpan span;
  Coord first_row = -1;
  if (row_piece) {
    const rt::Rect1 rows =
        piece.dist_coords.value_or(rt::Rect1{0, B.dims()[0] - 1});
    span = parents_span<L>(l2, fibers_of_rows<L>(B.storage(), rows));
    first_row = rows.lo;
    work.segment(rows.size());
  } else {
    span.positions = piece.dist_pos.value_or(rt::Rect1{0, l2.positions - 1});
  }
  Coord out = -1;
  auto visit = [&](Coord i, Coord j, Coord q2, bool first) {
    if (first) {
      out = out < 0 ? locate_position(A.storage(), {i, j}) : out + 1;
      SPD_ASSERT(out >= 0 && out < al.positions && acrd[out] == j,
                 "SpTTV: assembled pattern disagrees with fiber walk");
      work.segment();
    }
    avals[out] += bv[q2] * cv[l2crd[q2]];
  };
  walk_fibers<L>(B.storage(), span, first_row, visit);
  work.fma_sparse(span.positions.size());
  return work.done();
}

}  // namespace

Leaf make_spttv_row(Tensor A, Tensor B, Tensor c) {
  return [A, B, c](const PieceBounds& piece) {
    return rt::dispatch_logged(
        [&]<bool L>() { return spttv_walk<L>(A, B, c, piece, true); });
  };
}

Leaf make_spttv_nz(Tensor A, Tensor B, Tensor c) {
  return [A, B, c](const PieceBounds& piece) {
    return rt::dispatch_logged(
        [&]<bool L>() { return spttv_walk<L>(A, B, c, piece, false); });
  };
}

}  // namespace spdistal::kern
