#include "kernels/leaf_kernels.h"
#include "kernels/work.h"

namespace spdistal::kern {

using rt::Coord;

namespace {

// A and B patterns align 1:1, so the output value for B's position q lives
// at A's position q. A row piece (`row_piece`) walks the positions of its
// rows (dist_coords), a non-zero piece walks dist_pos; both price the same.
// With `col_var`, only stored columns inside the piece's bound for that
// variable are evaluated (axis-1 tile of a 2-D grid distribution).
template <bool L>
rt::WorkEstimate sddmm_walk(const Tensor& A, const Tensor& B, const Tensor& C,
                            const Tensor& D, std::optional<uint32_t> col_var,
                            const PieceBounds& piece, bool row_piece) {
  WorkCounter work;
  const auto& Bl = B.storage().level(1);
  const rt::RegionAccessor<int32_t, 1, L> crd(*Bl.crd, rt::Access::Read);
  const rt::RegionAccessor<double, 1, L> bv(*B.storage().vals(),
                                            rt::Access::Read);
  const rt::RegionAccessor<double, 2, L> cv(*C.storage().vals(),
                                            rt::Access::Read);
  const rt::RegionAccessor<double, 2, L> dv(*D.storage().vals(),
                                            rt::Access::Read);
  const rt::RegionAccessor<double, 1, L> av(*A.storage().vals());
  const Coord K = C.dims()[1];
  const bool clamp = col_var.has_value();
  const rt::Rect1 all{0, B.dims()[1] - 1};
  const rt::Rect1 cols = clamp ? piece.var_bound(*col_var, all) : all;
  const PosSpan span =
      row_piece
          ? parents_span<L>(Bl, piece.dist_coords.value_or(
                                    rt::Rect1{0, B.dims()[0] - 1}))
          : PosSpan{piece.dist_pos.value_or(rt::Rect1{0, Bl.positions - 1}),
                    std::nullopt};
  walk_positions<L>(Bl, span, [&](Coord i, Coord q) {
    const Coord j = crd[q];
    if (clamp) {
      work.stream(1, 4.0);
      if (!cols.contains(j)) return;
    }
    double dot = 0;
    for (Coord k = 0; k < K; ++k) {
      dot += cv(i, k) * dv(k, j);
    }
    av[q] += bv[q] * dot;
    work.fma_dense(K);
    work.fma_sparse(1);
  });
  return work.done();
}

}  // namespace

Leaf make_sddmm_nz(Tensor A, Tensor B, Tensor C, Tensor D,
                   std::optional<uint32_t> col_var) {
  return [A, B, C, D, col_var](const PieceBounds& piece) {
    return rt::dispatch_logged([&]<bool L>() {
      return sddmm_walk<L>(A, B, C, D, col_var, piece, false);
    });
  };
}

Leaf make_sddmm_row(Tensor A, Tensor B, Tensor C, Tensor D,
                    std::optional<uint32_t> col_var) {
  return [A, B, C, D, col_var](const PieceBounds& piece) {
    return rt::dispatch_logged([&]<bool L>() {
      return sddmm_walk<L>(A, B, C, D, col_var, piece, true);
    });
  };
}

}  // namespace spdistal::kern
