#include "kernels/leaf_kernels.h"
#include "kernels/work.h"

namespace spdistal::kern {

using rt::Coord;

namespace {

// Shared inner body: A and B patterns align 1:1, so the output value for
// B's position q lives at A's position q. `walk(visit)` calls visit(i, q)
// for every stored position q (row i) of the piece, in ascending q. With
// `col_var`, only stored columns inside the piece's bound for that variable
// are evaluated (axis-1 tile of a 2-D grid distribution).
template <typename Walk>
rt::WorkEstimate sddmm_positions(Tensor& A, Tensor& B, Tensor& C, Tensor& D,
                                 std::optional<uint32_t> col_var,
                                 const PieceBounds& piece, Walk&& walk) {
  WorkCounter work;
  const rt::RegionAccessor<int32_t> crd(*B.storage().level(1).crd,
                                        rt::Access::Read);
  const rt::RegionAccessor<double> bv(*B.storage().vals(), rt::Access::Read);
  const rt::RegionAccessor<double, 2> cv(*C.storage().vals(),
                                         rt::Access::Read);
  const rt::RegionAccessor<double, 2> dv(*D.storage().vals(),
                                         rt::Access::Read);
  const rt::RegionAccessor<double> av(*A.storage().vals());
  const Coord K = C.dims()[1];
  const bool clamp = col_var.has_value();
  const rt::Rect1 all{0, B.dims()[1] - 1};
  const rt::Rect1 cols = clamp ? piece.var_bound(*col_var, all) : all;
  walk([&](Coord i, Coord q) {
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
  return [A, B, C, D, col_var](const PieceBounds& piece) mutable {
    const auto& Bl = B.storage().level(1);
    const rt::Rect1 range =
        piece.dist_pos.value_or(rt::Rect1{0, Bl.positions - 1});
    return sddmm_positions(A, B, C, D, col_var, piece, [&](auto&& visit) {
      walk_positions(Bl, range, visit);
    });
  };
}

Leaf make_sddmm_row(Tensor A, Tensor B, Tensor C, Tensor D,
                    std::optional<uint32_t> col_var) {
  return [A, B, C, D, col_var](const PieceBounds& piece) mutable {
    const rt::Rect1 rows =
        piece.dist_coords.value_or(rt::Rect1{0, B.dims()[0] - 1});
    return sddmm_positions(A, B, C, D, col_var, piece, [&](auto&& visit) {
      const rt::RegionAccessor<rt::PosRange> pos(*B.storage().level(1).pos,
                                                 rt::Access::Read);
      for (Coord i = rows.lo; i <= rows.hi; ++i) {
        const rt::PosRange seg = pos[i];
        for (Coord q = seg.lo; q <= seg.hi; ++q) visit(i, q);
      }
    });
  };
}

}  // namespace spdistal::kern
