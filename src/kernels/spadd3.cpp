#include "kernels/leaf_kernels.h"
#include "kernels/work.h"

namespace spdistal::kern {

using rt::Coord;

namespace {

// Fused three-way sparse matrix addition: one union merge per row, writing
// directly into the assembled output segment — no intermediate sparse
// matrices or re-assembly between additions (paper §VI-A / §VI-C).
template <bool L>
rt::WorkEstimate spadd3_rows(const Tensor& A, const Tensor& B, const Tensor& C,
                             const Tensor& D, const PieceBounds& piece) {
  WorkCounter work;
  struct In {
    rt::RegionAccessor<rt::PosRange, 1, L> pos;
    rt::RegionAccessor<int32_t, 1, L> crd;
    rt::RegionAccessor<double, 1, L> vals;
  };
  auto input = [](const Tensor& t) {
    const auto& l1 = t.storage().level(1);
    return In{rt::RegionAccessor<rt::PosRange, 1, L>(*l1.pos, rt::Access::Read),
              rt::RegionAccessor<int32_t, 1, L>(*l1.crd, rt::Access::Read),
              rt::RegionAccessor<double, 1, L>(*t.storage().vals(),
                                               rt::Access::Read)};
  };
  const In ins[3] = {input(B), input(C), input(D)};
  const auto& al = A.storage().level(1);
  const rt::RegionAccessor<rt::PosRange, 1, L> apos(*al.pos, rt::Access::Read);
  const rt::RegionAccessor<int32_t, 1, L> acrd(*al.crd, rt::Access::Read);
  const rt::RegionAccessor<double, 1, L> avals(*A.storage().vals());
  const rt::Rect1 rows = piece.dist_coords.value_or(
      rt::Rect1{0, A.dims()[0] - 1});
  for (Coord i = rows.lo; i <= rows.hi; ++i) {
    // Three cursors over this row's segments.
    Coord q[3], hi[3];
    for (int s = 0; s < 3; ++s) {
      const rt::PosRange seg = ins[s].pos[i];
      q[s] = seg.lo;
      hi[s] = seg.hi;
      work.segment();
    }
    Coord out = apos[i].lo;
    const Coord out_hi = apos[i].hi;
    while (q[0] <= hi[0] || q[1] <= hi[1] || q[2] <= hi[2]) {
      // Smallest current column across the three inputs.
      Coord col = A.dims()[1];
      for (int s = 0; s < 3; ++s) {
        if (q[s] <= hi[s]) col = std::min<Coord>(col, ins[s].crd[q[s]]);
      }
      double sum = 0;
      for (int s = 0; s < 3; ++s) {
        if (q[s] <= hi[s] && ins[s].crd[q[s]] == col) {
          sum += ins[s].vals[q[s]];
          ++q[s];
        }
      }
      SPD_ASSERT(out <= out_hi && acrd[out] == col,
                 "SpAdd3: assembled pattern disagrees with union merge");
      avals[out] += sum;
      ++out;
      work.fma_sparse(1);
      work.stream(1, 16.0);
    }
  }
  return work.done();
}

}  // namespace

Leaf make_spadd3_row(Tensor A, Tensor B, Tensor C, Tensor D) {
  return [A, B, C, D](const PieceBounds& piece) {
    return rt::dispatch_logged([&]<bool L>() {
      return spadd3_rows<L>(A, B, C, D, piece);
    });
  };
}

}  // namespace spdistal::kern
