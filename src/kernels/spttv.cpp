#include "kernels/leaf_kernels.h"
#include "kernels/work.h"

namespace spdistal::kern {

using rt::Coord;

// Sparse tensor-times-vector over {Dense, Compressed|Dense, Compressed}
// 3-tensors: A(i,j) = B(i,j,k) * c(k). The output's (i,j) pattern is the set
// of B's non-empty fibers; a walking cursor over A's row segment consumes
// fibers in ascending j order.
Leaf make_spttv_row(Tensor A, Tensor B, Tensor c) {
  return [A, B, c](const PieceBounds& piece) mutable -> rt::WorkEstimate {
    WorkCounter work;
    const auto& l1 = B.storage().level(1);
    const auto& l2 = B.storage().level(2);
    const rt::RegionAccessor<rt::PosRange> l2pos(*l2.pos, rt::Access::Read);
    const rt::RegionAccessor<int32_t> l2crd(*l2.crd, rt::Access::Read);
    const rt::RegionAccessor<double> bv(*B.storage().vals(), rt::Access::Read);
    const rt::RegionAccessor<double> cv(*c.storage().vals(), rt::Access::Read);
    const rt::RegionAccessor<rt::PosRange> apos(*A.storage().level(1).pos,
                                                rt::Access::Read);
    const rt::RegionAccessor<int32_t> acrd(*A.storage().level(1).crd,
                                           rt::Access::Read);
    const rt::RegionAccessor<double> avals(*A.storage().vals());
    rt::RegionAccessor<rt::PosRange> l1pos;
    rt::RegionAccessor<int32_t> l1crd;
    if (l1.kind.is_compressed()) {
      l1pos = rt::RegionAccessor<rt::PosRange>(*l1.pos, rt::Access::Read);
      l1crd = rt::RegionAccessor<int32_t>(*l1.crd, rt::Access::Read);
    }
    const rt::Rect1 rows = piece.dist_coords.value_or(
        rt::Rect1{0, B.dims()[0] - 1});
    for (Coord i = rows.lo; i <= rows.hi; ++i) {
      Coord out = apos[i].lo;
      const Coord out_hi = apos[i].hi;
      work.segment();
      auto fiber = [&](Coord j, Coord q1) {
        const rt::PosRange seg = l2pos[q1];
        if (seg.empty()) return;
        double sum = 0;
        for (Coord q2 = seg.lo; q2 <= seg.hi; ++q2) {
          sum += bv[q2] * cv[l2crd[q2]];
        }
        work.fma_sparse(seg.size());
        SPD_ASSERT(out <= out_hi && acrd[out] == j,
                   "SpTTV: assembled pattern disagrees with fiber walk");
        avals[out] += sum;
        ++out;
        work.stream(1, 16.0);
      };
      if (l1.kind.is_compressed()) {
        const rt::PosRange seg = l1pos[i];
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

Leaf make_spttv_nz(Tensor A, Tensor B, Tensor c) {
  return [A, B, c](const PieceBounds& piece) mutable -> rt::WorkEstimate {
    WorkCounter work;
    const auto& l2 = B.storage().level(2);
    const rt::Rect1 range = piece.dist_pos.value_or(
        rt::Rect1{0, l2.positions - 1});
    const rt::RegionAccessor<int32_t> l2crd(*l2.crd, rt::Access::Read);
    const rt::RegionAccessor<double> bv(*B.storage().vals(), rt::Access::Read);
    const rt::RegionAccessor<double> cv(*c.storage().vals(), rt::Access::Read);
    const auto& al = A.storage().level(1);
    const rt::RegionAccessor<int32_t> acrd(*al.crd, rt::Access::Read);
    const rt::RegionAccessor<double> avals(*A.storage().vals());
    // The output's pattern is B's non-empty fibers in order: locate the
    // piece's first fiber once, then advance one output position per fiber.
    Coord out = -1;
    auto visit = [&](Coord i, Coord j, Coord q2, bool first) {
      if (first) {
        out = out < 0 ? locate_position(A.storage(), {i, j}) : out + 1;
        SPD_ASSERT(out >= 0 && out < al.positions && acrd[out] == j,
                   "SpTTV nz: assembled pattern disagrees with fiber walk");
        work.segment();
      }
      avals[out] += bv[q2] * cv[l2crd[q2]];
      work.fma_sparse(1);
    };
    walk_fibers(B.storage(), range, visit);
    return work.done();
  };
}

}  // namespace spdistal::kern
