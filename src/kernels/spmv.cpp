#include "kernels/leaf_kernels.h"
#include "kernels/work.h"

namespace spdistal::kern {

using rt::Coord;

namespace {

// The CSR row loop: one dot product per row of `rows`, accumulated into
// a(i). With `cols`, stored columns outside it are skipped and only stream
// their crd during the scan (the inner universe axis of a non-zero x
// universe grid).
rt::WorkEstimate spmv_rows(Tensor& a, Tensor& B, Tensor& c, rt::Rect1 rows,
                           std::optional<rt::Rect1> cols) {
  WorkCounter work;
  const auto& Bl = B.storage().level(1);
  // Accessors resolve the reduction-redirect indirection once per leaf
  // invocation; the inner loops below index raw pointers.
  const rt::RegionAccessor<rt::PosRange> pos(*Bl.pos, rt::Access::Read);
  const rt::RegionAccessor<int32_t> crd(*Bl.crd, rt::Access::Read);
  const rt::RegionAccessor<double> bv(*B.storage().vals(), rt::Access::Read);
  const rt::RegionAccessor<double> cv(*c.storage().vals(), rt::Access::Read);
  const rt::RegionAccessor<double> av(*a.storage().vals());
  for (Coord i = rows.lo; i <= rows.hi; ++i) {
    const rt::PosRange seg = pos[i];
    work.segment();
    double sum = 0;
    int64_t computed = 0;
    for (Coord q = seg.lo; q <= seg.hi; ++q) {
      const Coord j = crd[q];
      if (cols && (j < cols->lo || j > cols->hi)) continue;
      sum += bv[q] * cv[j];
      ++computed;
    }
    work.fma_sparse(computed);
    if (cols) work.stream(seg.size() - computed, 4.0);
    av[i] += sum;
    work.stream(1);
  }
  return work.done();
}

}  // namespace

Leaf make_spmv_row(Tensor a, Tensor B, Tensor c) {
  return [a, B, c](const PieceBounds& piece) mutable -> rt::WorkEstimate {
    return spmv_rows(a, B, c,
                     piece.dist_coords.value_or(rt::Rect1{0, B.dims()[0] - 1}),
                     std::nullopt);
  };
}

Leaf make_spmv_nz(Tensor a, Tensor B, Tensor c,
                  std::optional<uint32_t> col_var, int pos_level) {
  // Mid-tree split: the piece's positions are level-0 (row) positions of a
  // CSR matrix. Iterate that row range with the specialized row loop,
  // clamping stored columns to any piece bound instead of falling back to
  // general co-iteration.
  if (pos_level == 0 && !B.storage().level(0).kind.has_crd()) {
    return [a, B, c, col_var](const PieceBounds& piece) mutable
               -> rt::WorkEstimate {
      std::optional<rt::Rect1> cols;
      if (col_var) {
        cols = piece.var_bound(*col_var, rt::Rect1{0, B.dims()[1] - 1});
      }
      return spmv_rows(a, B, c,
                       piece.dist_pos.value_or(rt::Rect1{0, B.dims()[0] - 1}),
                       cols);
    };
  }
  // B is CSR ({Dense, Compressed}) or COO ({Compressed!u, Singleton}). For
  // CSR, the piece walks the row segments its positions fall in; COO stores
  // the row per position in the root crd already. Other two-level layouts
  // (e.g. DCSR, whose root crd is NOT position-aligned with the leaf level)
  // must not reach this kernel.
  const bool coo = B.storage().level(0).kind.has_crd();
  SPD_ASSERT(B.storage().level(1).kind.is_singleton() ||
                 B.storage().level(0).kind.is_dense(),
             "make_spmv_nz requires CSR or COO storage, got "
                 << B.storage().str());
  return [a, B, c, coo, col_var](const PieceBounds& piece) mutable
             -> rt::WorkEstimate {
    WorkCounter work;
    const auto& Bl = B.storage().level(1);
    const rt::RegionAccessor<int32_t> crd(*Bl.crd, rt::Access::Read);
    const rt::RegionAccessor<double> bv(*B.storage().vals(), rt::Access::Read);
    const rt::RegionAccessor<double> cv(*c.storage().vals(), rt::Access::Read);
    const rt::RegionAccessor<double> av(*a.storage().vals());
    const rt::Rect1 range = piece.dist_pos.value_or(
        rt::Rect1{0, Bl.positions - 1});
    // Inner universe axis of a non-zero x universe grid: clamp stored
    // columns to the piece's block instead of general co-iteration.
    const rt::Rect1 cols =
        col_var.has_value()
            ? piece.var_bound(*col_var, rt::Rect1{0, B.dims()[1] - 1})
            : rt::Rect1{0, B.dims()[1] - 1};
    const bool clamp = col_var.has_value();
    int64_t computed = 0;
    // `with_clamp` is a compile-time flag, so the unclamped scan carries no
    // column test.
    auto scan = [&](auto with_clamp) {
      auto visit = [&](Coord i, Coord q) {
        const Coord j = crd[q];
        if (with_clamp && (j < cols.lo || j > cols.hi)) return;
        av[i] += bv[q] * cv[j];
        ++computed;
      };
      if (coo) {
        const rt::RegionAccessor<int32_t> row_crd(*B.storage().level(0).crd,
                                                  rt::Access::Read);
        for (Coord q = range.lo; q <= range.hi; ++q) visit(row_crd[q], q);
      } else {
        walk_positions(Bl, range, visit);
      }
    };
    if (clamp) {
      scan(std::true_type{});
    } else {
      scan(std::false_type{});
    }
    work.fma_sparse(computed);
    work.stream(computed, 12.0);  // row lookup + output scatter
    // Clamped-out entries only stream their crd during the scan.
    if (clamp) work.stream(range.size() - computed, 4.0);
    return work.done();
  };
}

}  // namespace spdistal::kern
