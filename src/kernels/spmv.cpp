#include "kernels/leaf_kernels.h"
#include "kernels/work.h"

namespace spdistal::kern {

using rt::Coord;

namespace {

// a(i) += B(i,j) * c(j) over one piece's stored positions of B. A row piece
// (`rows`, CSR only) walks the positions of its rows and is priced like a
// row loop: 16 bytes of pos and one 8-byte output update per row, plus the
// multiply-adds. A non-zero piece walks `range` (CSR, or COO reading rows
// from the root crd) and prices a row lookup and output scatter per
// computed entry instead. With `cols`, stored columns outside it are
// skipped and only stream their crd (the inner universe axis of a non-zero
// x universe grid).
template <bool L>
rt::WorkEstimate spmv_walk(const Tensor& a, const Tensor& B, const Tensor& c,
                           std::optional<rt::Rect1> rows, rt::Rect1 range,
                           std::optional<rt::Rect1> cols) {
  WorkCounter work;
  const auto& Bl = B.storage().level(1);
  const bool coo = B.storage().level(0).kind.has_crd();
  const rt::RegionAccessor<int32_t, 1, L> crd(*Bl.crd, rt::Access::Read);
  const rt::RegionAccessor<double, 1, L> bv(*B.storage().vals(),
                                            rt::Access::Read);
  const rt::RegionAccessor<double, 1, L> cv(*c.storage().vals(),
                                            rt::Access::Read);
  const rt::RegionAccessor<double, 1, L> av(*a.storage().vals());
  const PosSpan span =
      rows ? parents_span<L>(Bl, *rows) : PosSpan{range, std::nullopt};
  const rt::Rect1 bound = cols.value_or(rt::Rect1{});
  int64_t computed = 0;
  // `with_clamp` is a compile-time flag, so the unclamped scan carries no
  // column test.
  auto scan = [&](auto with_clamp) {
    auto visit = [&](Coord i, Coord q) {
      const Coord j = crd[q];
      if (with_clamp && (j < bound.lo || j > bound.hi)) return;
      av[i] += bv[q] * cv[j];
      ++computed;
    };
    if (coo) {
      const rt::RegionAccessor<int32_t, 1, L> row_crd(
          *B.storage().level(0).crd, rt::Access::Read);
      for (Coord q = range.lo; q <= range.hi; ++q) visit(row_crd[q], q);
    } else {
      walk_positions<L>(Bl, span, visit);
    }
  };
  if (cols) {
    scan(std::true_type{});
  } else {
    scan(std::false_type{});
  }
  work.fma_sparse(computed);
  if (rows) {
    work.segment(rows->size());
    work.stream(rows->size());
  } else {
    work.stream(computed, 12.0);  // row lookup + output scatter
  }
  if (cols) work.stream(span.positions.size() - computed, 4.0);
  return work.done();
}

}  // namespace

Leaf make_spmv_row(Tensor a, Tensor B, Tensor c) {
  return [a, B, c](const PieceBounds& piece) {
    const rt::Rect1 rows =
        piece.dist_coords.value_or(rt::Rect1{0, B.dims()[0] - 1});
    return rt::dispatch_logged([&]<bool L>() {
      return spmv_walk<L>(a, B, c, rows, rt::Rect1{}, std::nullopt);
    });
  };
}

Leaf make_spmv_nz(Tensor a, Tensor B, Tensor c,
                  std::optional<uint32_t> col_var, int pos_level) {
  // B is CSR ({Dense, Compressed}) or COO ({Compressed!u, Singleton}). For
  // CSR, the piece walks the row segments its positions fall in; COO stores
  // the row per position in the root crd already. Other two-level layouts
  // (e.g. DCSR, whose root crd is NOT position-aligned with the leaf level)
  // must not reach this kernel.
  SPD_ASSERT(B.storage().level(1).kind.is_singleton() ||
                 B.storage().level(0).kind.is_dense(),
             "make_spmv_nz requires CSR or COO storage, got "
                 << B.storage().str());
  // A mid-tree split of a CSR matrix: the piece's positions are level-0
  // positions, i.e. rows, so it is a row piece.
  const bool row_positions =
      pos_level == 0 && !B.storage().level(0).kind.has_crd();
  return [a, B, c, col_var, row_positions](const PieceBounds& piece) {
    const rt::Rect1 all_cols{0, B.dims()[1] - 1};
    std::optional<rt::Rect1> cols;
    if (col_var) cols = piece.var_bound(*col_var, all_cols);
    std::optional<rt::Rect1> rows;
    rt::Rect1 range;
    if (row_positions) {
      rows = piece.dist_pos.value_or(rt::Rect1{0, B.dims()[0] - 1});
    } else {
      range = piece.dist_pos.value_or(
          rt::Rect1{0, B.storage().level(1).positions - 1});
    }
    return rt::dispatch_logged([&]<bool L>() {
      return spmv_walk<L>(a, B, c, rows, range, cols);
    });
  };
}

}  // namespace spdistal::kern
