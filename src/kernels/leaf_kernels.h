// Specialized leaf kernels for the six expressions of the paper's
// evaluation (§VI-A). Each maker captures the operand tensors and returns a
// leaf that evaluates one piece (row range or non-zero position range),
// accumulating into the (pre-zeroed) output and reporting measured work.
//
// A row piece of a CSR-like operand is just the position range of its rows
// (the level-function view of Chou et al.'s format abstraction), so each
// family has one loop body over positions: kern::walk_positions for
// matrices, walk_fibers below for 3-tensors. The _row and _nz makers differ
// only in how they name the piece's span (parents_span in coiter.h) and in
// the per-row bookkeeping they price.
//
// All kernels are validated against the general co-iteration engine and the
// dense reference oracle in tests; the compiler selects them by pattern
// (kernel_select.h) and falls back to co-iteration otherwise.
//
// Leaves are executor-agnostic and must be safe to invoke concurrently for
// different pieces: captured tensors are read-only during a launch, leaves
// capture no derived state (a *_nz leaf binary-searches `pos` once for its
// piece's first parent and then walks forward, a row piece starts at its
// first row; see ParentCursor in coiter.h), work measurement is local to
// each invocation (see work.h), and output writes either target disjoint
// subsets or accumulate under a REDUCE privilege — which the runtime
// redirects into per-task scratch buffers folded deterministically in color
// order.
//
// Kernel ABI: regions are read and written through accessor objects
// (rt::RegionAccessor<T, DIM, L> / rt::LinearAccessor<T, L>) constructed at
// the top of each leaf invocation. The accessor resolves the
// reduction-redirect indirection (an atomic load + TLS walk) exactly once,
// and each invocation picks logged (verify mode) or unlogged accessors once
// through rt::dispatch_logged, so with verify mode off the inner loops are
// plain pointer arithmetic the compiler can vectorize; a redirected output
// accessor addresses the point's bounding-box scratch buffer transparently.
// Accessors must be constructed inside the leaf body (after the executor
// installed the task's redirects), never captured across invocations.
#pragma once

#include <functional>

#include "kernels/coiter.h"
#include "tensor/tensor.h"

namespace spdistal::kern {

using Leaf = std::function<rt::WorkEstimate(const PieceBounds&)>;

// a(i) = B(i,j) * c(j), B = {Dense, Compressed}. Row range pieces.
Leaf make_spmv_row(Tensor a, Tensor B, Tensor c);
// Same computation over stored position ranges of B. B may be CSR or COO
// ({Compressed!u, Singleton}; rows read from the root crd). With `col_var`,
// stored columns outside the piece's bound for that variable are skipped
// (the inner universe axis of a non-zero x universe grid). `pos_level`
// names the split level the piece's positions index: the last level (fused
// i,j — the default) or a CSR's level 0, where positions are rows and the
// piece walks them as a row piece does (a mid-tree position split).
Leaf make_spmv_nz(Tensor a, Tensor B, Tensor c,
                  std::optional<uint32_t> col_var = std::nullopt,
                  int pos_level = -1);

// A(i,j) = B(i,k) * C(k,j), A/C dense matrices, B = {Dense, Compressed}.
// With `col_var`, the dense j loop clamps to the piece's bound for that
// variable (the axis-1 tile of a 2-D grid distribution).
Leaf make_spmm_row(Tensor A, Tensor B, Tensor C,
                   std::optional<uint32_t> col_var = std::nullopt);
// Non-zero variant (fused i,k over B): the load-balanced GPU schedule that
// replicates C (§VI-A2). `col_var` as in make_spmm_row.
Leaf make_spmm_nz(Tensor A, Tensor B, Tensor C,
                  std::optional<uint32_t> col_var = std::nullopt);

// a(i) = B(i,j) * c(j), B = bcsr(R,C). Register-tiled: each stored block
// runs an unrolled R x C FMA tile (compile-time micro-kernels for common
// block shapes, runtime-extent fallback otherwise); padded lanes are exact
// zeros so tiles never branch on occupancy. Row-coordinate pieces.
Leaf make_spmv_bcsr(Tensor a, Tensor B, Tensor c);
// A(i,j) = B(i,k) * C(k,j), B = bcsr(R,C) over (i,k), A/C dense. Each block
// row's lanes load into registers, then one contiguous j loop updates the
// row of A from the block's rows of C. `col_var` clamps j as in
// make_spmm_row.
Leaf make_spmm_bcsr(Tensor A, Tensor B, Tensor C,
                    std::optional<uint32_t> col_var = std::nullopt);

// A(i,j) = B(i,j) + C(i,j) + D(i,j), all {Dense, Compressed}; A assembled.
// Single-pass three-way union merge per row (the fused kernel whose absence
// costs PETSc/Trilinos 11.8x/38.5x in the paper).
Leaf make_spadd3_row(Tensor A, Tensor B, Tensor C, Tensor D);

// A(i,j) = B(i,j) * C(i,k) * D(k,j), B sparse, C/D dense, A assembled with
// B's pattern (positions align 1:1). With `col_var`, only B's stored columns
// inside the piece's bound for that variable are evaluated (axis-1 tile of
// a 2-D grid distribution).
Leaf make_sddmm_row(Tensor A, Tensor B, Tensor C, Tensor D,
                    std::optional<uint32_t> col_var = std::nullopt);
Leaf make_sddmm_nz(Tensor A, Tensor B, Tensor C, Tensor D,
                   std::optional<uint32_t> col_var = std::nullopt);

// A(i,j) = B(i,j,k) * c(k), B = {Dense, Compressed, Compressed} or
// {Dense, Dense, Compressed}; A = {Dense, Compressed} assembled.
Leaf make_spttv_row(Tensor A, Tensor B, Tensor c);
// Non-zero variant over B's innermost positions (fully fused i,j,k): the
// statically load-balanced GPU schedule of §VI-A2.
Leaf make_spttv_nz(Tensor A, Tensor B, Tensor c);

// A(i,l) = B(i,j,k) * C(j,l) * D(k,l), B as in SpTTV, A/C/D dense.
Leaf make_spmttkrp_row(Tensor A, Tensor B, Tensor C, Tensor D);
Leaf make_spmttkrp_nz(Tensor A, Tensor B, Tensor C, Tensor D);

// Level-1 positions (fibers) of B's rows `rows`: read from level 1's own
// pos entries of those rows when it is Compressed, row-major otherwise.
template <bool L>
rt::Rect1 fibers_of_rows(const fmt::TensorStorage& B, rt::Rect1 rows) {
  const fmt::LevelStorage& l1 = B.level(1);
  if (rows.empty()) return rt::Rect1{};
  if (l1.kind.is_compressed()) return parents_span<L>(l1, rows).positions;
  return rt::Rect1{rows.lo * l1.extent, (rows.hi + 1) * l1.extent - 1};
}

// The 3-tensor leaves' walk: calls visit(i, j, q2, first) for every stored
// position q2 of `span` at the innermost level of B (as in SpTTV), with
// (i, j) the coordinates of q2's fiber; `first` marks the first position of
// each fiber the span reaches. A row piece passes its first row as
// `first_row` (and the span of its fibers), so no `pos` outside its rows is
// read; a non-zero piece passes -1 and searches.
template <bool L, typename Visit>
void walk_fibers(const fmt::TensorStorage& B, const PosSpan& span,
                 rt::Coord first_row, Visit visit) {
  const fmt::LevelStorage& l1 = B.level(1);
  ParentCursor<L> row_at;
  rt::RegionAccessor<int32_t, 1, L> l1crd;
  if (l1.kind.is_compressed()) {
    row_at = ParentCursor<L>(l1, first_row);
    l1crd = rt::RegionAccessor<int32_t, 1, L>(*l1.crd, rt::Access::Read);
  }
  rt::Coord fiber = -1, i = 0, j = 0;
  walk_positions<L>(B.level(2), span, [&](rt::Coord q1, rt::Coord q2) {
    const bool first = q1 != fiber;
    if (first) {
      fiber = q1;
      i = l1.kind.is_compressed() ? row_at(q1) : q1 / l1.extent;
      j = l1.kind.is_compressed() ? rt::Coord{l1crd[q1]} : q1 % l1.extent;
    }
    visit(i, j, q2, first);
  });
}

}  // namespace spdistal::kern
