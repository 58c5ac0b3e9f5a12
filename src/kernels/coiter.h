// General sparse co-iteration leaf engine.
//
// Evaluates one piece of an arbitrary sum-of-products tensor index notation
// statement over Dense/Compressed storage: the universal leaf kernel the
// compiler falls back to when no specialized kernel matches. It implements
// TACO-style iteration (paper §II-C, Senanayake et al.):
//   * coordinate-value iteration: loop index variables in order, co-iterating
//     the Compressed levels that store them (driver + probers, intersection
//     semantics for products) — used with universe partitions;
//   * coordinate-position iteration: drive iteration directly over a range
//     of stored positions of one tensor's (possibly fused) levels — used
//     with non-zero partitions.
//
// Constraints (checked, with clear errors):
//   * the statement must be a sum of products (no Add under Mul);
//   * each access's Compressed levels must appear in iteration order; dense
//     tensors are exempt (random access);
//   * sparse outputs must have their pattern pre-assembled (see assembly.h).
#pragma once

#include <algorithm>
#include <optional>

#include "runtime/index_space.h"
#include "tensor/tensor.h"

namespace spdistal::kern {

// Restriction of one evaluation to a piece of the iteration space.
struct PieceBounds {
  // Coordinate-value iteration: bounds on the outermost (distributed) index
  // variable. Empty optional = full range.
  std::optional<rt::Rect1> dist_coords;
  // Additional per-variable coordinate bounds for the inner axes of a
  // multi-dimensional (grid) distribution, keyed by IndexVar id. A variable
  // absent from this list iterates its full range.
  std::vector<std::pair<uint32_t, rt::Rect1>> var_coords;
  // Coordinate-position iteration: bounds on stored positions of
  // `pos_tensor`'s level `pos_level` (the last fused level).
  std::optional<rt::Rect1> dist_pos;
  std::string pos_tensor;
  int pos_level = 0;

  // The bound recorded for variable `var_id` in var_coords, or `full`.
  rt::Rect1 var_bound(uint32_t var_id, rt::Rect1 full) const {
    for (const auto& [id, r] : var_coords) {
      if (id == var_id) full = full.intersect(r);
    }
    return full;
  }
};

// Coordinate-position iteration's parent lookup at one level that stores
// `pos` (Compressed): returns the parent position owning each child
// position of a rising sequence. Unless constructed at a known first
// parent, the first call binary-searches `pos`; later calls only step
// forward. Packing writes an empty segment as {lo, lo-1}, so pos[p].hi
// never decreases and the first p with pos[p].hi >= q owns q. Construct
// inside the leaf body (it holds an accessor).
template <bool L>
class ParentCursor {
 public:
  ParentCursor() = default;
  // `first` >= 0 starts the walk at that parent without a search: a row
  // piece's first row, which owns no position before the piece's first.
  explicit ParentCursor(const fmt::LevelStorage& level, rt::Coord first = -1)
      : pos_(*level.pos, rt::Access::Read),
        parents_(level.parent_positions),
        p_(first) {}

  // Parent of stored child position `q`; successive calls must not pass a
  // smaller q.
  rt::Coord operator()(rt::Coord q) {
    if (p_ < 0) {
      rt::Coord lo = 0;
      rt::Coord hi = parents_ - 1;
      while (lo < hi) {
        const rt::Coord mid = lo + (hi - lo) / 2;
        if (pos_[mid].hi < q) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      p_ = lo;
    }
    while (pos_[p_].hi < q) ++p_;
    return p_;
  }

 private:
  rt::RegionAccessor<rt::PosRange, 1, L> pos_;
  rt::Coord parents_ = 0;
  rt::Coord p_ = -1;  // -1 until the first call's search
};

// The stored positions a piece walks at one level that stores `pos`, and
// the parents that own them when the piece names those: a row piece names
// its rows (and reads `pos` only inside them), a non-zero piece names only
// its positions and searches for its first parent.
struct PosSpan {
  rt::Rect1 positions;
  std::optional<rt::Rect1> parents;
};

// A row piece's span: the positions owned by `parents`, which is
// [pos[parents.lo].lo, pos[parents.hi].hi] since segments are packed in
// parent order.
template <bool L>
PosSpan parents_span(const fmt::LevelStorage& level, rt::Rect1 parents) {
  if (parents.empty()) return PosSpan{rt::Rect1{}, parents};
  const rt::RegionAccessor<rt::PosRange, 1, L> pos(*level.pos,
                                                   rt::Access::Read);
  return PosSpan{rt::Rect1{pos[parents.lo].lo, pos[parents.hi].hi}, parents};
}

// Calls visit(p, q) for every stored position q of `span` at a level that
// stores `pos`, in ascending q, with p the parent owning q. The first parent
// is the span's own or found by a ParentCursor search; then each block of
// positions is marked with the parents whose segments start in it (never
// past the span's last parent), and the flat loop over the block carries
// the latest mark forward. (A nested loop over segments mispredicts its
// exit once per segment, which on short rows costs more than the work.)
// `visit` is taken by value so its captures become locals of the loop.
template <bool L, typename Visit>
void walk_positions(const fmt::LevelStorage& level, const PosSpan& span,
                    Visit visit) {
  const rt::Rect1 range = span.positions;
  if (range.empty()) return;
  constexpr rt::Coord kBlock = 256;
  const rt::RegionAccessor<rt::PosRange, 1, L> pos(*level.pos,
                                                   rt::Access::Read);
  rt::Coord p = span.parents ? span.parents->lo
                             : ParentCursor<L>(level)(range.lo);
  const rt::Coord last =
      span.parents ? span.parents->hi : level.parent_positions - 1;
  rt::Coord starts[kBlock];
  for (rt::Coord lo = range.lo; lo <= range.hi; lo += kBlock) {
    const rt::Coord n = std::min(kBlock, range.hi - lo + 1);
    std::fill(starts, starts + n, -1);
    // Ascending parents: an empty segment's mark is overwritten by the
    // parent that owns its start.
    for (rt::Coord r = p + 1; r <= last && pos[r].lo < lo + n; ++r) {
      starts[pos[r].lo - lo] = r;
    }
    rt::Coord owner = p;
    for (rt::Coord k = 0; k < n; ++k) {
      owner = std::max(owner, starts[k]);
      visit(owner, lo + k);
    }
    p = owner;
  }
}

class CoiterEngine {
 public:
  // `var_order` is the loop order (defaults to statement_vars order when
  // empty). Validates schedulability against every access.
  CoiterEngine(const Statement& stmt, std::vector<tin::IndexVar> var_order = {});

  // Evaluates the full statement (accumulating into the output's existing
  // values) restricted to `piece`. Returns measured work.
  rt::WorkEstimate run(const PieceBounds& piece) const;

  // Convenience: full-space evaluation.
  rt::WorkEstimate run() const { return run(PieceBounds{}); }

  const std::vector<tin::IndexVar>& var_order() const { return order_; }

 private:
  struct Access {
    const fmt::TensorStorage* st = nullptr;
    std::vector<tin::IndexVar> vars;      // logical order (as written)
    std::vector<uint32_t> level_var_ids;  // var id per storage level
    bool all_dense = false;
  };

  template <bool L>
  rt::WorkEstimate run_term(const tin::Expr& term,
                            const PieceBounds& piece) const;

  Statement stmt_;
  std::vector<tin::IndexVar> order_;
  Access output_;
};

// Finds the storage position of logical coordinates `coords` in `st` by
// descending its levels (binary search in Compressed segments). Returns -1
// if absent.
rt::Coord locate_position(const fmt::TensorStorage& st,
                          const std::array<rt::Coord, rt::kMaxDim>& coords);

}  // namespace spdistal::kern
