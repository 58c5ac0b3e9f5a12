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
// position of a rising sequence. The first call binary-searches `pos`;
// later calls only step forward. Packing writes an empty segment as
// {lo, lo-1}, so pos[p].hi never decreases and the first p with
// pos[p].hi >= q owns q. Construct inside the leaf body (it holds an
// accessor).
class ParentCursor {
 public:
  ParentCursor() = default;
  explicit ParentCursor(const fmt::LevelStorage& level)
      : pos_(*level.pos, rt::Access::Read), parents_(level.parent_positions) {}

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
  rt::RegionAccessor<rt::PosRange> pos_;
  rt::Coord parents_ = 0;
  rt::Coord p_ = -1;  // -1 until the first call's search
};

// Calls visit(p, q) for every stored position q of `range` at a level that
// stores `pos`, in ascending q, with p the parent owning q. A ParentCursor
// finds the first parent; then each block of positions is marked with the
// parents whose segments start in it, and the flat loop over the block
// carries the latest mark forward. (A nested loop over segments mispredicts
// its exit once per segment, which on short rows costs more than the work.)
// `visit` is taken by value so its captures become locals of the loop.
template <typename Visit>
void walk_positions(const fmt::LevelStorage& level, rt::Rect1 range,
                    Visit visit) {
  if (range.empty()) return;
  constexpr rt::Coord kBlock = 256;
  const rt::RegionAccessor<rt::PosRange> pos(*level.pos, rt::Access::Read);
  const rt::Coord parents = level.parent_positions;
  rt::Coord starts[kBlock];
  rt::Coord p = ParentCursor(level)(range.lo);
  for (rt::Coord lo = range.lo; lo <= range.hi; lo += kBlock) {
    const rt::Coord n = std::min(kBlock, range.hi - lo + 1);
    std::fill(starts, starts + n, -1);
    // Ascending parents: an empty segment's mark is overwritten by the
    // parent that owns its start.
    for (rt::Coord r = p + 1; r < parents && pos[r].lo < lo + n; ++r) {
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
