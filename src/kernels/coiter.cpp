#include "kernels/coiter.h"

#include <algorithm>

#include "kernels/work.h"

namespace spdistal::kern {

using fmt::LevelStorage;
using fmt::ModeFormat;
using fmt::TensorStorage;
using rt::Coord;
using tin::IndexVar;

namespace {

// Binary search for coordinate `c` in crd[seg.lo..seg.hi]; returns position
// or -1 (crd is sorted within a segment by construction).
template <bool L>
Coord find_in_segment(const rt::RegionAccessor<int32_t, 1, L>& crd,
                      rt::PosRange seg, Coord c) {
  Coord lo = seg.lo;
  Coord hi = seg.hi;
  while (lo <= hi) {
    const Coord mid = lo + (hi - lo) / 2;
    const Coord v = crd[mid];
    if (v == c) return mid;
    if (v < c) {
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return -1;
}

}  // namespace

namespace {

// Generic coordinate-tree locate over pluggable pos/crd lookups (shared by
// the cold free function below and the engine's hoisted-accessor hot path):
// descends Dense and Singleton levels directly, binary-searches Compressed
// segments, and backtracks over a non-unique level's duplicate run (the
// deeper Singleton coordinates disambiguate).
template <typename PosAt, typename CrdAt>
Coord locate_walk(const TensorStorage& st, int l, Coord parent,
                  const std::array<Coord, rt::kMaxDim>& coords,
                  const PosAt& pos_at, const CrdAt& crd_at) {
  if (l == st.num_levels()) return parent;
  const LevelStorage& level = st.level(l);
  const Coord c = coords[static_cast<size_t>(level.dim)];
  if (level.kind.is_dense()) {
    return locate_walk(st, l + 1, parent * level.extent + c, coords, pos_at,
                       crd_at);
  }
  if (level.kind.is_blocked() && !level.kind.has_pos()) {
    // Blocked pair, handled as a unit: find the R x C block holding
    // (i, j), then address its row-major value lane.
    const LevelStorage& blk = st.level(l + 1);
    const Coord R = level.kind.block();
    const Coord C = blk.kind.block();
    const Coord j = coords[static_cast<size_t>(blk.dim)];
    const rt::PosRange seg = pos_at(l + 1, c / R);
    if (seg.empty()) return -1;
    const Coord bj = j / C;
    Coord q = -1;
    Coord lo = seg.lo;
    Coord hi = seg.hi;
    while (lo <= hi) {
      const Coord mid = lo + (hi - lo) / 2;
      const Coord v = crd_at(l + 1, mid);
      if (v == bj) {
        q = mid;
        break;
      }
      if (v < bj) {
        lo = mid + 1;
      } else {
        hi = mid - 1;
      }
    }
    if (q < 0) return -1;
    return locate_walk(st, l + 2, q * R * C + (c % R) * C + (j % C), coords,
                       pos_at, crd_at);
  }
  if (level.kind.is_singleton()) {
    // One coordinate per position; the position is the parent's.
    if (crd_at(l, parent) != c) return -1;
    return locate_walk(st, l + 1, parent, coords, pos_at, crd_at);
  }
  const rt::PosRange seg = pos_at(l, parent);
  if (seg.empty()) return -1;
  Coord q = -1;
  {
    Coord lo = seg.lo;
    Coord hi = seg.hi;
    while (lo <= hi) {
      const Coord mid = lo + (hi - lo) / 2;
      const Coord v = crd_at(l, mid);
      if (v == c) {
        q = mid;
        break;
      }
      if (v < c) {
        lo = mid + 1;
      } else {
        hi = mid - 1;
      }
    }
  }
  if (q < 0) return -1;
  if (level.kind.unique()) {
    return locate_walk(st, l + 1, q, coords, pos_at, crd_at);
  }
  Coord lo = q;
  while (lo > seg.lo && crd_at(l, lo - 1) == c) --lo;
  Coord hi = q;
  while (hi < seg.hi && crd_at(l, hi + 1) == c) ++hi;
  for (Coord p = lo; p <= hi; ++p) {
    const Coord r = locate_walk(st, l + 1, p, coords, pos_at, crd_at);
    if (r >= 0) return r;
  }
  return -1;
}

}  // namespace

Coord locate_position(const TensorStorage& st,
                      const std::array<Coord, rt::kMaxDim>& coords) {
  // Accessors resolve the reduction-redirect once per level up front, so
  // the walk's binary-search probes index raw pointers (the kernel ABI
  // contract; spttv_nz calls this once per piece).
  std::array<rt::RegionAccessor<rt::PosRange>, rt::kMaxDim> lpos;
  std::array<rt::RegionAccessor<int32_t>, rt::kMaxDim> lcrd;
  for (int l = 0; l < st.num_levels(); ++l) {
    const LevelStorage& level = st.level(l);
    if (level.kind.has_pos()) {
      lpos[static_cast<size_t>(l)] =
          rt::RegionAccessor<rt::PosRange>(*level.pos, rt::Access::Read);
    }
    if (level.kind.has_crd()) {
      lcrd[static_cast<size_t>(l)] =
          rt::RegionAccessor<int32_t>(*level.crd, rt::Access::Read);
    }
  }
  const auto pos_at = [&](int l, Coord p) {
    return lpos[static_cast<size_t>(l)][p];
  };
  const auto crd_at = [&](int l, Coord q) {
    return Coord{lcrd[static_cast<size_t>(l)][q]};
  };
  return locate_walk(st, 0, 0, coords, pos_at, crd_at);
}

CoiterEngine::CoiterEngine(const Statement& stmt,
                           std::vector<IndexVar> var_order)
    : stmt_(stmt), order_(std::move(var_order)) {
  if (order_.empty()) order_ = tin::statement_vars(stmt_.assignment);

  auto resolve = [&](const std::string& name,
                     const std::vector<IndexVar>& vars) {
    Access a;
    const Tensor& t = stmt_.tensor(name);
    // A sparse output may not be assembled yet at compile time; its storage
    // is re-resolved at run time (after assembly) by run_term.
    a.st = t.has_storage() ? &t.storage() : nullptr;
    a.vars = vars;
    a.all_dense = t.format().all_dense();
    for (int l = 0; l < t.format().order(); ++l) {
      a.level_var_ids.push_back(
          vars[static_cast<size_t>(t.format().dim_of_level(l))].id());
    }
    return a;
  };

  // Validate: for each (non-all-dense) access, the subsequence of order_
  // restricted to its level variables must equal its level sequence.
  auto check = [&](const Access& a, const std::string& name) {
    if (a.all_dense) return;
    std::vector<uint32_t> in_order;
    for (const auto& v : order_) {
      for (uint32_t id : a.level_var_ids) {
        if (id == v.id()) in_order.push_back(id);
      }
    }
    SPD_CHECK(in_order == a.level_var_ids, ScheduleError,
              "iteration order is incompatible with the level order of "
                  << name << " (" << tin::assignment_str(stmt_.assignment)
                  << "); reorder loops or change the format");
  };

  output_ = resolve(stmt_.assignment.lhs.tensor, stmt_.assignment.lhs.vars);
  check(output_, stmt_.assignment.lhs.tensor);
  for (const auto& acc : tin::expr_accesses(stmt_.assignment.rhs)) {
    Access a = resolve(acc.tensor, acc.vars);
    check(a, acc.tensor);
  }
}

rt::WorkEstimate CoiterEngine::run(const PieceBounds& piece) const {
  rt::WorkEstimate total;
  for (const auto& term : tin::sum_of_products(stmt_.assignment.rhs)) {
    total += rt::dispatch_logged(
        [&]<bool L>() { return run_term<L>(term, piece); });
  }
  return total;
}

template <bool Logged>
rt::WorkEstimate CoiterEngine::run_term(const tin::Expr& term,
                                        const PieceBounds& piece) const {
  WorkCounter work;
  using PosAcc = rt::RegionAccessor<rt::PosRange, 1, Logged>;
  using CrdAcc = rt::RegionAccessor<int32_t, 1, Logged>;
  using ValAcc = rt::LinearAccessor<double, Logged>;

  // Resolve term accesses and the literal coefficient. Accessors for every
  // stored region are constructed here, once per term evaluation — the
  // kernel ABI's "resolve the redirect once per leaf invocation" contract —
  // so the iteration loops below index raw pointers.
  struct TermAccess {
    const TensorStorage* st;
    std::vector<uint32_t> level_var_ids;
    bool all_dense;
    std::vector<IndexVar> vars;
    ValAcc vals;
    // Per storage level; default (invalid) for Dense levels.
    std::vector<PosAcc> lpos;
    std::vector<CrdAcc> lcrd;
  };
  std::vector<TermAccess> accs;
  double coeff = 1.0;
  {
    std::function<void(const tin::Expr&)> gather = [&](const tin::Expr& e) {
      switch (e->kind) {
        case tin::ExprKind::Literal:
          coeff *= e->value;
          break;
        case tin::ExprKind::Access: {
          const Tensor& t = stmt_.tensor(e->tensor);
          TermAccess a;
          a.st = &t.storage();
          a.all_dense = t.format().all_dense();
          a.vars = e->vars;
          a.vals = ValAcc(*a.st->vals(), rt::Access::Read);
          for (int l = 0; l < t.format().order(); ++l) {
            a.level_var_ids.push_back(
                e->vars[static_cast<size_t>(t.format().dim_of_level(l))].id());
            const LevelStorage& level = a.st->level(l);
            a.lpos.emplace_back();
            a.lcrd.emplace_back();
            if (level.kind.has_pos()) {
              a.lpos.back() = PosAcc(*level.pos, rt::Access::Read);
            }
            if (level.kind.has_crd()) {
              a.lcrd.back() = CrdAcc(*level.crd, rt::Access::Read);
            }
          }
          accs.push_back(std::move(a));
          break;
        }
        case tin::ExprKind::Mul:
          for (const auto& op : e->operands) gather(op);
          break;
        case tin::ExprKind::Add:
          SPD_ASSERT(false, "Add inside product term");
      }
    };
    gather(term);
  }

  // Variable extents from tensor dims.
  std::map<uint32_t, Coord> extent;
  auto note = [&](const std::vector<IndexVar>& vars,
                  const std::vector<Coord>& dims) {
    for (size_t d = 0; d < vars.size(); ++d) {
      extent[vars[d].id()] = dims[d];
    }
  };
  note(output_.vars, stmt_.tensor(stmt_.assignment.lhs.tensor).dims());
  for (const auto& a : accs) note(a.vars, a.st->dims());

  // Per-access cursor: how many levels consumed and the current parent
  // position. The output is cursor index accs.size() when not all-dense.
  struct Cursor {
    int depth = 0;
    Coord parent = 0;
  };
  std::vector<Cursor> cur(accs.size());

  // env[k] = coordinate of order_[k].
  std::vector<Coord> env(order_.size(), 0);
  auto coord_of = [&](uint32_t var_id) -> Coord {
    for (size_t k = 0; k < order_.size(); ++k) {
      if (order_[k].id() == var_id) return env[k];
    }
    SPD_ASSERT(false, "variable not in iteration order");
    return -1;
  };

  const Tensor& out_tensor = stmt_.tensor(stmt_.assignment.lhs.tensor);
  fmt::TensorStorage& out_st =
      const_cast<Tensor&>(out_tensor).storage();
  // Output accessors: resolved once per term, *after* assembly re-resolved
  // the storage; the vals accessor is the one place a reduction redirect
  // can be in effect. The pos/crd tables keep the per-nonzero sparse-output
  // locate below off the per-element Region paths.
  const ValAcc out_vals(*out_st.vals());
  std::vector<PosAcc> out_lpos;
  std::vector<CrdAcc> out_lcrd;
  if (!output_.all_dense) {
    for (int l = 0; l < out_st.num_levels(); ++l) {
      const LevelStorage& level = out_st.level(l);
      out_lpos.emplace_back();
      out_lcrd.emplace_back();
      if (level.kind.has_pos()) {
        out_lpos.back() = PosAcc(*level.pos, rt::Access::Read);
      }
      if (level.kind.has_crd()) {
        out_lcrd.back() = CrdAcc(*level.crd, rt::Access::Read);
      }
    }
  }
  // locate_position over the hoisted output tables (same walk as the free
  // function, reading the per-term accessors).
  auto locate_out =
      [&](const std::array<Coord, rt::kMaxDim>& coords) -> Coord {
    const auto pos_at = [&](int l, Coord p) {
      return out_lpos[static_cast<size_t>(l)][p];
    };
    const auto crd_at = [&](int l, Coord q) {
      return Coord{out_lcrd[static_cast<size_t>(l)][q]};
    };
    return locate_walk(out_st, 0, 0, coords, pos_at, crd_at);
  };
  auto emit = [&]() {
    double v = coeff;
    for (size_t a = 0; a < accs.size(); ++a) {
      if (accs[a].all_dense) {
        // Linearize in storage (level) order.
        Coord pos = 0;
        const TensorStorage* st = accs[a].st;
        for (size_t l = 0; l < accs[a].level_var_ids.size(); ++l) {
          const Coord c = coord_of(accs[a].level_var_ids[l]);
          pos = pos * st->level(static_cast<int>(l)).extent + c;
        }
        v *= accs[a].vals.at(pos);
        work.fma_dense();
      } else {
        SPD_ASSERT(cur[a].depth ==
                       static_cast<int>(accs[a].level_var_ids.size()),
                   "sparse access not fully descended at emit");
        v *= accs[a].vals.at(cur[a].parent);
        work.fma_sparse();
      }
    }
    // Write into the output at its coordinates.
    if (output_.all_dense) {
      Coord pos = 0;
      for (size_t l = 0; l < output_.level_var_ids.size(); ++l) {
        const Coord c = coord_of(output_.level_var_ids[l]);
        pos = pos * out_st.level(static_cast<int>(l)).extent + c;
      }
      out_vals.at(pos) += v;
    } else {
      std::array<Coord, rt::kMaxDim> coords{};
      for (size_t d = 0; d < output_.vars.size(); ++d) {
        coords[d] = coord_of(output_.vars[d].id());
      }
      const Coord pos = locate_out(coords);
      SPD_ASSERT(pos >= 0,
                 "sparse output pattern is missing a computed coordinate; "
                 "run assembly first");
      out_vals.at(pos) += v;
      work.stream(1, 12.0);
    }
  };

  // Advances access `a`'s cursor through every level whose variable has a
  // known coordinate in env up to var order position `upto` (exclusive).
  // Returns false if a Compressed level lacks the coordinate.
  auto descend = [&](size_t a, size_t upto) -> bool {
    while (cur[a].depth < static_cast<int>(accs[a].level_var_ids.size())) {
      const uint32_t vid =
          accs[a].level_var_ids[static_cast<size_t>(cur[a].depth)];
      bool known = false;
      size_t order_pos = 0;
      for (size_t k = 0; k < upto; ++k) {
        if (order_[k].id() == vid) {
          known = true;
          order_pos = k;
          break;
        }
      }
      if (!known) break;
      const LevelStorage& level =
          accs[a].st->level(cur[a].depth);
      const Coord c = env[order_pos];
      if (level.kind.is_dense()) {
        cur[a].parent = cur[a].parent * level.extent + c;
      } else if (level.kind.is_blocked() && !level.kind.has_pos()) {
        // BlockedDense: the row coordinate alone cannot address a value
        // lane; carry it raw and let the BlockedCompressed descent below
        // resolve (block row, block column, intra-block offsets) jointly.
        cur[a].parent = c;
      } else if (level.kind.is_blocked()) {
        const size_t depth = static_cast<size_t>(cur[a].depth);
        const Coord R = accs[a].st->level(cur[a].depth - 1).kind.block();
        const Coord C = level.kind.block();
        const Coord i = cur[a].parent;  // raw row coord from BlockedDense
        const rt::PosRange seg = accs[a].lpos[depth][i / R];
        work.segment();
        if (seg.empty()) return false;
        const Coord q = find_in_segment(accs[a].lcrd[depth], seg, c / C);
        if (q < 0) return false;
        cur[a].parent = q * R * C + (i % R) * C + (c % C);
      } else if (level.kind.is_singleton()) {
        // Coordinate-per-position: the cursor's position carries over; the
        // stored coordinate either matches or this branch is dead.
        const size_t depth = static_cast<size_t>(cur[a].depth);
        work.stream(1, 4.0);
        if (Coord{accs[a].lcrd[depth][cur[a].parent]} != c) return false;
      } else {
        // Probing a non-unique Compressed level by binary search would pick
        // an arbitrary duplicate; such levels must drive their variable.
        SPD_CHECK(level.kind.unique(), ScheduleError,
                  "cannot probe the non-unique level of "
                      << accs[a].st->name()
                      << "; its variable must be driven by this tensor "
                         "(reorder loops or change the format)");
        const size_t depth = static_cast<size_t>(cur[a].depth);
        const rt::PosRange seg = accs[a].lpos[depth][cur[a].parent];
        work.segment();
        if (seg.empty()) return false;
        const Coord q = find_in_segment(accs[a].lcrd[depth], seg, c);
        if (q < 0) return false;
        cur[a].parent = q;
      }
      ++cur[a].depth;
    }
    return true;
  };

  // Recursive coordinate-value iteration from var order position `k`,
  // assuming all cursors are descended through vars < k.
  std::function<void(size_t)> iterate = [&](size_t k) {
    if (k == order_.size()) {
      emit();
      return;
    }
    const IndexVar& v = order_[k];
    // If no access (and not the output) uses v, it contributes a factor of
    // extent via plain iteration; usually every var is used.
    // Find a sparse driver whose next level stores v (Compressed or
    // Singleton). A non-unique level cannot be probed, so it takes priority
    // as the driver; two non-unique levels on one variable cannot co-iterate.
    int driver = -1;
    bool driver_nonunique = false;
    for (size_t a = 0; a < accs.size(); ++a) {
      if (accs[a].all_dense) continue;
      if (cur[a].depth < static_cast<int>(accs[a].level_var_ids.size()) &&
          accs[a].level_var_ids[static_cast<size_t>(cur[a].depth)] == v.id() &&
          accs[a].st->level(cur[a].depth).kind.has_crd()) {
        const bool nu = !accs[a].st->level(cur[a].depth).kind.unique();
        SPD_CHECK(!(nu && driver_nonunique), ScheduleError,
                  "cannot co-iterate two non-unique levels over "
                      << v.name());
        if (driver < 0 || (nu && !driver_nonunique)) {
          driver = static_cast<int>(a);
          driver_nonunique = nu;
        }
      }
    }
    // Piece restriction: the legacy outermost-variable bound plus any
    // var-keyed bound from a multi-axis (grid) distribution.
    rt::Rect1 bound{0, extent.count(v.id()) ? extent.at(v.id()) - 1 : -1};
    bool restricted = false;
    if (k == 0 && piece.dist_coords.has_value()) {
      bound = bound.intersect(*piece.dist_coords);
      restricted = true;
    }
    for (const auto& [vid, r] : piece.var_coords) {
      if (vid == v.id()) {
        bound = bound.intersect(r);
        restricted = true;
      }
    }
    const bool restrict0 = restricted;
    const Coord rlo = bound.lo;
    const Coord rhi = bound.hi;
    const std::vector<Cursor> saved = cur;
    if (driver >= 0) {
      const auto& d = accs[static_cast<size_t>(driver)];
      const size_t ddepth =
          static_cast<size_t>(cur[static_cast<size_t>(driver)].depth);
      const LevelStorage& dl = d.st->level(static_cast<int>(ddepth));
      auto visit = [&](Coord q, Coord c) {
        env[k] = c;
        cur = saved;
        cur[static_cast<size_t>(driver)].parent = q;
        cur[static_cast<size_t>(driver)].depth += 1;
        bool alive = true;
        for (size_t a = 0; a < accs.size() && alive; ++a) {
          if (static_cast<int>(a) == driver || accs[a].all_dense) continue;
          alive = descend(a, k + 1);
        }
        if (alive) iterate(k + 1);
      };
      if (dl.kind.is_singleton()) {
        // Coordinate-per-position: the level yields exactly one coordinate
        // for the current position, shared with the parent.
        const Coord q = saved[static_cast<size_t>(driver)].parent;
        const Coord c = d.lcrd[ddepth][q];
        work.stream(1, 4.0);
        if (!restrict0 || (c >= rlo && c <= rhi)) visit(q, c);
      } else if (dl.kind.is_blocked()) {
        // BlockedCompressed driver: each stored block expands to C column
        // coordinates (clamped to the extent); padded lanes hold exact
        // zeros, so visiting them is numerically a no-op.
        const Coord R = d.st->level(static_cast<int>(ddepth) - 1).kind.block();
        const Coord C = dl.kind.block();
        const Coord i = saved[static_cast<size_t>(driver)].parent;
        const rt::PosRange seg = d.lpos[ddepth][i / R];
        work.segment();
        const Coord r = i % R;
        for (Coord q = seg.lo; q <= seg.hi; ++q) {
          const Coord bj = d.lcrd[ddepth][q];
          work.stream(1, 4.0);
          for (Coord cc = 0; cc < C; ++cc) {
            const Coord j = bj * C + cc;
            if (j >= dl.extent) break;
            if (restrict0 && (j < rlo || j > rhi)) continue;
            visit(q * R * C + r * C + cc, j);
          }
        }
      } else {
        const rt::PosRange seg =
            d.lpos[ddepth][saved[static_cast<size_t>(driver)].parent];
        work.segment();
        for (Coord q = seg.lo; q <= seg.hi; ++q) {
          const Coord c = d.lcrd[ddepth][q];
          work.stream(1, 4.0);
          if (restrict0 && (c < rlo || c > rhi)) continue;
          visit(q, c);
        }
      }
      cur = saved;
      return;
    }
    // Dense loop over the variable's extent.
    SPD_ASSERT(rhi >= -1, "unknown extent for variable " << v.name());
    for (Coord c = rlo; c <= rhi; ++c) {
      env[k] = c;
      cur = saved;
      bool alive = true;
      for (size_t a = 0; a < accs.size() && alive; ++a) {
        if (accs[a].all_dense) continue;
        alive = descend(a, k + 1);
      }
      if (alive) iterate(k + 1);
    }
    cur = saved;
  };

  if (!piece.dist_pos.has_value()) {
    // Coordinate-value iteration over the whole ordered loop nest.
    iterate(0);
    return work.done();
  }

  // --- Coordinate-position iteration ----------------------------------------
  // Drive over stored positions [dist_pos] of the split tensor's level
  // `pos_level`; reconstruct the fused coordinates, then continue normal
  // iteration below the split.
  int split = -1;
  for (size_t a = 0; a < accs.size(); ++a) {
    if (accs[a].st->name() == piece.pos_tensor) split = static_cast<int>(a);
  }
  SPD_CHECK(split >= 0, ScheduleError,
            "position-split tensor " << piece.pos_tensor
                                     << " does not appear in this term");
  const TermAccess& sa = accs[static_cast<size_t>(split)];
  const int L = piece.pos_level;
  SPD_CHECK(L < static_cast<int>(sa.level_var_ids.size()), ScheduleError,
            "split level out of range");
  for (int l = 0; l <= L; ++l) {
    const ModeFormat mf = sa.st->level(l).kind;
    SPD_CHECK(!mf.is_blocked(), ScheduleError,
              "position-space iteration cannot split the "
                  << mf.str() << " level of " << sa.st->name()
                  << ": block positions address R*C value lanes; use "
                     "divide (coordinate space) instead");
  }
  // The first L+1 iteration variables must be the split tensor's leading
  // level variables.
  for (int l = 0; l <= L; ++l) {
    SPD_CHECK(order_[static_cast<size_t>(l)].id() ==
                  sa.level_var_ids[static_cast<size_t>(l)],
              ScheduleError,
              "position-space iteration requires the split tensor's leading "
              "variables to be outermost");
  }

  // Parent cursors of the Compressed levels below the root (Dense parents
  // are q / extent, Singleton positions are the parent's own). Positions
  // rise with q at every level, so each cursor only steps forward.
  std::vector<ParentCursor<Logged>> parent_at(static_cast<size_t>(L + 1));
  for (int l = 1; l <= L; ++l) {
    const LevelStorage& level = sa.st->level(l);
    if (level.kind.is_compressed()) {
      parent_at[static_cast<size_t>(l)] = ParentCursor<Logged>(level);
    }
  }

  const std::vector<Cursor> init = cur;
  for (Coord q = piece.dist_pos->lo; q <= piece.dist_pos->hi; ++q) {
    // Reconstruct positions per level from the bottom up.
    std::array<Coord, rt::kMaxDim> pos_at{};
    pos_at[static_cast<size_t>(L)] = q;
    for (int l = L; l > 0; --l) {
      const LevelStorage& level = sa.st->level(l);
      const Coord p = pos_at[static_cast<size_t>(l)];
      pos_at[static_cast<size_t>(l - 1)] =
          level.kind.is_compressed()  ? parent_at[static_cast<size_t>(l)](p)
          : level.kind.is_singleton() ? p
                                      : p / level.extent;
    }
    // Coordinates per fused level, clamped mid-chain against any var-keyed
    // piece bounds (inner universe axes of a grid may restrict a fused
    // variable's coordinates).
    bool ok = true;
    for (int l = 0; l <= L && ok; ++l) {
      const LevelStorage& level = sa.st->level(l);
      const Coord p = pos_at[static_cast<size_t>(l)];
      const Coord c = level.kind.has_crd()
                          ? Coord{sa.lcrd[static_cast<size_t>(l)][p]}
                          : p % level.extent;
      env[static_cast<size_t>(l)] = c;
      for (const auto& [vid, r] : piece.var_coords) {
        if (vid == order_[static_cast<size_t>(l)].id() &&
            (c < r.lo || c > r.hi)) {
          ok = false;
        }
      }
    }
    work.stream(L + 1, 8.0);
    if (!ok) continue;
    cur = init;
    cur[static_cast<size_t>(split)].depth = L + 1;
    cur[static_cast<size_t>(split)].parent = q;
    bool alive = true;
    for (size_t a = 0; a < accs.size() && alive; ++a) {
      if (static_cast<int>(a) == split || accs[a].all_dense) continue;
      alive = descend(a, static_cast<size_t>(L + 1));
    }
    if (alive) iterate(static_cast<size_t>(L + 1));
  }
  return work.done();
}

}  // namespace spdistal::kern
