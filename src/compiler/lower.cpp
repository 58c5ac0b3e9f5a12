#include "compiler/lower.h"

#include <algorithm>
#include <optional>

#include "autosched/autosched.h"
#include "common/str_util.h"
#include "compiler/kernel_select.h"
#include "kernels/assembly.h"
#include "obs/obs.h"
#include "tdn/tdn.h"
#include "verify/lint.h"

namespace spdistal::comp {

using fmt::LevelFuncs;
using fmt::LevelPartitions;
using fmt::ModeFormat;
using fmt::TensorPartition;
using rt::Coord;
using rt::Partition;
using rt::Privilege;
using tin::IndexVar;

CompiledKernel CompiledKernel::compile(const Statement& stmt,
                                       const rt::Machine& machine) {
  const Tensor& out = stmt.tensor(stmt.assignment.lhs.tensor);
  if (out.schedule().commands().empty()) {
    // No schedule was recorded: compile with a searched one. The plan is
    // deliberately not written back to the tensor — a recorded schedule is
    // machine-specific, and silently replaying it on a different machine
    // would bypass the search (recompiles are cached per machine anyway).
    // Tensor::autoschedule() records explicitly. A *partial* schedule
    // (commands but no distribute()) is a user mistake, not a request for
    // search — it falls through to the clear ScheduleError below.
    return compile(stmt, autosched::autoschedule(stmt, machine), machine);
  }
  return compile(stmt, out.schedule(), machine);
}

CompiledKernel CompiledKernel::compile(const Statement& stmt,
                                       const sched::Schedule& schedule,
                                       const rt::Machine& machine) {
  // Verify mode: lint the schedule against the statement and machine
  // before any lowering analysis, so illegal combinations are rejected
  // with a message naming the offending directive rather than a failure
  // deep inside co-iteration or partitioning.
  if (verify::enabled()) verify::lint_or_throw(stmt, schedule, machine);

  CompiledKernel ck;
  ck.stmt_ = stmt;
  ck.schedule_ = schedule;
  ck.machine_ = machine;

  const std::vector<IndexVar> dvs = schedule.distributed_vars();
  SPD_CHECK(!dvs.empty(), ScheduleError,
            "schedule must distribute() an index variable: "
                << stmt.str());
  ck.position_space_ = schedule.distributed_is_position_space();
  ck.pieces_ = 1;
  ck.grid_pieces_.clear();
  for (size_t a = 0; a < dvs.size(); ++a) {
    // Non-zero blocks can only drive the outermost loop: inner grid axes
    // must be universe (coordinate-block) divides.
    SPD_CHECK(a == 0 || !schedule.distributed_is_position_space(dvs[a]),
              ScheduleError,
              "only the first distributed axis may be position-space: "
                  << stmt.str());
    const int p = schedule.distributed_pieces(dvs[a]);
    SPD_CHECK(p >= 1, ScheduleError, "non-positive piece count");
    ck.grid_pieces_.push_back(p);
    ck.dist_source_vars_.push_back(schedule.distributed_source(dvs[a]));
    ck.pieces_ *= p;
  }
  ck.dist_source_var_ = ck.dist_source_vars_[0];

  if (ck.position_space_) {
    // Position-space distribution cannot express union co-iteration (the
    // paper: "SpAdd3 on CSR matrices is incompatible with the non-zero
    // splitting scheduling transformation").
    SPD_CHECK(tin::is_pure_product(stmt.assignment.rhs), ScheduleError,
              "position-space (non-zero) distribution is incompatible with "
              "additions (union co-iteration): "
                  << stmt.str());
    ck.split_tensor_ = schedule.position_split_tensor();
    ck.fused_sources_ = schedule.fused_sources(ck.dist_source_var_);
    if (ck.fused_sources_.empty()) {
      ck.fused_sources_ = {ck.dist_source_var_};
    }
    // The fused variables must name the split tensor's leading storage
    // levels, in storage order.
    const std::vector<IndexVar> leading = fused_level_vars(
        stmt, ck.split_tensor_, static_cast<int>(ck.fused_sources_.size()));
    SPD_CHECK(!leading.empty(), ScheduleError,
              "position-split tensor " << ck.split_tensor_
                                       << " is not read by " << stmt.str());
    SPD_CHECK(leading == ck.fused_sources_, ScheduleError,
              "fused variables must name the leading storage dimensions of "
                  << ck.split_tensor_);
    ck.split_level_ = static_cast<int>(ck.fused_sources_.size()) - 1;
    // Blocked positions address R*C value lanes (a position range is not a
    // value range), so they do not support the equal-position split
    // contract.
    {
      const Tensor& split_t = stmt.tensor(ck.split_tensor_);
      for (int l = 0; l <= ck.split_level_; ++l) {
        const fmt::ModeFormat mf = split_t.format().mode(l);
        SPD_CHECK(!mf.is_blocked(), ScheduleError,
                  "divide_pos cannot split the " << mf.str() << " level of "
                      << ck.split_tensor_
                      << "; use divide (coordinate space) for blocked "
                         "formats");
      }
    }
    // Inner universe axes of a non-zero x universe grid: any statement
    // variable not consumed by the position split.
    const auto vars = tin::statement_vars(stmt.assignment);
    for (size_t a = 1; a < ck.dist_source_vars_.size(); ++a) {
      const IndexVar& u = ck.dist_source_vars_[a];
      SPD_CHECK(std::find(vars.begin(), vars.end(), u) != vars.end(),
                ScheduleError, "distributed variable " << u.name()
                                                       << " is not used in "
                                                       << stmt.str());
      SPD_CHECK(std::find(ck.fused_sources_.begin(), ck.fused_sources_.end(),
                          u) == ck.fused_sources_.end(),
                ScheduleError,
                "variable " << u.name()
                            << " is fused into the position split and cannot "
                               "be distributed on another axis");
      for (size_t b = 1; b < a; ++b) {
        SPD_CHECK(!(ck.dist_source_vars_[b] == u), ScheduleError,
                  "variable " << u.name() << " is distributed on two axes");
      }
    }
  } else {
    // The axis-0 distributed variable must be iterated outermost; our leaves
    // assume so (as do the paper's schedules). Inner axes may name any other
    // statement variable — their blocks restrict iteration per piece.
    const auto vars = tin::statement_vars(stmt.assignment);
    SPD_CHECK(!vars.empty() && vars[0] == ck.dist_source_var_, ScheduleError,
              "only outermost-variable distribution is supported (got "
                  << ck.dist_source_var_.name() << " for " << stmt.str()
                  << ")");
    for (size_t a = 1; a < ck.dist_source_vars_.size(); ++a) {
      const IndexVar& v = ck.dist_source_vars_[a];
      SPD_CHECK(std::find(vars.begin(), vars.end(), v) != vars.end(),
                ScheduleError, "distributed variable " << v.name()
                                                       << " is not used in "
                                                       << stmt.str());
      for (size_t b = 0; b < a; ++b) {
        SPD_CHECK(!(ck.dist_source_vars_[b] == v), ScheduleError,
                  "variable " << v.name() << " is distributed on two axes");
      }
    }
  }

  auto unit = schedule.leaf_parallel_unit();
  if (unit.has_value() && *unit == sched::ParallelUnit::CPUThread) {
    ck.leaf_threads_ = machine.config().cores_per_node;
  } else {
    ck.leaf_threads_ = 1;
  }

  SelectedLeaf leaf = select_leaf(stmt, ck.position_space_, ck.split_tensor_,
                                  ck.position_space_ ? ck.split_level_ : -1,
                                  ck.dist_source_vars_);
  ck.leaf_ = leaf.fn;
  ck.leaf_name_ = leaf.name;
  // Which leaf implementation the co-iteration dispatch picked ("coiter"
  // is the general engine; the rest are specialized kernels).
  obs::Metrics::global().counter("kernel_select." + ck.leaf_name_).add(1);
  return ck;
}

namespace {

// The logical dimension at which tensor `name` uses `v`, or -1.
int dim_of_var(const Statement& stmt, const std::string& name,
               const IndexVar& v) {
  auto scan = [&](const tin::Access& a) -> int {
    if (a.tensor != name) return -1;
    for (size_t d = 0; d < a.vars.size(); ++d) {
      if (a.vars[d] == v) return static_cast<int>(d);
    }
    return -1;
  };
  int d = scan(stmt.assignment.lhs);
  if (d >= 0) return d;
  for (const auto& a : tin::expr_accesses(stmt.assignment.rhs)) {
    d = scan(a);
    if (d >= 0) return d;
  }
  return -1;
}

// Builds per-color "needed coordinate" subsets of a 1-D dense operand from
// a partition of a Compressed level's crd positions: each color needs
// exactly the coordinate values its piece stores (e.g. the halo of c in a
// banded SpMV). This is the fine-grained data movement Legion's dependent
// partitioning infers (§II-C).
Partition needed_coords_partition(const fmt::LevelStorage& sl,
                                  const Partition& crd_part,
                                  const rt::IndexSpace& vals_space,
                                  int pieces) {
  std::vector<rt::IndexSubset> needed(static_cast<size_t>(pieces),
                                      rt::IndexSubset(1));
  for (int c = 0; c < pieces; ++c) {
    std::vector<Coord> vals;
    for (const auto& r : crd_part.subset(c).rects()) {
      for (Coord q = r.lo[0]; q <= r.hi[0]; ++q) {
        vals.push_back((*sl.crd)[q]);
      }
    }
    std::sort(vals.begin(), vals.end());
    auto& out = needed[static_cast<size_t>(c)];
    for (size_t k = 0; k < vals.size();) {
      Coord lo = vals[k];
      Coord hi = lo;
      while (k < vals.size() && vals[k] <= hi + 1) {
        hi = std::max(hi, vals[k]);
        ++k;
      }
      out.add(rt::RectN::make1(lo, hi));
    }
    out.normalize();
  }
  return Partition(vals_space, std::move(needed));
}

}  // namespace

std::unique_ptr<Instance> CompiledKernel::instantiate(
    rt::Runtime& runtime) const {
  // Non-owning: the caller keeps the runtime alive past the Instance.
  return instantiate(std::shared_ptr<rt::Runtime>(&runtime,
                                                  [](rt::Runtime*) {}));
}

std::unique_ptr<Instance> CompiledKernel::instantiate(
    std::shared_ptr<rt::Runtime> runtime_sp) const {
  SPD_ASSERT(runtime_sp != nullptr, "instantiate requires a runtime");
  OBS_SPAN("compiler", "instantiate " + leaf_name_);
  rt::Runtime& runtime = *runtime_sp;
  // Instance setup overlaps trailing execution: partition construction is
  // pure host-side work over immutable coordinate-tree metadata (launches
  // only ever write vals data), so it runs while earlier launches drain on
  // the worker pool. The runtime is only drained at the points that mutate
  // shared state or charge simulated costs — output assembly below, and the
  // placement installation at the end (set_placement drains internally).
  auto inst = std::unique_ptr<Instance>(new Instance());
  inst->runtime_ = std::move(runtime_sp);
  inst->kernel_ = this;
  Statement stmt = stmt_;  // shares tensor handles
  inst->output_ = stmt.tensor(stmt.assignment.lhs.tensor);
  PlanTrace& trace = inst->trace_;

  // --- Sparse output assembly (two-phase, §V-B) ------------------------------
  bool pattern_preserved = false;
  if (kern::needs_assembly(stmt)) {
    // Assembly replaces the output's storage and charges symbolic-phase
    // costs: drain in-flight launches so accounting stays in submission
    // order and nothing still reads the old pattern.
    runtime.flush();
    kern::AssemblyResult res;
    {
      OBS_SPAN("compiler", "instantiate.assemble");
      res = kern::assemble_output(stmt);
    }
    pattern_preserved = res.pattern_preserved;
    trace.append(PlanOpKind::LeafKernel,
                 strprintf("assemble %s: symbolic phase, %lld output "
                           "non-zeros",
                           inst->output_.name().c_str(),
                           static_cast<long long>(res.output_nnz)));
    // Symbolic execution runs once, distributed; charge each piece's share
    // to the processor that will own it (grid-aware, same mapping as the
    // compute launch below).
    rt::IndexLaunch shape_only;
    shape_only.domain = pieces_;
    shape_only.domain_shape = grid_pieces_;
    const std::string asm_name = "assemble " + inst->output_.name();
    for (int p = 0; p < pieces_; ++p) {
      rt::WorkEstimate w{res.symbolic_work.flops / pieces_,
                         res.symbolic_work.bytes / pieces_};
      runtime.sim().run_task(runtime.proc_for_point(p, shape_only), w,
                             leaf_threads_, 0.0, asm_name.c_str());
    }
  }

  // --- Partitioning phase (Figure 9a) ----------------------------------------
  std::optional<obs::Span> partitions_span;
  partitions_span.emplace("compiler", "instantiate.partitions");
  auto own = [&](Partition p) -> Partition* {
    inst->parts_.push_back(std::make_unique<Partition>(std::move(p)));
    return inst->parts_.back().get();
  };

  rt::IndexLaunch& launch = inst->launch_;
  launch.name = leaf_name_;
  launch.domain = pieces_;
  launch.leaf_threads = leaf_threads_;

  // Adds requirements for a sparse tensor partitioned by `tp`. When the
  // distributed (seed) level of a universe distribution stores coordinates,
  // the leaf scans that level's entire crd array and filters by the piece's
  // coordinate block (coiter's non-unique/driver loop), so `scan_level`
  // declares its crd whole-region — the partitioned subset would
  // under-declare what every point actually reads. A position split's leaf
  // binary-searches the complete pos array of every Compressed level at or
  // above the split for its piece's first parent, so `whole_pos_upto`
  // declares those pos regions whole.
  auto add_sparse_reqs = [&](const fmt::TensorStorage& st,
                             const TensorPartition& tp, Privilege vals_priv,
                             Privilege meta_priv, int scan_level = -1,
                             int whole_pos_upto = -1) {
    launch.reqs.push_back(
        rt::RegionReq{st.vals(), own(tp.vals_part), vals_priv});
    for (int l = 0; l < st.num_levels(); ++l) {
      const auto& level = st.level(l);
      if (!level.kind.has_crd()) continue;
      launch.reqs.push_back(rt::RegionReq{
          level.crd,
          l == scan_level
              ? nullptr
              : own(tp.level_parts[static_cast<size_t>(l)]),
          meta_priv});
      if (!level.kind.has_pos()) continue;  // Singleton: crd only
      if (l == 0 || l <= whole_pos_upto) {
        launch.reqs.push_back(rt::RegionReq{level.pos, nullptr, meta_priv});
      } else {
        launch.reqs.push_back(rt::RegionReq{
            level.pos,
            own(rt::copy_partition(
                tp.level_parts[static_cast<size_t>(l - 1)],
                level.pos->space())),
            meta_priv});
      }
    }
  };
  // Adds whole-region (replicated) requirements for a tensor.
  auto add_replicated_reqs = [&](const fmt::TensorStorage& st,
                                 Privilege priv) {
    launch.reqs.push_back(rt::RegionReq{st.vals(), nullptr, priv});
    for (int l = 0; l < st.num_levels(); ++l) {
      const auto& level = st.level(l);
      if (level.kind.has_crd()) {
        launch.reqs.push_back(
            rt::RegionReq{level.crd, nullptr, Privilege::RO});
      }
      if (level.kind.has_pos()) {
        launch.reqs.push_back(
            rt::RegionReq{level.pos, nullptr, Privilege::RO});
      }
    }
  };

  inst->piece_bounds_.resize(static_cast<size_t>(pieces_));

  // Per-axis equal coordinate blocks of each universe-distributed source
  // variable; piece colors enumerate the axis blocks row-major (the 2-D
  // grid of the paper's Machine(Grid(x, y)) schedules when two variables
  // distribute). A position-space axis 0 uses non-zero ranges instead,
  // computed in its branch below.
  const int axes = static_cast<int>(dist_source_vars_.size());
  std::vector<std::vector<rt::Rect1>> axis_bounds(static_cast<size_t>(axes));
  for (int a = position_space_ ? 1 : 0; a < axes; ++a) {
    const IndexVar& v = dist_source_vars_[static_cast<size_t>(a)];
    const Coord extent = var_extent(stmt, v);
    SPD_ASSERT(extent >= 0,
               "variable " << v.name() << " not used in statement");
    axis_bounds[static_cast<size_t>(a)] =
        tdn::equal_bounds(extent, grid_pieces_[static_cast<size_t>(a)]);
  }
  // Block index of color `c` along axis `a` (row-major decomposition).
  auto axis_index = [&](int c, int a) {
    int rest = c;
    for (int b = axes - 1; b > a; --b) {
      rest /= grid_pieces_[static_cast<size_t>(b)];
    }
    return rest % grid_pieces_[static_cast<size_t>(a)];
  };
  auto block_of = [&](int c, int a) {
    return axis_bounds[static_cast<size_t>(a)]
                      [static_cast<size_t>(axis_index(c, a))];
  };
  // Inner universe axes restrict their variable per piece in both
  // iteration styles.
  for (int c = 0; c < pieces_; ++c) {
    auto& pb = inst->piece_bounds_[static_cast<size_t>(c)];
    for (int a = 1; a < axes; ++a) {
      pb.var_coords.push_back(
          {dist_source_vars_[static_cast<size_t>(a)].id(), block_of(c, a)});
    }
  }
  launch.domain_shape = grid_pieces_;

  if (!position_space_) {
    // === Coordinate-value iteration: universe partitions =====================
    for (int c = 0; c < pieces_; ++c) {
      inst->piece_bounds_[static_cast<size_t>(c)].dist_coords =
          block_of(c, 0);
    }
    if (axes == 1) {
      trace.append(PlanOpKind::DistributedFor,
                   strprintf("distributed for %so in [0, %d) over %s blocks",
                             dist_source_var_.name().c_str(), pieces_,
                             dist_source_var_.name().c_str()));
    } else {
      std::vector<std::string> shape, names;
      for (int a = 0; a < axes; ++a) {
        shape.push_back(
            std::to_string(grid_pieces_[static_cast<size_t>(a)]));
        names.push_back(dist_source_vars_[static_cast<size_t>(a)].name() +
                        "o");
      }
      trace.append(PlanOpKind::DistributedFor,
                   strprintf("distributed for (%s) over %s grid blocks",
                             join(names, ", ").c_str(),
                             join(shape, "x").c_str()));
    }

    // First pass: sparse and var-partitioned tensors; remember each sparse
    // tensor's coordinate-tree partition so the second pass can derive the
    // data other operands actually need (the "infers what data to
    // communicate" behavior of §II-C).
    std::map<std::string, TensorPartition> sparse_tps;
    for (const auto& [name, tensor] : stmt.bindings) {
      const bool is_output = name == stmt.assignment.lhs.tensor;
      // Which tensor dimension (if any) each distribution axis indexes.
      std::vector<int> axis_dim(static_cast<size_t>(axes));
      int indexed_axes = 0;
      for (int a = 0; a < axes; ++a) {
        axis_dim[static_cast<size_t>(a)] =
            dim_of_var(stmt, name, dist_source_vars_[static_cast<size_t>(a)]);
        if (axis_dim[static_cast<size_t>(a)] >= 0) ++indexed_axes;
      }
      const fmt::TensorStorage& st = tensor.storage();
      if (indexed_axes == 0) continue;  // second pass
      if (tensor.format().all_dense()) {
        if (axes == 2 && indexed_axes == 2 &&
            st.vals()->space().dim() == 2 &&
            tensor.format().level_of_dim(axis_dim[0]) == 0 &&
            tensor.format().level_of_dim(axis_dim[1]) == 1) {
          // The exact Figure 4c case — px x py tiles of a matrix, colors
          // row-major — is the runtime's 2-D grid tiler.
          Partition grid = rt::partition_grid2(
              st.vals()->space(), grid_pieces_[0], grid_pieces_[1]);
          launch.reqs.push_back(rt::RegionReq{
              st.vals(), own(std::move(grid)),
              is_output ? Privilege::WO : Privilege::RO});
          continue;
        }
        // Cross-product of the axis blocks: a true grid partition when every
        // axis indexes the tensor (Figure 4c tiles), a row/column-block
        // partition replicated across the remaining axes otherwise.
        std::vector<rt::RectN> tiles;
        tiles.reserve(static_cast<size_t>(pieces_));
        for (int c = 0; c < pieces_; ++c) {
          rt::RectN t = st.vals()->space().bounds();
          for (int a = 0; a < axes; ++a) {
            const int dim = axis_dim[static_cast<size_t>(a)];
            if (dim < 0) continue;
            const int level = tensor.format().level_of_dim(dim);
            const rt::Rect1 b = block_of(c, a);
            t.lo[level] = std::max(t.lo[level], b.lo);
            t.hi[level] = std::min(t.hi[level], b.hi);
          }
          tiles.push_back(t);
        }
        Partition grid = rt::partition_by_bounds(st.vals()->space(), tiles);
        // Pieces replicated across an axis that does not index the output
        // write overlapping subsets, which must merge by reduction.
        const Privilege out_priv =
            indexed_axes == axes ? Privilege::WO : Privilege::REDUCE;
        launch.reqs.push_back(rt::RegionReq{
            st.vals(), own(std::move(grid)),
            is_output ? out_priv : Privilege::RO});
        continue;
      }
      // Sparse: partition the coordinate tree along the first axis indexing
      // it; further axes restrict iteration through the leaf's piece bounds
      // (their pieces read overlapping subsets of this tree).
      int part_axis = 0;
      while (axis_dim[static_cast<size_t>(part_axis)] < 0) ++part_axis;
      const int dim = axis_dim[static_cast<size_t>(part_axis)];
      const int level = tensor.format().level_of_dim(dim);
      std::vector<rt::Rect1> bounds;
      bounds.reserve(static_cast<size_t>(pieces_));
      for (int c = 0; c < pieces_; ++c) {
        bounds.push_back(block_of(c, part_axis));
      }
      const fmt::LevelStorage& ls = st.level(level);
      LevelPartitions init = LevelFuncs::get(ls.kind).universe_partition(
          trace, name, level, ls, bounds);
      TensorPartition tp =
          fmt::partition_coordinate_tree(trace, st, level, init);
      const Privilege vals_priv =
          !is_output ? Privilege::RO
                     : (axes == 1 ? Privilege::WO : Privilege::REDUCE);
      add_sparse_reqs(st, tp, vals_priv, Privilege::RO, level);
      sparse_tps.emplace(name, std::move(tp));
    }
    // Second pass: tensors not indexed by the distributed variable. A 1-D
    // dense operand indexed by a Compressed level's variable of some
    // partitioned sparse tensor only needs the coordinates that level's
    // pieces actually store (e.g. the halo of c in a banded SpMV) — derived
    // by bucketing each piece's crd values. Everything else is replicated.
    for (const auto& [name, tensor] : stmt.bindings) {
      const bool is_output = name == stmt.assignment.lhs.tensor;
      bool indexed = false;
      for (const auto& dv : dist_source_vars_) {
        if (dim_of_var(stmt, name, dv) >= 0) indexed = true;
      }
      if (indexed) continue;
      const fmt::TensorStorage& st = tensor.storage();
      bool derived = false;
      if (!is_output && tensor.format().all_dense() &&
          tensor.format().order() == 1) {
        // The operand's single variable.
        IndexVar u = dist_source_var_;  // placeholder; replaced below
        bool found = false;
        for (const auto& a : tin::expr_accesses(stmt.assignment.rhs)) {
          if (a.tensor == name && a.vars.size() == 1) {
            u = a.vars[0];
            found = true;
          }
        }
        if (found) {
          for (const auto& [sname, tp] : sparse_tps) {
            const Tensor& s = stmt.tensor(sname);
            const int sdim = dim_of_var(stmt, sname, u);
            if (sdim < 0) continue;
            const int slevel = s.format().level_of_dim(sdim);
            const fmt::LevelStorage& sl = s.storage().level(slevel);
            if (!sl.kind.has_crd()) continue;
            Partition p = needed_coords_partition(
                sl, tp.level_parts[static_cast<size_t>(slevel)],
                st.vals()->space(), pieces_);
            trace.append(PlanOpKind::Image,
                         strprintf("%s_part = neededCoordinates(%s%d_crd)",
                                   name.c_str(), sname.c_str(), slevel + 1));
            launch.reqs.push_back(
                rt::RegionReq{st.vals(), own(std::move(p)), Privilege::RO});
            derived = true;
            break;
          }
        }
      }
      if (!derived) {
        add_replicated_reqs(st,
                            is_output ? Privilege::REDUCE : Privilege::RO);
      }
    }
  } else {
    // === Coordinate-position iteration: non-zero partitions ==================
    // Axis 0 iterates equal non-zero blocks; inner universe axes (a non-zero
    // x universe grid) clamp their variable through var_coords above.
    const Tensor& T = stmt.tensor(split_tensor_);
    const fmt::TensorStorage& tst = T.storage();
    const fmt::LevelStorage& sl = tst.level(split_level_);
    const std::vector<rt::Rect1> nz_axis = tdn::equal_bounds(
        std::max<Coord>(sl.positions, 1), grid_pieces_[0]);
    std::vector<rt::Rect1> bounds;
    bounds.reserve(static_cast<size_t>(pieces_));
    for (int c = 0; c < pieces_; ++c) {
      bounds.push_back(nz_axis[static_cast<size_t>(axis_index(c, 0))]);
      auto& pb = inst->piece_bounds_[static_cast<size_t>(c)];
      pb.dist_pos = bounds.back();
      pb.pos_tensor = split_tensor_;
      pb.pos_level = split_level_;
    }
    trace.append(
        PlanOpKind::DistributedFor,
        strprintf("distributed for over %d equal non-zero blocks of %s%s",
                  grid_pieces_[0], split_tensor_.c_str(),
                  axes > 1 ? " x universe grid axes" : ""));

    LevelPartitions init = LevelFuncs::get(sl.kind).nonzero_partition(
        trace, split_tensor_, split_level_, sl, bounds);
    TensorPartition ttp =
        fmt::partition_coordinate_tree(trace, tst, split_level_, init);
    add_sparse_reqs(tst, ttp, Privilege::RO, Privilege::RO,
                    /*scan_level=*/-1, /*whole_pos_upto=*/split_level_);

    const IndexVar v0 = fused_sources_[0];
    // The split tensor's top-level (possibly overlapping) partition derives
    // the partitions of every other tensor (Figure 9a,
    // partitionRemainingCoordinateTrees) — expressed over v0's *coordinate*
    // space. A Dense top level's positions are its coordinates; a
    // Compressed top (COO, DCSR) derives the exact coordinate sets each
    // piece stores from the root crd.
    const Coord v0_extent = var_extent(stmt, v0);
    Partition top;
    if (tst.level(0).kind.is_dense()) {
      top = rt::copy_partition(ttp.level_parts[0],
                               rt::IndexSpace(v0_extent));
    } else {
      top = needed_coords_partition(tst.level(0), ttp.level_parts[0],
                                    rt::IndexSpace(v0_extent), pieces_);
      trace.append(PlanOpKind::Image,
                   strprintf("%s_top_coords = neededCoordinates(%s1_crd)",
                             split_tensor_.c_str(), split_tensor_.c_str()));
    }
    for (const auto& [name, tensor] : stmt.bindings) {
      if (name == split_tensor_) continue;
      const bool is_output = name == stmt.assignment.lhs.tensor;
      const fmt::TensorStorage& st = tensor.storage();
      if (is_output && pattern_preserved &&
          stmt.assignment.lhs.vars ==
              std::vector<IndexVar>(fused_sources_.begin(),
                                    fused_sources_.end())) {
        // Output pattern aligns 1:1 with the split tensor's positions
        // (SDDMM): reuse the split tensor's level partitions directly —
        // a disjoint, statically load-balanced output distribution.
        TensorPartition otp;
        for (int l = 0; l <= split_level_; ++l) {
          otp.level_parts.push_back(rt::copy_partition(
              ttp.level_parts[static_cast<size_t>(l)],
              l == split_level_
                  ? rt::IndexSpace(std::max<Coord>(
                        st.level(l).positions, 1))
                  : rt::IndexSpace(st.level(l).positions)));
        }
        otp.vals_part =
            rt::copy_partition(ttp.vals_part, st.vals()->space());
        trace.append(PlanOpKind::CopyPartition,
                     strprintf("%s partitions copied from %s (aligned "
                               "pattern)",
                               name.c_str(), split_tensor_.c_str()));
        add_sparse_reqs(st, otp, Privilege::WO, Privilege::RO);
        continue;
      }
      const int dim = dim_of_var(stmt, name, v0);
      if (dim >= 0 && tensor.format().all_dense()) {
        // Partition this dense tensor by the split tensor's (overlapping)
        // top-level row partition, clamped to any inner universe axis block
        // (the piece's 2-D tile under a non-zero x universe grid).
        const int level = tensor.format().level_of_dim(dim);
        Partition lifted = rt::lift_to_dim(
            rt::copy_partition(
                top, rt::IndexSpace(tensor.dims()[static_cast<size_t>(dim)])),
            st.vals()->space(), level);
        if (axes > 1) {
          std::vector<rt::IndexSubset> subs;
          subs.reserve(static_cast<size_t>(pieces_));
          for (int c = 0; c < pieces_; ++c) {
            rt::RectN clamp = st.vals()->space().bounds();
            for (int a = 1; a < axes; ++a) {
              const int d2 =
                  dim_of_var(stmt, name,
                             dist_source_vars_[static_cast<size_t>(a)]);
              if (d2 < 0) continue;
              const int l2 = tensor.format().level_of_dim(d2);
              const rt::Rect1 b = block_of(c, a);
              clamp.lo[l2] = std::max(clamp.lo[l2], b.lo);
              clamp.hi[l2] = std::min(clamp.hi[l2], b.hi);
            }
            subs.push_back(lifted.subset(c).intersect(clamp));
          }
          lifted = Partition(st.vals()->space(), std::move(subs));
        }
        launch.reqs.push_back(rt::RegionReq{
            st.vals(), own(std::move(lifted)),
            is_output ? Privilege::REDUCE : Privilege::RO});
        continue;
      }
      if (dim >= 0 && !tensor.format().all_dense()) {
        // Sparse tensor sharing the top-level variable (e.g. the SpTTV
        // output): universe-partition its coordinate tree by the bounds of
        // the split tensor's (possibly overlapping) row subsets.
        const int level = tensor.format().level_of_dim(dim);
        std::vector<rt::Rect1> row_bounds;
        for (int c = 0; c < pieces_; ++c) {
          if (top.subset(c).empty()) {
            row_bounds.push_back(rt::Rect1{0, -1});
          } else {
            const rt::RectN b = top.subset(c).bounds();
            row_bounds.push_back(rt::Rect1{b.lo[0], b.hi[0]});
          }
        }
        const fmt::LevelStorage& ls = st.level(level);
        LevelPartitions oinit = LevelFuncs::get(ls.kind).universe_partition(
            trace, name, level, ls, row_bounds);
        TensorPartition otp =
            fmt::partition_coordinate_tree(trace, st, level, oinit);
        // Overlapping row ranges => reduction privilege for outputs.
        add_sparse_reqs(st, otp,
                        is_output ? Privilege::REDUCE : Privilege::RO,
                        Privilege::RO);
        continue;
      }
      // 1-D dense operands indexed by the split tensor's innermost fused
      // variable need only the coordinates each non-zero piece stores.
      if (!is_output && tensor.format().all_dense() &&
          tensor.format().order() == 1) {
        const IndexVar inner = fused_sources_.back();
        if (dim_of_var(stmt, name, inner) == 0 &&
            tst.level(split_level_).kind.has_crd()) {
          Partition p = needed_coords_partition(
              tst.level(split_level_),
              ttp.level_parts[static_cast<size_t>(split_level_)],
              st.vals()->space(), pieces_);
          trace.append(PlanOpKind::Image,
                       strprintf("%s_part = neededCoordinates(%s%d_crd)",
                                 name.c_str(), split_tensor_.c_str(),
                                 split_level_ + 1));
          launch.reqs.push_back(
              rt::RegionReq{st.vals(), own(std::move(p)), Privilege::RO});
          continue;
        }
      }
      // Dense tensors indexed by an inner universe axis of a non-zero x
      // universe grid need only their axis block per piece (replicated
      // across the non-zero axis) — e.g. C's column blocks in 2-D SpMM.
      if (tensor.format().all_dense() && axes > 1) {
        std::vector<rt::RectN> tiles;
        tiles.reserve(static_cast<size_t>(pieces_));
        bool any_axis = false;
        for (int c = 0; c < pieces_; ++c) {
          rt::RectN t = st.vals()->space().bounds();
          for (int a = 1; a < axes; ++a) {
            const int d =
                dim_of_var(stmt, name,
                           dist_source_vars_[static_cast<size_t>(a)]);
            if (d < 0) continue;
            any_axis = true;
            const int level = tensor.format().level_of_dim(d);
            const rt::Rect1 b = block_of(c, a);
            t.lo[level] = std::max(t.lo[level], b.lo);
            t.hi[level] = std::min(t.hi[level], b.hi);
          }
          tiles.push_back(t);
        }
        if (any_axis) {
          Partition grid =
              rt::partition_by_bounds(st.vals()->space(), tiles);
          launch.reqs.push_back(rt::RegionReq{
              st.vals(), own(std::move(grid)),
              is_output ? Privilege::REDUCE : Privilege::RO});
          continue;
        }
      }
      // Everything else is replicated (the paper's non-zero algorithms
      // replicate the remaining dense operands, e.g. C in the load-balanced
      // GPU SpMM).
      add_replicated_reqs(st, is_output ? Privilege::REDUCE : Privilege::RO);
    }
  }

  partitions_span.reset();

  // --- Install data distributions (TDN statements) ---------------------------
  // Deferred to the end of setup: set_placement drains in-flight launches,
  // so everything above it (the expensive partition construction) already
  // overlapped their execution.
  {
    OBS_SPAN("compiler", "instantiate.distribute");
    for (const auto& [name, tensor] : stmt.bindings) {
      if (tensor.distribution().has_value() && tensor.has_storage()) {
        tdn::distribute_tensor(trace, runtime, tensor.storage(),
                               *tensor.distribution(), machine_);
      }
    }
  }

  // --- The distributed loop ---------------------------------------------------
  Instance* raw = inst.get();
  const LeafFn leaf = leaf_;
  // Leaf-kind dispatch count, resolved once here (stable address); add()
  // self-gates on obs::enabled(), so the hot path pays one relaxed load.
  obs::Counter& leaf_hits =
      obs::Metrics::global().counter("leaf." + leaf_name_);
  launch.body = [raw, leaf, &leaf_hits](const rt::TaskContext& ctx) {
    leaf_hits.add(1);
    return leaf(raw->piece_bounds_[static_cast<size_t>(ctx.color())]);
  };
  trace.append(PlanOpKind::LeafKernel,
               strprintf("leaf kernel: %s x%d pieces", leaf_name_.c_str(),
                         pieces_));
  return inst;
}

}  // namespace spdistal::comp
