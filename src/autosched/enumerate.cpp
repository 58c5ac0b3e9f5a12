#include "autosched/enumerate.h"

#include <algorithm>
#include <set>

#include "compiler/lower.h"

namespace spdistal::autosched {

using rt::Coord;
using sched::ParallelUnit;
using tin::IndexVar;

std::vector<Candidate> enumerate_candidates(const Statement& stmt,
                                            const rt::Machine& machine) {
  const int procs = std::max(1, machine.num_procs());
  std::vector<int> piece_counts{procs};
  if (procs > 1) {
    piece_counts.push_back(2 * procs);
  }
  std::vector<std::optional<ParallelUnit>> units;
  if (machine.kind() == rt::ProcKind::CPU) {
    units = {ParallelUnit::CPUThread, std::nullopt};
  } else {
    units = {ParallelUnit::GPUThread};
  }

  std::vector<Recipe> recipes;
  auto add = [&](const Recipe& r) {
    if (std::find(recipes.begin(), recipes.end(), r) == recipes.end()) {
      recipes.push_back(r);
    }
  };

  // --- Universe distribution of the outermost variable -----------------------
  const auto vars = tin::statement_vars(stmt.assignment);
  if (!vars.empty()) {
    const Coord extent = var_extent(stmt, vars[0]);
    for (bool comm : {true, false}) {
      for (const auto& unit : units) {
        for (int p : piece_counts) {
          Recipe r;
          r.pieces = static_cast<int>(
              std::clamp<Coord>(p, 1, std::max<Coord>(extent, 1)));
          r.communicate_all = comm;
          r.unit = unit;
          add(r);
        }
      }
    }
  }

  // --- Multi-axis universe grids (px, py) and (px, py, pz) --------------------
  // Every proper factorization of the processor count becomes a 2-D grid
  // mapping the two outermost variables onto Machine(Grid(x, y)) — the
  // paper's 2-D SpMM/SDDMM schedules that trade replication for balance —
  // and, with three or more statement variables, every 3-way factorization
  // becomes a rank-3 Grid(x, y, z) (lowering handles arbitrary-rank grids;
  // per-axis blocks restrict iteration through the leaf's piece bounds).
  if (vars.size() >= 2 && procs > 1) {
    const Coord e0 = var_extent(stmt, vars[0]);
    const Coord e1 = var_extent(stmt, vars[1]);
    for (int px = 2; px * 2 <= procs; ++px) {
      if (procs % px != 0) continue;
      const int py = procs / px;
      for (const auto& unit : units) {
        Recipe r;
        r.pieces = static_cast<int>(
            std::clamp<Coord>(px, 1, std::max<Coord>(e0, 1)));
        r.pieces_y = static_cast<int>(
            std::clamp<Coord>(py, 1, std::max<Coord>(e1, 1)));
        if (r.pieces_y <= 1) continue;  // degenerated to 1-D
        r.unit = unit;
        add(r);
      }
    }
    if (vars.size() >= 3) {
      const Coord e2 = var_extent(stmt, vars[2]);
      for (int px = 2; px * 4 <= procs; ++px) {
        if (procs % px != 0) continue;
        for (int py = 2; px * py * 2 <= procs; ++py) {
          if ((procs / px) % py != 0) continue;
          const int pz = procs / (px * py);
          for (const auto& unit : units) {
            Recipe r;
            r.pieces = static_cast<int>(
                std::clamp<Coord>(px, 1, std::max<Coord>(e0, 1)));
            r.pieces_y = static_cast<int>(
                std::clamp<Coord>(py, 1, std::max<Coord>(e1, 1)));
            r.pieces_z = static_cast<int>(
                std::clamp<Coord>(pz, 1, std::max<Coord>(e2, 1)));
            if (r.pieces_y <= 1 || r.pieces_z <= 1) continue;  // lower rank
            r.unit = unit;
            add(r);
          }
        }
      }
    }
  }

  // --- Non-zero distribution of each sparse operand ---------------------------
  if (tin::is_pure_product(stmt.assignment.rhs)) {
    std::set<std::string> seen;
    for (const auto& a : tin::expr_accesses(stmt.assignment.rhs)) {
      if (!seen.insert(a.tensor).second) continue;
      const Tensor& T = stmt.tensor(a.tensor);
      const fmt::Format& f = T.format();
      if (f.all_dense()) continue;
      // Position-space lowering drives a Dense or Compressed top level and
      // divides the positions of a stored (Compressed or Singleton) split
      // level. A Singleton chain shares positions with its parent, so
      // splitting anywhere inside the chain is the same partition:
      // enumerate only the split at the chain's end (one fused splittable
      // unit — exactly the legal divide_pos for COO/CSF operands).
      const int64_t nnz = T.has_storage() ? T.storage().nnz() : 0;
      for (int depth = 2; depth <= f.order(); ++depth) {
        if (!f.mode(depth - 1).has_crd()) continue;
        if (depth < f.order() && f.mode(depth).is_singleton()) continue;
        for (const auto& unit : units) {
          for (int p : piece_counts) {
            Recipe r;
            r.position_space = true;
            r.split_tensor = a.tensor;
            r.fuse_depth = depth;
            r.pieces = static_cast<int>(std::clamp<int64_t>(
                p, 1, std::max<int64_t>(nnz > 0 ? nnz : p, 1)));
            r.unit = unit;
            add(r);
          }
          // Non-zero x universe grids: factor the processor count between
          // equal non-zero blocks and an inner universe axis.
          for (int px = 2; px * 2 <= procs; ++px) {
            if (procs % px != 0) continue;
            Recipe r;
            r.position_space = true;
            r.split_tensor = a.tensor;
            r.fuse_depth = depth;
            r.pieces = static_cast<int>(std::clamp<int64_t>(
                px, 1, std::max<int64_t>(nnz > 0 ? nnz : px, 1)));
            r.pieces_y = procs / px;
            r.unit = unit;
            add(r);
          }
        }
      }
    }
  }

  // --- Legality: only candidates the compiler accepts survive ----------------
  std::vector<Candidate> candidates;
  for (const auto& r : recipes) {
    try {
      sched::Schedule s = materialize(r, stmt);
      comp::CompiledKernel::compile(stmt, s, machine);
      candidates.push_back(Candidate{r, std::move(s), 0, -1, false});
    } catch (const SpdError&) {
      // Illegal for this statement/machine; drop silently.
    }
  }
  return candidates;
}

}  // namespace spdistal::autosched
