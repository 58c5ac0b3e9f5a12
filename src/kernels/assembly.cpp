#include "kernels/assembly.h"

#include <algorithm>
#include <iterator>

#include "kernels/work.h"

namespace spdistal::kern {

using rt::Coord;

bool needs_assembly(const Statement& stmt) {
  return !stmt.tensor(stmt.assignment.lhs.tensor).format().all_dense();
}

namespace {

using CoordKey = std::array<Coord, rt::kMaxDim>;

// A set of output coordinates: sorted by the output's storage order
// (`Less`), no duplicates.
using Pattern = std::vector<CoordKey>;

struct Less {
  const std::vector<int>* order;
  bool operator()(const CoordKey& a, const CoordKey& b) const {
    for (int d : *order) {
      const Coord x = a[static_cast<size_t>(d)];
      const Coord y = b[static_cast<size_t>(d)];
      if (x != y) return x < y;
    }
    return false;
  }
};

// Projects the stored coordinates of `acc` onto the output variables,
// sorted in the output's storage order with duplicates removed. Returns
// the number of stored values visited.
int64_t project_pattern(const Statement& stmt, const tin::Access& acc,
                        const std::vector<tin::IndexVar>& out_vars,
                        const std::vector<Coord>& out_dims,
                        const std::vector<int>& out_order, Pattern& into) {
  const Tensor& t = stmt.tensor(acc.tensor);
  // out position of each access var (or -1).
  std::vector<int> proj(acc.vars.size(), -1);
  for (size_t d = 0; d < acc.vars.size(); ++d) {
    for (size_t o = 0; o < out_vars.size(); ++o) {
      if (acc.vars[d] == out_vars[o]) proj[d] = static_cast<int>(o);
    }
  }
  fmt::Coo coo;
  coo.dims = out_dims;
  t.storage().for_each([&](const CoordKey& c, double) {
    CoordKey key{};
    for (size_t d = 0; d < acc.vars.size(); ++d) {
      if (proj[d] >= 0) key[static_cast<size_t>(proj[d])] = c[d];
    }
    coo.coords.push_back(key);
  });
  const int64_t visited = static_cast<int64_t>(coo.coords.size());
  coo.vals.resize(coo.coords.size());
  coo.sort(out_order);  // O(n) when the projection keeps storage order
  coo.coords.erase(std::unique(coo.coords.begin(), coo.coords.end()),
                   coo.coords.end());
  into = std::move(coo.coords);
  return visited;
}

// True when `out` can take a copy of `in`'s coordinate tree: the same
// dims and format (modes and ordering), no Blocked level, and unique levels
// only, so every stored coordinate is distinct and the copy equals the
// packed projection.
bool copies_pattern(const Tensor& in, const Tensor& out) {
  if (in.dims() != out.dims() || !(in.format() == out.format())) return false;
  for (const fmt::ModeFormat& m : in.format().modes()) {
    if (m.is_blocked() || !m.unique()) return false;
  }
  return true;
}

}  // namespace

AssemblyResult assemble_output(Statement& stmt) {
  AssemblyResult res;
  if (!needs_assembly(stmt)) return res;

  const std::vector<tin::IndexVar>& out_vars = stmt.assignment.lhs.vars;
  Tensor out = stmt.tensor(stmt.assignment.lhs.tensor);
  const std::vector<int>& order = out.format().ordering();
  const Less less{&order};

  // Sparse accesses per term, validated before any pattern is built.
  const auto terms = tin::sum_of_products(stmt.assignment.rhs);
  std::vector<std::vector<tin::Access>> term_sparse;
  for (const auto& term : terms) {
    std::vector<tin::Access> sparse;
    for (const auto& acc : tin::expr_accesses(term)) {
      if (!stmt.tensor(acc.tensor).format().all_dense()) sparse.push_back(acc);
    }
    SPD_CHECK(!sparse.empty(), NotationError,
              "sparse output with an all-dense term would be dense: "
                  << stmt.str());
    // Every sparse access must determine the output coordinates.
    for (const auto& ov : out_vars) {
      bool covered = false;
      for (const auto& s : sparse) {
        for (const auto& v : s.vars) {
          if (v == ov) covered = true;
        }
      }
      SPD_CHECK(covered, NotationError,
                "cannot assemble sparse output: variable "
                    << ov.name() << " is not covered by a sparse input in "
                    << stmt.str());
    }
    // Multiple sparse accesses: require identical variable lists (their
    // patterns are intersected).
    for (const auto& s : sparse) {
      SPD_CHECK(s.vars == sparse[0].vars, NotationError,
                "assembly of products of sparse tensors requires identical "
                "access variables: "
                    << stmt.str());
    }
    term_sparse.push_back(std::move(sparse));
  }

  res.pattern_preserved = terms.size() == 1 && term_sparse[0].size() == 1 &&
                          term_sparse[0][0].vars == out_vars;
  int64_t visited = 0;
  if (res.pattern_preserved &&
      copies_pattern(stmt.tensor(term_sparse[0][0].tensor), out)) {
    // §V-B metadata copy: the output's coordinate tree is the operand's.
    const fmt::TensorStorage& in =
        stmt.tensor(term_sparse[0][0].tensor).storage();
    visited = in.level(in.num_levels() - 1).positions;
    out.set_storage(fmt::copy_pattern(out.name(), in));
    res.output_nnz = out.storage().nnz();
  } else {
    Pattern pattern;
    for (const auto& sparse : term_sparse) {
      Pattern term;
      visited += project_pattern(stmt, sparse[0], out_vars, out.dims(), order,
                                 term);
      for (size_t s = 1; s < sparse.size(); ++s) {
        Pattern other, both;
        visited += project_pattern(stmt, sparse[s], out_vars, out.dims(),
                                   order, other);
        std::ranges::set_intersection(term, other, std::back_inserter(both),
                                      less);
        term = std::move(both);
      }
      Pattern merged;
      merged.reserve(pattern.size() + term.size());
      std::ranges::set_union(pattern, term, std::back_inserter(merged), less);
      pattern = std::move(merged);
    }
    // Phase 2: pack zero-valued storage with the assembled pattern (already
    // in storage order, so pack's sort is a linear check).
    res.output_nnz = static_cast<int64_t>(pattern.size());
    fmt::Coo coo;
    coo.dims = out.dims();
    coo.coords = std::move(pattern);
    coo.vals.resize(coo.coords.size());
    out.set_storage(
        fmt::pack(out.name(), out.format(), out.dims(), std::move(coo)));
  }
  // Symbolic phase: 12 bytes per visited stored value, 24 per output entry.
  WorkCounter work;
  work.stream(visited, 12.0);
  work.stream(res.output_nnz, 24.0);
  res.symbolic_work = work.done();
  return res;
}

}  // namespace spdistal::kern
