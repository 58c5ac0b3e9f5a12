#include "format/storage.h"

#include <algorithm>
#include <numeric>

#include "common/str_util.h"

namespace spdistal::fmt {

void Coo::push(std::initializer_list<Coord> coord, double v) {
  std::array<Coord, rt::kMaxDim> c{};
  SPD_ASSERT(coord.size() == dims.size(), "Coo::push: wrong arity");
  std::copy(coord.begin(), coord.end(), c.begin());
  coords.push_back(c);
  vals.push_back(v);
}

void Coo::push(const std::array<Coord, rt::kMaxDim>& coord, double v) {
  coords.push_back(coord);
  vals.push_back(v);
}

void Coo::sort(const std::vector<int>& dim_order) {
  SPD_ASSERT(dim_order.size() == dims.size(), "bad dim order");
  std::vector<size_t> perm(coords.size());
  std::iota(perm.begin(), perm.end(), 0);
  // Stable: duplicate coordinates keep input order, so unordered inputs
  // (and duplicate-preserving packs) are deterministic functions of the
  // entry list.
  std::stable_sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
    for (int d : dim_order) {
      const Coord ca = coords[a][static_cast<size_t>(d)];
      const Coord cb = coords[b][static_cast<size_t>(d)];
      if (ca != cb) return ca < cb;
    }
    return false;
  });
  std::vector<std::array<Coord, rt::kMaxDim>> new_coords;
  std::vector<double> new_vals;
  new_coords.reserve(coords.size());
  new_vals.reserve(vals.size());
  for (size_t idx : perm) {
    new_coords.push_back(coords[idx]);
    new_vals.push_back(vals[idx]);
  }
  coords = std::move(new_coords);
  vals = std::move(new_vals);
}

void Coo::sort_and_combine(const std::vector<int>& dim_order) {
  sort(dim_order);
  std::vector<std::array<Coord, rt::kMaxDim>> new_coords;
  std::vector<double> new_vals;
  new_coords.reserve(coords.size());
  new_vals.reserve(vals.size());
  for (size_t idx = 0; idx < coords.size(); ++idx) {
    if (!new_coords.empty() && new_coords.back() == coords[idx]) {
      new_vals.back() += vals[idx];
    } else {
      new_coords.push_back(coords[idx]);
      new_vals.push_back(vals[idx]);
    }
  }
  coords = std::move(new_coords);
  vals = std::move(new_vals);
}

int64_t TensorStorage::bytes() const {
  // vals_->size_bytes() covers the whole value region, so a Blocked
  // tensor's padded lanes are accounted automatically.
  int64_t b = vals_ ? vals_->size_bytes() : 0;
  for (const auto& l : levels_) {
    if (l.pos) b += l.pos->size_bytes();
    if (l.crd) b += l.crd->size_bytes();
  }
  return b;
}

namespace {

void walk(const TensorStorage& st, int l, Coord parent_pos,
          std::array<Coord, rt::kMaxDim>& coords,
          const std::function<void(const std::array<Coord, rt::kMaxDim>&,
                                   double)>& fn) {
  if (l == st.order()) {
    fn(coords, st.vals()->at_linear(parent_pos));
    return;
  }
  const LevelStorage& level = st.level(l);
  if (level.kind.is_blocked()) {
    // The BlockedDense level walks its pair as a unit: every stored block
    // yields R*C value lanes (including explicit-zero padding), addressed
    // block-major, row-major within the block.
    const LevelStorage& blk = st.level(l + 1);
    const Coord R = level.kind.block();
    const Coord C = blk.kind.block();
    for (Coord bi = 0; bi < level.positions; ++bi) {
      const rt::PosRange pr = (*blk.pos)[bi];
      for (Coord q = pr.lo; q <= pr.hi; ++q) {
        const Coord bj = (*blk.crd)[q];
        for (Coord r = 0; r < R; ++r) {
          const Coord i = bi * R + r;
          if (i >= level.extent) break;
          coords[static_cast<size_t>(level.dim)] = i;
          for (Coord cc = 0; cc < C; ++cc) {
            const Coord j = bj * C + cc;
            if (j >= blk.extent) break;
            coords[static_cast<size_t>(blk.dim)] = j;
            walk(st, l + 2, q * R * C + r * C + cc, coords, fn);
          }
        }
      }
    }
  } else if (level.kind.is_dense()) {
    for (Coord c = 0; c < level.extent; ++c) {
      coords[static_cast<size_t>(level.dim)] = c;
      walk(st, l + 1, parent_pos * level.extent + c, coords, fn);
    }
  } else if (level.kind.is_singleton()) {
    // One coordinate per position; the position is the parent's.
    coords[static_cast<size_t>(level.dim)] = (*level.crd)[parent_pos];
    walk(st, l + 1, parent_pos, coords, fn);
  } else {
    // Compressed: pos segment over this level's crd entries.
    const rt::PosRange pr = (*level.pos)[parent_pos];
    for (Coord q = pr.lo; q <= pr.hi; ++q) {
      coords[static_cast<size_t>(level.dim)] = (*level.crd)[q];
      walk(st, l + 1, q, coords, fn);
    }
  }
}

}  // namespace

void TensorStorage::for_each(
    const std::function<void(const std::array<Coord, rt::kMaxDim>&, double)>&
        fn) const {
  if (!vals_) return;
  std::array<Coord, rt::kMaxDim> coords{};
  walk(*this, 0, 0, coords, fn);
}

Coo TensorStorage::to_coo() const {
  Coo coo;
  coo.dims = dims_;
  for_each([&](const std::array<Coord, rt::kMaxDim>& c, double v) {
    if (v != 0.0) coo.push(c, v);
  });
  // Blocked pairs emit block-major (whole blocks, not whole rows); restore
  // the documented storage-order sort (Blocked padding was already dropped
  // by the v != 0 filter above).
  for (const ModeFormat& m : format_.modes()) {
    if (m.is_blocked()) {
      coo.sort(format_.ordering());
      break;
    }
  }
  return coo;
}

std::string TensorStorage::str() const {
  return strprintf("%s %s dims=[%s] nnz=%lld", name_.c_str(),
                   format_.str().c_str(),
                   join(dims_, "x").c_str(), static_cast<long long>(nnz_));
}

bool storage_equals(const TensorStorage& a, const TensorStorage& b,
                    double tol) {
  if (a.dims() != b.dims()) return false;
  Coo ca = a.to_coo();
  Coo cb = b.to_coo();
  std::vector<int> identity(ca.dims.size());
  std::iota(identity.begin(), identity.end(), 0);
  ca.sort_and_combine(identity);
  cb.sort_and_combine(identity);
  if (ca.nnz() != cb.nnz()) return false;
  for (int64_t i = 0; i < ca.nnz(); ++i) {
    if (ca.coords[static_cast<size_t>(i)] != cb.coords[static_cast<size_t>(i)])
      return false;
    const double va = ca.vals[static_cast<size_t>(i)];
    const double vb = cb.vals[static_cast<size_t>(i)];
    const double err = std::abs(va - vb);
    const double rel = err / std::max(1.0, std::max(std::abs(va), std::abs(vb)));
    if (rel > tol && err > tol) return false;
  }
  return true;
}

}  // namespace spdistal::fmt
