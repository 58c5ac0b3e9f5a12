#include "format/storage.h"

#include <algorithm>
#include <bit>
#include <limits>
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

namespace {

using Key = std::array<Coord, rt::kMaxDim>;

bool sorted_by(const std::vector<Key>& coords,
               const std::vector<int>& dim_order) {
  for (size_t e = 1; e < coords.size(); ++e) {
    for (int d : dim_order) {
      const Coord a = coords[e - 1][static_cast<size_t>(d)];
      const Coord b = coords[e][static_cast<size_t>(d)];
      if (a < b) break;
      if (a > b) return false;
    }
  }
  return true;
}

}  // namespace

void Coo::sort(const std::vector<int>& dim_order) {
  SPD_ASSERT(dim_order.size() == dims.size(), "bad dim order");
  SPD_ASSERT(coords.size() == vals.size(), "Coo: coords/vals size mismatch");
  if (sorted_by(coords, dim_order)) return;
  const size_t n = coords.size();
  SPD_CHECK(n <= std::numeric_limits<uint32_t>::max(), NotationError,
            "Coo::sort: " << n << " entries exceed the 2^32 sort limit");
  // Stable LSD radix sort: the last dimension of the storage order first,
  // each dimension's (coordinate - min) in equal digits of at most 16 bits,
  // lowest digit first. Every digit pass is a stable counting sort, so the
  // result is exactly std::stable_sort's — duplicate coordinates keep their
  // input order — and the count table never exceeds 2^16 entries, whatever
  // the extents.
  constexpr int kMaxDigitBits = 16;
  std::vector<uint32_t> perm(n), next(n);
  std::iota(perm.begin(), perm.end(), 0U);
  std::vector<uint16_t> digit(n);
  std::vector<uint32_t> count;
  for (auto it = dim_order.rbegin(); it != dim_order.rend(); ++it) {
    const size_t d = static_cast<size_t>(*it);
    Coord lo = coords[0][d], hi = coords[0][d];
    for (const Key& c : coords) {
      lo = std::min(lo, c[d]);
      hi = std::max(hi, c[d]);
    }
    const int bits =
        std::bit_width(static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo));
    if (bits == 0) continue;  // one distinct value: already in order
    const int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
    const int width = (bits + passes - 1) / passes;
    const uint64_t mask = (uint64_t{1} << width) - 1;
    for (int pass = 0; pass < passes; ++pass) {
      const int shift = pass * width;
      count.assign((size_t{1} << width) + 1, 0);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t off = static_cast<uint64_t>(coords[perm[i]][d]) -
                             static_cast<uint64_t>(lo);
        digit[i] = static_cast<uint16_t>((off >> shift) & mask);
        ++count[digit[i] + 1];
      }
      if (count[digit[0] + 1] == n) continue;  // one digit value: no move
      for (size_t b = 1; b < count.size(); ++b) count[b] += count[b - 1];
      for (size_t i = 0; i < n; ++i) next[count[digit[i]]++] = perm[i];
      perm.swap(next);
    }
  }
  std::vector<Key> new_coords(n);
  std::vector<double> new_vals(n);
  for (size_t i = 0; i < n; ++i) {
    new_coords[i] = coords[perm[i]];
    new_vals[i] = vals[perm[i]];
  }
  coords = std::move(new_coords);
  vals = std::move(new_vals);
}

void Coo::sort_and_combine(const std::vector<int>& dim_order) {
  sort(dim_order);
  size_t kept = 0;
  for (size_t idx = 0; idx < coords.size(); ++idx) {
    if (kept > 0 && coords[kept - 1] == coords[idx]) {
      vals[kept - 1] += vals[idx];
    } else {
      coords[kept] = coords[idx];
      vals[kept] = vals[idx];
      ++kept;
    }
  }
  coords.resize(kept);
  vals.resize(kept);
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

TensorStorage copy_pattern(const std::string& name,
                           const TensorStorage& src) {
  SPD_ASSERT(!src.format_.all_dense() && !src.format_.mode(0).is_blocked(),
             "copy_pattern: " << src.name_ << " is dense or blocked");
  TensorStorage st;
  st.name_ = name;
  st.format_ = src.format_;
  st.dims_ = src.dims_;
  for (size_t l = 0; l < src.levels_.size(); ++l) {
    const LevelStorage& from = src.levels_[l];
    LevelStorage level = from;
    const std::string suffix = std::to_string(l + 1);
    if (from.pos) {
      level.pos = rt::make_region<rt::PosRange>(from.pos->space(),
                                                name + ".pos" + suffix);
      level.pos->data() = from.pos->data();
    }
    if (from.crd) {
      level.crd = rt::make_region<int32_t>(from.crd->space(),
                                           name + ".crd" + suffix);
      level.crd->data() = from.crd->data();
    }
    st.levels_.push_back(std::move(level));
  }
  // Every last-level position holds one stored value, as in pack's output
  // for the same coordinates.
  st.nnz_ = st.levels_.back().positions;
  st.vals_ = rt::make_region<double>(rt::IndexSpace(std::max<Coord>(st.nnz_, 1)),
                                     name + ".vals");
  return st;
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
