#include "runtime/index_space.h"

#include <algorithm>

#include "common/error.h"
#include "common/str_util.h"

namespace spdistal::rt {

RectN::RectN(std::initializer_list<Coord> los, std::initializer_list<Coord> his) {
  SPD_ASSERT(los.size() == his.size() && los.size() >= 1 &&
                 los.size() <= static_cast<size_t>(kMaxDim),
             "RectN: bad initializer sizes");
  dim = static_cast<int>(los.size());
  hi.fill(-1);
  std::copy(los.begin(), los.end(), lo.begin());
  std::copy(his.begin(), his.end(), hi.begin());
}

RectN RectN::make1(Coord l, Coord h) { return RectN({l}, {h}); }
RectN RectN::make2(Coord l0, Coord h0, Coord l1, Coord h1) {
  return RectN({l0, l1}, {h0, h1});
}
RectN RectN::make3(Coord l0, Coord h0, Coord l1, Coord h1, Coord l2, Coord h2) {
  return RectN({l0, l1, l2}, {h0, h1, h2});
}

bool RectN::empty() const {
  for (int d = 0; d < dim; ++d) {
    if (lo[d] > hi[d]) return true;
  }
  return false;
}

int64_t RectN::volume() const {
  if (empty()) return 0;
  int64_t v = 1;
  for (int d = 0; d < dim; ++d) v *= hi[d] - lo[d] + 1;
  return v;
}

bool RectN::contains(const RectN& r) const {
  if (r.empty()) return true;
  if (empty()) return false;
  SPD_ASSERT(dim == r.dim, "RectN::contains: dim mismatch");
  for (int d = 0; d < dim; ++d) {
    if (lo[d] > r.lo[d] || hi[d] < r.hi[d]) return false;
  }
  return true;
}

bool RectN::contains_point(const std::array<Coord, kMaxDim>& p) const {
  for (int d = 0; d < dim; ++d) {
    if (p[d] < lo[d] || p[d] > hi[d]) return false;
  }
  return true;
}

bool RectN::overlaps(const RectN& r) const {
  if (empty() || r.empty()) return false;
  SPD_ASSERT(dim == r.dim, "RectN::overlaps: dim mismatch");
  for (int d = 0; d < dim; ++d) {
    if (lo[d] > r.hi[d] || r.lo[d] > hi[d]) return false;
  }
  return true;
}

RectN RectN::intersect(const RectN& r) const {
  SPD_ASSERT(dim == r.dim, "RectN::intersect: dim mismatch");
  RectN out;
  out.dim = dim;
  for (int d = 0; d < dim; ++d) {
    out.lo[d] = std::max(lo[d], r.lo[d]);
    out.hi[d] = std::min(hi[d], r.hi[d]);
  }
  return out;
}

bool RectN::operator==(const RectN& r) const {
  if (dim != r.dim) return false;
  if (empty() && r.empty()) return true;
  for (int d = 0; d < dim; ++d) {
    if (lo[d] != r.lo[d] || hi[d] != r.hi[d]) return false;
  }
  return true;
}

std::string RectN::str() const {
  std::string s = "[";
  for (int d = 0; d < dim; ++d) {
    if (d) s += ",";
    s += strprintf("%lld..%lld", static_cast<long long>(lo[d]),
                   static_cast<long long>(hi[d]));
  }
  return s + "]";
}

bool IndexSubset::empty() const {
  for (const auto& r : rects_) {
    if (!r.empty()) return false;
  }
  return true;
}

namespace {
// Subtracts rectangle `b` from rectangle `a`, appending the (disjoint)
// remainder pieces to `out`. Standard axis-by-axis slab decomposition:
// at most 2*dim pieces.
void rect_subtract(const RectN& a, const RectN& b, std::vector<RectN>& out) {
  if (!a.overlaps(b)) {
    if (!a.empty()) out.push_back(a);
    return;
  }
  RectN rem = a;  // shrinking remainder that still intersects b
  for (int d = 0; d < a.dim; ++d) {
    if (rem.lo[d] < b.lo[d]) {
      RectN below = rem;
      below.hi[d] = b.lo[d] - 1;
      if (!below.empty()) out.push_back(below);
      rem.lo[d] = b.lo[d];
    }
    if (rem.hi[d] > b.hi[d]) {
      RectN above = rem;
      above.lo[d] = b.hi[d] + 1;
      if (!above.empty()) out.push_back(above);
      rem.hi[d] = b.hi[d];
    }
  }
  // What's left of rem is fully inside b: dropped.
}
}  // namespace

int64_t IndexSubset::volume() const {
  // Valid only post-normalize (rects disjoint).
  int64_t v = 0;
  for (const auto& r : rects_) v += r.volume();
  return v;
}

void IndexSubset::add(const RectN& r) {
  if (r.empty()) return;
  SPD_ASSERT(rects_.empty() || r.dim == dim_, "IndexSubset::add: dim mismatch");
  dim_ = r.dim;
  normalized1_ = normalized1_ && r.dim == 1 &&
                 (rects_.empty() || rects_.back().hi[0] + 1 < r.lo[0]);
  rects_.push_back(r);
}

void IndexSubset::normalize() {
  if (rects_.empty()) return;
  if (dim_ == 1) {
    if (normalized1_) return;
    std::sort(rects_.begin(), rects_.end(),
              [](const RectN& a, const RectN& b) { return a.lo[0] < b.lo[0]; });
    std::vector<RectN> out;
    out.reserve(rects_.size());
    for (const auto& r : rects_) {
      if (!out.empty() && r.lo[0] <= out.back().hi[0] + 1) {
        out.back().hi[0] = std::max(out.back().hi[0], r.hi[0]);
      } else {
        out.push_back(r);
      }
    }
    rects_ = std::move(out);
    normalized1_ = true;
    return;
  }
  // N-D: drop rectangles fully contained in another (and duplicates), then
  // cut each survivor that partially overlaps an earlier kept rectangle
  // into its rect_subtract pieces, so the rectangles end up pairwise
  // disjoint and volume() counts every point once. Dense partitions are
  // disjoint rects by construction and pass through unchanged.
  std::vector<RectN> out;
  for (const auto& r : rects_) {
    bool contained = false;
    for (const auto& o : rects_) {
      if (&o != &r && o.contains(r) && !(o == r)) {
        contained = true;
        break;
      }
    }
    if (!contained) {
      bool dup = false;
      for (const auto& o : out) {
        if (o == r) {
          dup = true;
          break;
        }
      }
      if (!dup) out.push_back(r);
    }
  }
  rects_.clear();
  std::vector<RectN> pieces, next;
  for (const RectN& r : out) {
    pieces.assign(1, r);
    for (const RectN& k : rects_) {
      if (!r.overlaps(k)) continue;
      next.clear();
      for (const RectN& p : pieces) rect_subtract(p, k, next);
      pieces.swap(next);
      if (pieces.empty()) break;
    }
    rects_.insert(rects_.end(), pieces.begin(), pieces.end());
  }
}

bool IndexSubset::contains_point(const std::array<Coord, kMaxDim>& p) const {
  for (const auto& r : rects_) {
    if (r.contains_point(p)) return true;
  }
  return false;
}

bool IndexSubset::contains_point1(Coord p) const {
  // Binary search over a normalized, sorted 1-D interval list.
  if (dim_ == 1 && normalized1_ && rects_.size() > 8) {
    auto it = std::upper_bound(
        rects_.begin(), rects_.end(), p,
        [](Coord v, const RectN& r) { return v < r.lo[0]; });
    if (it == rects_.begin()) return false;
    --it;
    return p <= it->hi[0];
  }
  return contains_point({p});
}

const std::vector<RectN>& IndexSubset::normalized1(
    std::vector<RectN>& scratch) const {
  if (normalized1_) return rects_;
  IndexSubset copy = *this;
  copy.normalize();
  scratch = std::move(copy.rects_);
  return scratch;
}

namespace {
// Linear sweeps over two 1-D interval lists. Each result is normalized, and
// has at most a.size() + b.size() intervals, so one reserve covers it.

// a ∩ b over normalized lists.
std::vector<RectN> intersect1(const std::vector<RectN>& a,
                              const std::vector<RectN>& b) {
  std::vector<RectN> out;
  out.reserve(a.size() + b.size());
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const Coord lo = std::max(a[i].lo[0], b[j].lo[0]);
    const Coord hi = std::min(a[i].hi[0], b[j].hi[0]);
    if (lo <= hi) out.push_back(RectN::make1(lo, hi));
    // The interval ending first cannot meet anything further along the
    // other list.
    if (a[i].hi[0] < b[j].hi[0]) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

// a ∪ b over normalized lists, as maximal runs.
std::vector<RectN> unite1(const std::vector<RectN>& a,
                          const std::vector<RectN>& b) {
  std::vector<RectN> out;
  out.reserve(a.size() + b.size());
  size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    const bool take_a =
        j == b.size() || (i < a.size() && a[i].lo[0] <= b[j].lo[0]);
    const RectN& r = take_a ? a[i++] : b[j++];
    if (!out.empty() && r.lo[0] <= out.back().hi[0] + 1) {
      out.back().hi[0] = std::max(out.back().hi[0], r.hi[0]);
    } else {
      out.push_back(r);
    }
  }
  return out;
}

// a \ b over normalized lists.
std::vector<RectN> subtract1(const std::vector<RectN>& a,
                             const std::vector<RectN>& b) {
  std::vector<RectN> out;
  out.reserve(a.size() + b.size());
  size_t j = 0;
  for (const RectN& r : a) {
    Coord cur = r.lo[0];  // first point of r not yet emitted or removed
    while (j < b.size() && b[j].hi[0] < cur) ++j;
    for (; j < b.size() && b[j].lo[0] <= r.hi[0]; ++j) {
      if (b[j].lo[0] > cur) out.push_back(RectN::make1(cur, b[j].lo[0] - 1));
      cur = b[j].hi[0] + 1;
      // b[j] reaching past r may still cut the next interval of a.
      if (b[j].hi[0] >= r.hi[0]) break;
    }
    if (cur <= r.hi[0]) out.push_back(RectN::make1(cur, r.hi[0]));
  }
  return out;
}
}  // namespace

IndexSubset IndexSubset::intersect(const RectN& r) const {
  IndexSubset out(dim_);
  if (dim_ == 1 && r.dim == 1) {
    if (r.empty()) return out;
    std::vector<RectN> scratch;
    const std::vector<RectN>& a = normalized1(scratch);
    // The window: from the first interval ending at or after r.lo up to the
    // last one starting at or before r.hi.
    const auto first = std::lower_bound(
        a.begin(), a.end(), r.lo[0],
        [](const RectN& s, Coord c) { return s.hi[0] < c; });
    const auto last = std::upper_bound(
        first, a.end(), r.hi[0],
        [](Coord c, const RectN& s) { return c < s.lo[0]; });
    out.rects_.reserve(static_cast<size_t>(last - first));
    for (auto it = first; it != last; ++it) {
      out.rects_.push_back(RectN::make1(std::max(it->lo[0], r.lo[0]),
                                        std::min(it->hi[0], r.hi[0])));
    }
    return out;
  }
  for (const auto& s : rects_) {
    RectN i = s.intersect(r);
    if (!i.empty()) out.add(i);
  }
  out.normalize();
  return out;
}

IndexSubset IndexSubset::intersect(const IndexSubset& o) const {
  IndexSubset out(dim_);
  if (dim_ == 1 && o.dim_ == 1) {
    std::vector<RectN> sa, sb;
    out.rects_ = intersect1(normalized1(sa), o.normalized1(sb));
    return out;
  }
  for (const auto& r : o.rects_) {
    for (const auto& s : rects_) {
      RectN i = s.intersect(r);
      if (!i.empty()) out.add(i);
    }
  }
  out.normalize();
  return out;
}

IndexSubset IndexSubset::unite(const IndexSubset& o) const {
  if (dim_ == 1 && o.dim_ == 1) {
    std::vector<RectN> sa, sb;
    IndexSubset out(1);
    out.rects_ = unite1(normalized1(sa), o.normalized1(sb));
    return out;
  }
  IndexSubset out = *this;
  for (const auto& r : o.rects_) out.add(r);
  out.normalize();
  return out;
}

IndexSubset IndexSubset::subtract(const IndexSubset& o) const {
  if (dim_ == 1 && o.dim_ == 1) {
    std::vector<RectN> sa, sb;
    IndexSubset out(1);
    out.rects_ = subtract1(normalized1(sa), o.normalized1(sb));
    return out;
  }
  std::vector<RectN> cur(rects_);
  for (const auto& b : o.rects()) {
    std::vector<RectN> next;
    for (const auto& a : cur) rect_subtract(a, b, next);
    cur = std::move(next);
    if (cur.empty()) break;
  }
  IndexSubset out(dim_);
  for (const auto& r : cur) out.add(r);
  out.normalize();
  return out;
}

bool IndexSubset::overlaps(const IndexSubset& o) const {
  if (dim_ == 1 && o.dim_ == 1) {
    std::vector<RectN> sa, sb;
    const std::vector<RectN>& a = normalized1(sa);
    const std::vector<RectN>& b = o.normalized1(sb);
    size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i].hi[0] < b[j].lo[0]) {
        ++i;
      } else if (b[j].hi[0] < a[i].lo[0]) {
        ++j;
      } else {
        return true;
      }
    }
    return false;
  }
  for (const auto& r : o.rects()) {
    for (const auto& s : rects_) {
      if (s.overlaps(r)) return true;
    }
  }
  return false;
}

bool IndexSubset::covers(const IndexSubset& o) const {
  if (o.rects_.empty()) return true;
  if (dim_ == 1 && o.dim_ == 1) {
    std::vector<RectN> sa, sb;
    const std::vector<RectN>& a = normalized1(sa);
    const std::vector<RectN>& b = o.normalized1(sb);
    // a is maximally coalesced, so each interval of b must sit inside a
    // single interval of a.
    size_t i = 0;
    for (const RectN& r : b) {
      while (i < a.size() && a[i].hi[0] < r.lo[0]) ++i;
      if (i == a.size() || a[i].lo[0] > r.lo[0] || a[i].hi[0] < r.hi[0]) {
        return false;
      }
    }
    return true;
  }
  return o.subtract(*this).empty();
}

RectN IndexSubset::bounds() const {
  SPD_ASSERT(!rects_.empty(), "IndexSubset::bounds on empty subset");
  RectN b = rects_.front();
  for (const auto& r : rects_) {
    for (int d = 0; d < dim_; ++d) {
      b.lo[d] = std::min(b.lo[d], r.lo[d]);
      b.hi[d] = std::max(b.hi[d], r.hi[d]);
    }
  }
  return b;
}

bool any_pairwise_overlap(const std::vector<const IndexSubset*>& subsets) {
  bool all_1d = true;
  size_t total = 0;
  for (const IndexSubset* s : subsets) {
    if (s->rects().empty()) continue;
    all_1d = all_1d && s->dim() == 1;
    total += s->rects().size();
  }
  if (!all_1d) {
    for (size_t b = 1; b < subsets.size(); ++b) {
      for (size_t a = 0; a < b; ++a) {
        if (subsets[a]->overlaps(*subsets[b])) return true;
      }
    }
    return false;
  }
  struct Tagged {
    Coord lo, hi;
    size_t owner;
  };
  std::vector<Tagged> all;
  all.reserve(total);
  for (size_t k = 0; k < subsets.size(); ++k) {
    for (const RectN& r : subsets[k]->rects()) {
      all.push_back(Tagged{r.lo[0], r.hi[0], k});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const Tagged& a, const Tagged& b) { return a.lo < b.lo; });
  // Sweep in lo order against the earlier rect reaching furthest. Exact:
  // the first rect that meets an earlier rect of another owner also meets
  // the furthest-reaching one, and if that one shared its owner it would
  // itself have met the other owner's rect earlier in the sweep.
  const Tagged* reach = nullptr;
  for (const Tagged& t : all) {
    if (reach != nullptr && t.lo <= reach->hi && t.owner != reach->owner) {
      return true;
    }
    if (reach == nullptr || t.hi > reach->hi) reach = &t;
  }
  return false;
}

std::string IndexSubset::str() const {
  std::vector<std::string> parts;
  parts.reserve(rects_.size());
  for (const auto& r : rects_) parts.push_back(r.str());
  std::string out = "{";
  out += join(parts, ", ");
  out += '}';
  return out;
}

int64_t linearize(const RectN& bounds, const std::array<Coord, kMaxDim>& p) {
  int64_t idx = 0;
  for (int d = 0; d < bounds.dim; ++d) {
    idx = idx * (bounds.hi[d] - bounds.lo[d] + 1) + (p[d] - bounds.lo[d]);
  }
  return idx;
}

}  // namespace spdistal::rt
