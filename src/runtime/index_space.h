// Index spaces: the foundation of the Legion-like runtime substrate.
//
// An index space names a set of multi-dimensional coordinates (paper §III-A).
// Dense index spaces are rectangles; partition operations produce possibly
// irregular subsets which we represent as unions of rectangles (coalesced
// interval lists in the common 1-D case).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace spdistal::rt {

using Coord = int64_t;

// Maximum tensor order supported by the N-D machinery. The paper evaluates
// up to 3-tensors; 4 leaves room for fused/blocked dimensions.
inline constexpr int kMaxDim = 4;

// Inclusive 1-D interval [lo, hi]. Empty iff lo > hi.
struct Rect1 {
  Coord lo = 0;
  Coord hi = -1;

  bool empty() const { return lo > hi; }
  Coord size() const { return empty() ? 0 : hi - lo + 1; }
  bool contains(Coord p) const { return p >= lo && p <= hi; }
  bool contains(const Rect1& r) const {
    return r.empty() || (lo <= r.lo && r.hi <= hi);
  }
  bool overlaps(const Rect1& r) const {
    return !empty() && !r.empty() && lo <= r.hi && r.lo <= hi;
  }
  Rect1 intersect(const Rect1& r) const {
    return Rect1{lo > r.lo ? lo : r.lo, hi < r.hi ? hi : r.hi};
  }
  bool operator==(const Rect1& r) const = default;
};

// Inclusive N-D rectangle (product of per-dimension intervals).
struct RectN {
  int dim = 1;
  std::array<Coord, kMaxDim> lo{};
  std::array<Coord, kMaxDim> hi{};

  RectN() { hi.fill(-1); }
  explicit RectN(Rect1 r) : dim(1) {
    lo[0] = r.lo;
    hi[0] = r.hi;
  }
  RectN(std::initializer_list<Coord> los, std::initializer_list<Coord> his);

  static RectN make1(Coord lo, Coord hi);
  static RectN make2(Coord lo0, Coord hi0, Coord lo1, Coord hi1);
  static RectN make3(Coord lo0, Coord hi0, Coord lo1, Coord hi1, Coord lo2,
                     Coord hi2);

  bool empty() const;
  // Number of points; 0 if empty.
  int64_t volume() const;
  Rect1 dim_rect(int d) const { return Rect1{lo[d], hi[d]}; }
  bool contains(const RectN& r) const;
  bool contains_point(const std::array<Coord, kMaxDim>& p) const;
  bool overlaps(const RectN& r) const;
  RectN intersect(const RectN& r) const;
  bool operator==(const RectN& r) const;
  std::string str() const;
};

// A set of coordinates represented as a union of rectangles.
//
// Invariant after normalize(): rectangles are pairwise disjoint; in 1-D they
// are additionally sorted by lo and maximally coalesced.
//
// Cost: when both operands are 1-D, intersect/subtract/unite/overlaps/covers
// are linear sweeps over the two sorted interval lists (O(n + m)) and return
// normalized results. An operand that breaks the invariant is normalized
// into a local copy first (never in place). N-D operands take the pairwise
// rect-by-rect paths.
class IndexSubset {
 public:
  IndexSubset() = default;
  explicit IndexSubset(int dim) : dim_(dim) {}
  explicit IndexSubset(const RectN& r) : dim_(r.dim) { add(r); }

  int dim() const { return dim_; }
  bool empty() const;
  int64_t volume() const;
  const std::vector<RectN>& rects() const { return rects_; }

  // Adds a rectangle (dropped if empty). Caller should normalize() after a
  // batch of adds before relying on set semantics.
  void add(const RectN& r);
  // Sorts, merges adjacent/overlapping rectangles (1-D; a no-op on lists
  // that already satisfy the invariant); deduplicates, removes contained
  // rectangles and splits partial overlaps into disjoint pieces (N-D).
  void normalize();

  bool contains_point(const std::array<Coord, kMaxDim>& p) const;
  bool contains_point1(Coord p) const;

  // Set intersection with a rectangle / another subset.
  IndexSubset intersect(const RectN& r) const;
  IndexSubset intersect(const IndexSubset& o) const;
  // Set union (normalizes).
  IndexSubset unite(const IndexSubset& o) const;
  // Set difference: this \ o (exact in any dimension).
  IndexSubset subtract(const IndexSubset& o) const;
  // True if the two subsets share any point.
  bool overlaps(const IndexSubset& o) const;
  // True if every point of `o` is in this subset (this ⊇ o). 1-D: early
  // exit, no allocation on normalized operands.
  bool covers(const IndexSubset& o) const;

  // Tight bounding rectangle (undefined on empty subsets).
  RectN bounds() const;

  std::string str() const;

 private:
  // 1-D only: the rect list in normalized form — rects_ itself when it
  // already satisfies the invariant, else a normalized copy in `scratch`.
  const std::vector<RectN>& normalized1(std::vector<RectN>& scratch) const;

  int dim_ = 1;
  std::vector<RectN> rects_;
  // 1-D: rects_ meets the normalize() invariant. Kept exact in O(1) by
  // add() (an append past the last rect's end plus a gap keeps it), so
  // already-normalized operands skip any re-check.
  bool normalized1_ = true;
};

// True iff two different entries of `subsets` share a point. When every
// non-empty subset is 1-D this is one sort-and-sweep over all rects tagged
// by their index (O(N log N) in the total rect count N); otherwise the
// pairwise overlaps() loop.
bool any_pairwise_overlap(const std::vector<const IndexSubset*>& subsets);

// A dense rectangular index space, as associated with a region (§III-A).
class IndexSpace {
 public:
  IndexSpace() = default;
  explicit IndexSpace(const RectN& bounds) : bounds_(bounds) {}
  // 1-D convenience: [0, n).
  explicit IndexSpace(Coord n) : bounds_(RectN::make1(0, n - 1)) {}

  int dim() const { return bounds_.dim; }
  const RectN& bounds() const { return bounds_; }
  int64_t volume() const { return bounds_.volume(); }
  IndexSubset as_subset() const { return IndexSubset(bounds_); }

 private:
  RectN bounds_;
};

// Linearizes an N-D point within a bounding rectangle (row-major order).
int64_t linearize(const RectN& bounds, const std::array<Coord, kMaxDim>& p);

}  // namespace spdistal::rt
