#include "runtime/partition.h"

#include <algorithm>
#include <atomic>

#include "common/error.h"
#include "common/str_util.h"

namespace spdistal::rt {

uint64_t Partition::next_uid() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

bool Partition::disjoint() const {
  std::vector<const IndexSubset*> colors;
  colors.reserve(subsets_.size());
  for (const IndexSubset& s : subsets_) colors.push_back(&s);
  return !any_pairwise_overlap(colors);
}

bool Partition::complete() const {
  IndexSubset u(parent_.dim());
  for (const auto& s : subsets_) {
    for (const auto& r : s.rects()) u.add(r);
  }
  u.normalize();
  // After normalization the union's rects are pairwise disjoint in any
  // dimension, so its volume is exact. A rect escaping the parent would
  // inflate it and mask a hole, so escapes fail loudly instead.
  for (const auto& r : u.rects()) {
    SPD_ASSERT(parent_.bounds().contains(r), "subset escapes parent space");
  }
  return u.volume() == parent_.volume();
}

std::string Partition::str() const {
  std::vector<std::string> parts;
  for (int c = 0; c < num_colors(); ++c) {
    parts.push_back(strprintf("%d: %s", c, subsets_[c].str().c_str()));
  }
  return join(parts, "\n");
}

Partition partition_by_bounds(const IndexSpace& space,
                              const std::vector<RectN>& bounds) {
  std::vector<IndexSubset> subsets;
  subsets.reserve(bounds.size());
  for (const auto& b : bounds) {
    SPD_ASSERT(b.dim == space.dim(), "partition_by_bounds: dim mismatch");
    IndexSubset s(space.dim());
    RectN clipped = b.intersect(space.bounds());
    if (!clipped.empty()) s.add(clipped);
    s.normalize();
    subsets.push_back(std::move(s));
  }
  return Partition(space, std::move(subsets));
}

Partition partition_equal(const IndexSpace& space, int pieces, int dim) {
  SPD_ASSERT(pieces >= 1, "partition_equal: pieces < 1");
  SPD_ASSERT(dim >= 0 && dim < space.dim(), "partition_equal: bad dim");
  const Rect1 d = space.bounds().dim_rect(dim);
  const Coord n = d.size();
  const Coord base = n / pieces;
  const Coord rem = n % pieces;
  std::vector<RectN> bounds;
  bounds.reserve(static_cast<size_t>(pieces));
  Coord at = d.lo;
  for (int c = 0; c < pieces; ++c) {
    // Trailing `rem` pieces take one extra coordinate.
    const Coord len = base + (c >= pieces - rem ? 1 : 0);
    RectN r = space.bounds();
    r.lo[dim] = at;
    r.hi[dim] = at + len - 1;
    at += len;
    bounds.push_back(r);
  }
  return partition_by_bounds(space, bounds);
}

Partition partition_by_value_ranges(const Region<int32_t>& crd,
                                    const std::vector<Rect1>& ranges) {
  return partition_by_value_ranges(crd, crd.space().as_subset(), ranges);
}

Partition partition_by_value_ranges(const Region<int32_t>& crd,
                                    const IndexSubset& positions,
                                    const std::vector<Rect1>& ranges) {
  SPD_ASSERT(crd.space().dim() == 1, "crd regions are 1-D");
  std::vector<IndexSubset> subsets(ranges.size(), IndexSubset(1));
  // Scan positions once, extending a run per color; crd values are sorted
  // within pos segments, so runs are long in practice.
  std::vector<Rect1> open(ranges.size(), Rect1{0, -1});
  auto flush = [&](size_t c) {
    if (!open[c].empty()) {
      subsets[c].add(RectN(open[c]));
      open[c] = Rect1{0, -1};
    }
  };
  auto extend = [&](size_t c, Coord p) {
    if (!open[c].empty() && open[c].hi == p - 1) {
      open[c].hi = p;
    } else {
      flush(c);
      open[c] = Rect1{p, p};
    }
  };
  // Universe bounds from equal_bounds are sorted and disjoint; binary-search
  // the color per coordinate then (O(nnz log pieces) instead of the
  // O(nnz × pieces) per-color probe). Arbitrary (overlapping or unsorted)
  // ranges keep the exhaustive scan.
  std::vector<std::pair<Rect1, size_t>> lookup;  // non-empty range -> color
  for (size_t c = 0; c < ranges.size(); ++c) {
    if (!ranges[c].empty()) lookup.push_back({ranges[c], c});
  }
  bool sorted_disjoint = true;
  for (size_t k = 1; k < lookup.size(); ++k) {
    if (lookup[k - 1].first.hi >= lookup[k].first.lo) sorted_disjoint = false;
  }
  for (const auto& rect : positions.rects()) {
    for (Coord p = rect.lo[0]; p <= rect.hi[0]; ++p) {
      const int32_t v = crd[p];
      if (sorted_disjoint) {
        // Last range whose lo <= v; it is the only possible owner.
        auto it = std::upper_bound(
            lookup.begin(), lookup.end(), static_cast<Coord>(v),
            [](Coord x, const std::pair<Rect1, size_t>& e) {
              return x < e.first.lo;
            });
        if (it == lookup.begin()) continue;
        --it;
        if (it->first.contains(v)) extend(it->second, p);
        continue;
      }
      for (size_t c = 0; c < ranges.size(); ++c) {
        if (ranges[c].contains(v)) extend(c, p);
      }
    }
  }
  for (size_t c = 0; c < ranges.size(); ++c) flush(c);
  for (auto& s : subsets) s.normalize();
  return Partition(crd.space(), std::move(subsets));
}

Partition image(const Region<PosRange>& pos, const Partition& pos_part,
                const IndexSpace& crd_space) {
  SPD_ASSERT(pos.space().dim() == 1, "pos regions are 1-D");
  std::vector<IndexSubset> subsets;
  subsets.reserve(static_cast<size_t>(pos_part.num_colors()));
  for (int c = 0; c < pos_part.num_colors(); ++c) {
    IndexSubset out(1);
    for (const auto& rect : pos_part.subset(c).rects()) {
      for (Coord i = rect.lo[0]; i <= rect.hi[0]; ++i) {
        const PosRange& pr = pos[i];
        if (!pr.empty()) out.add(RectN::make1(pr.lo, pr.hi));
      }
    }
    out.normalize();
    subsets.push_back(std::move(out));
  }
  return Partition(crd_space, std::move(subsets));
}

Partition preimage(const Region<PosRange>& pos, const Partition& crd_part) {
  SPD_ASSERT(pos.space().dim() == 1, "pos regions are 1-D");
  const Rect1 pos_dom = pos.space().bounds().dim_rect(0);
  std::vector<IndexSubset> subsets;
  subsets.reserve(static_cast<size_t>(crd_part.num_colors()));
  for (int c = 0; c < crd_part.num_colors(); ++c) {
    const IndexSubset& crd_sub = crd_part.subset(c);
    // Normalized 1-D subsets are sorted by lo and disjoint, so both lo and
    // hi ascend: the first rect with hi >= pr.lo is the only candidate for
    // an intersection (O(log rects) instead of a linear probe per entry).
    // Unnormalized inputs keep the exhaustive probe.
    const std::vector<RectN>& rects = crd_sub.rects();
    bool sorted_disjoint = true;
    for (size_t k = 1; k < rects.size(); ++k) {
      if (rects[k - 1].hi[0] >= rects[k].lo[0]) sorted_disjoint = false;
    }
    IndexSubset out(1);
    Rect1 run{0, -1};
    for (Coord i = pos_dom.lo; i <= pos_dom.hi; ++i) {
      const PosRange& pr = pos[i];
      bool hit = false;
      if (!pr.empty() && sorted_disjoint) {
        auto it = std::lower_bound(
            rects.begin(), rects.end(), pr.lo,
            [](const RectN& r, Coord x) { return r.hi[0] < x; });
        hit = it != rects.end() && it->lo[0] <= pr.hi;
      } else if (!pr.empty()) {
        for (const auto& r : rects) {
          if (r.lo[0] <= pr.hi && pr.lo <= r.hi[0]) {
            hit = true;
            break;
          }
        }
      }
      if (hit) {
        if (!run.empty() && run.hi == i - 1) {
          run.hi = i;
        } else {
          if (!run.empty()) out.add(RectN(run));
          run = Rect1{i, i};
        }
      }
    }
    if (!run.empty()) out.add(RectN(run));
    out.normalize();
    subsets.push_back(std::move(out));
  }
  return Partition(pos.space(), std::move(subsets));
}

Partition copy_partition(const Partition& part, const IndexSpace& new_parent) {
  SPD_ASSERT(new_parent.dim() == part.parent().dim(),
             "copy_partition: dim mismatch");
  std::vector<IndexSubset> subsets;
  subsets.reserve(static_cast<size_t>(part.num_colors()));
  for (int c = 0; c < part.num_colors(); ++c) {
    subsets.push_back(part.subset(c).intersect(new_parent.bounds()));
  }
  return Partition(new_parent, std::move(subsets));
}

Partition lift_to_dim(const Partition& part1d, const IndexSpace& nd_space,
                      int dim) {
  SPD_ASSERT(part1d.parent().dim() == 1, "lift_to_dim: source must be 1-D");
  SPD_ASSERT(dim >= 0 && dim < nd_space.dim(), "lift_to_dim: bad dim");
  std::vector<IndexSubset> subsets;
  subsets.reserve(static_cast<size_t>(part1d.num_colors()));
  for (int c = 0; c < part1d.num_colors(); ++c) {
    IndexSubset out(nd_space.dim());
    for (const auto& r : part1d.subset(c).rects()) {
      RectN nd = nd_space.bounds();
      nd.lo[dim] = std::max(nd.lo[dim], r.lo[0]);
      nd.hi[dim] = std::min(nd.hi[dim], r.hi[0]);
      if (!nd.empty()) out.add(nd);
    }
    out.normalize();
    subsets.push_back(std::move(out));
  }
  return Partition(nd_space, std::move(subsets));
}

Partition partition_grid2(const IndexSpace& space, int pieces_x, int pieces_y) {
  SPD_ASSERT(space.dim() == 2, "partition_grid2 requires a 2-D space");
  const Partition px = partition_equal(space, pieces_x, 0);
  std::vector<RectN> tiles;
  tiles.reserve(static_cast<size_t>(pieces_x * pieces_y));
  // An empty row block (pieces_x > row extent) must still contribute
  // dim-2 rects: a default RectN is 1-D and would trip the dimension
  // check in partition_by_bounds.
  RectN empty_row;
  empty_row.dim = 2;
  for (int x = 0; x < pieces_x; ++x) {
    const RectN row = px.subset(x).rects().empty()
                          ? empty_row
                          : px.subset(x).rects()[0];
    // Split the row block along dimension 1.
    const Rect1 cols = space.bounds().dim_rect(1);
    const Coord n = cols.size();
    const Coord base = n / pieces_y;
    const Coord rem = n % pieces_y;
    Coord at = cols.lo;
    for (int y = 0; y < pieces_y; ++y) {
      const Coord len = base + (y >= pieces_y - rem ? 1 : 0);
      RectN t = row;
      t.lo[1] = at;
      t.hi[1] = at + len - 1;
      at += len;
      tiles.push_back(t);
    }
  }
  return partition_by_bounds(space, tiles);
}

}  // namespace spdistal::rt
