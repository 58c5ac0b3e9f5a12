// Unit tests for index spaces, rectangles, and subset algebra.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "runtime/index_space.h"
#include "runtime/partition.h"

namespace spdistal::rt {
namespace {

TEST(Rect1, Basics) {
  Rect1 r{2, 5};
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.size(), 4);
  EXPECT_TRUE(r.contains(2));
  EXPECT_TRUE(r.contains(5));
  EXPECT_FALSE(r.contains(6));
  Rect1 e{3, 1};
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.size(), 0);
}

TEST(Rect1, IntersectAndOverlap) {
  Rect1 a{0, 10};
  Rect1 b{5, 15};
  EXPECT_TRUE(a.overlaps(b));
  Rect1 i = a.intersect(b);
  EXPECT_EQ(i.lo, 5);
  EXPECT_EQ(i.hi, 10);
  Rect1 c{11, 20};
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_TRUE(a.intersect(c).empty());
}

TEST(RectN, VolumeAndContains) {
  RectN r = RectN::make2(0, 3, 0, 4);
  EXPECT_EQ(r.volume(), 20);
  EXPECT_TRUE(r.contains(RectN::make2(1, 2, 1, 2)));
  EXPECT_FALSE(r.contains(RectN::make2(1, 4, 0, 0)));
  EXPECT_TRUE(r.contains_point({3, 4}));
  EXPECT_FALSE(r.contains_point({4, 0}));
}

TEST(RectN, EmptyVolume) {
  RectN r = RectN::make2(0, 3, 5, 4);  // second dim empty
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.volume(), 0);
}

TEST(RectN, Intersect3D) {
  RectN a = RectN::make3(0, 9, 0, 9, 0, 9);
  RectN b = RectN::make3(5, 14, 3, 7, 9, 20);
  RectN i = a.intersect(b);
  EXPECT_EQ(i, RectN::make3(5, 9, 3, 7, 9, 9));
  EXPECT_EQ(i.volume(), 5 * 5 * 1);
}

TEST(IndexSubset, NormalizeCoalesces1D) {
  IndexSubset s(1);
  s.add(RectN::make1(5, 9));
  s.add(RectN::make1(0, 4));
  s.add(RectN::make1(12, 15));
  s.normalize();
  ASSERT_EQ(s.rects().size(), 2u);
  EXPECT_EQ(s.rects()[0], RectN::make1(0, 9));
  EXPECT_EQ(s.rects()[1], RectN::make1(12, 15));
  EXPECT_EQ(s.volume(), 14);
}

TEST(IndexSubset, NormalizeMergesOverlapping) {
  IndexSubset s(1);
  s.add(RectN::make1(0, 10));
  s.add(RectN::make1(5, 20));
  s.normalize();
  ASSERT_EQ(s.rects().size(), 1u);
  EXPECT_EQ(s.volume(), 21);
}

TEST(IndexSubset, IntersectSubsets) {
  IndexSubset a(1);
  a.add(RectN::make1(0, 9));
  a.add(RectN::make1(20, 29));
  a.normalize();
  IndexSubset b(1);
  b.add(RectN::make1(5, 24));
  b.normalize();
  IndexSubset i = a.intersect(b);
  EXPECT_EQ(i.volume(), 5 + 5);
  EXPECT_TRUE(i.contains_point1(5));
  EXPECT_TRUE(i.contains_point1(24));
  EXPECT_FALSE(i.contains_point1(10));
}

TEST(IndexSubset, Subtract1D) {
  IndexSubset a(1);
  a.add(RectN::make1(0, 99));
  a.normalize();
  IndexSubset b(1);
  b.add(RectN::make1(10, 19));
  b.add(RectN::make1(50, 59));
  b.normalize();
  IndexSubset d = a.subtract(b);
  EXPECT_EQ(d.volume(), 80);
  EXPECT_TRUE(d.contains_point1(0));
  EXPECT_FALSE(d.contains_point1(15));
  EXPECT_FALSE(d.contains_point1(55));
  EXPECT_TRUE(d.contains_point1(99));
}

TEST(IndexSubset, Subtract2D) {
  IndexSubset a(2);
  a.add(RectN::make2(0, 9, 0, 9));
  IndexSubset b(2);
  b.add(RectN::make2(3, 5, 3, 5));
  IndexSubset d = a.subtract(b);
  EXPECT_EQ(d.volume(), 100 - 9);
  EXPECT_FALSE(d.contains_point({4, 4}));
  EXPECT_TRUE(d.contains_point({0, 0}));
  EXPECT_TRUE(d.contains_point({4, 6}));
}

TEST(IndexSubset, SubtractSelfIsEmpty) {
  IndexSubset a(1);
  a.add(RectN::make1(3, 17));
  a.normalize();
  EXPECT_TRUE(a.subtract(a).empty());
}

TEST(IndexSubset, UniteDisjointAndOverlap) {
  IndexSubset a(1);
  a.add(RectN::make1(0, 4));
  a.normalize();
  IndexSubset b(1);
  b.add(RectN::make1(3, 9));
  b.normalize();
  EXPECT_EQ(a.unite(b).volume(), 10);
  EXPECT_TRUE(a.overlaps(b));
}

TEST(IndexSubset, Bounds) {
  IndexSubset a(1);
  a.add(RectN::make1(5, 9));
  a.add(RectN::make1(20, 22));
  a.normalize();
  EXPECT_EQ(a.bounds(), RectN::make1(5, 22));
}

TEST(IndexSpace, Basics) {
  IndexSpace s(100);
  EXPECT_EQ(s.dim(), 1);
  EXPECT_EQ(s.volume(), 100);
  IndexSpace m(RectN::make2(0, 9, 0, 19));
  EXPECT_EQ(m.volume(), 200);
}

TEST(Linearize, RowMajor2D) {
  RectN b = RectN::make2(0, 3, 0, 4);
  EXPECT_EQ(linearize(b, {0, 0}), 0);
  EXPECT_EQ(linearize(b, {1, 0}), 5);
  EXPECT_EQ(linearize(b, {3, 4}), 19);
}

// Property: subtract/unite/intersect satisfy set identities on random
// interval soups.
class SubsetAlgebraProperty : public ::testing::TestWithParam<int> {};

TEST_P(SubsetAlgebraProperty, Identities) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  auto random_subset = [&](int universe) {
    IndexSubset s(1);
    const int n = static_cast<int>(rng.next_below(6)) + 1;
    for (int i = 0; i < n; ++i) {
      const Coord lo = rng.next_range(0, universe - 1);
      const Coord hi = std::min<Coord>(universe - 1,
                                       lo + rng.next_range(0, universe / 4));
      s.add(RectN::make1(lo, hi));
    }
    s.normalize();
    return s;
  };
  const int universe = 200;
  IndexSubset a = random_subset(universe);
  IndexSubset b = random_subset(universe);

  // |A| = |A∩B| + |A\B|
  EXPECT_EQ(a.volume(), a.intersect(b).volume() + a.subtract(b).volume());
  // |A∪B| = |A| + |B| - |A∩B|
  EXPECT_EQ(a.unite(b).volume(),
            a.volume() + b.volume() - a.intersect(b).volume());
  // (A\B) ∩ B = ∅
  EXPECT_TRUE(a.subtract(b).intersect(b).empty());
  // A\B ∪ (A∩B) = A
  EXPECT_EQ(a.subtract(b).unite(a.intersect(b)).volume(), a.volume());
  // Point-level agreement on a sample of coordinates.
  for (Coord p = 0; p < universe; p += 7) {
    const bool in_a = a.contains_point1(p);
    const bool in_b = b.contains_point1(p);
    EXPECT_EQ(a.intersect(b).contains_point1(p), in_a && in_b);
    EXPECT_EQ(a.unite(b).contains_point1(p), in_a || in_b);
    EXPECT_EQ(a.subtract(b).contains_point1(p), in_a && !in_b);
  }
}

// True iff `s` meets the 1-D normalize() invariant: non-empty rects,
// sorted by lo, pairwise disjoint and non-adjacent.
bool is_normalized1(const IndexSubset& s) {
  const auto& rs = s.rects();
  for (size_t k = 0; k < rs.size(); ++k) {
    if (rs[k].dim != 1 || rs[k].empty()) return false;
    if (k > 0 && rs[k - 1].hi[0] + 1 >= rs[k].lo[0]) return false;
  }
  return true;
}

// Point membership of a 1-D subset over [0, universe), from its raw rects.
std::vector<bool> points1(const IndexSubset& s, Coord universe) {
  std::vector<bool> in(static_cast<size_t>(universe), false);
  for (const auto& r : s.rects()) {
    for (Coord p = r.lo[0]; p <= r.hi[0]; ++p) in[static_cast<size_t>(p)] = true;
  }
  return in;
}

// Differential check against a brute-force point oracle on unnormalized
// interval soups: unsorted, overlapping, adjacent and duplicate rects, and
// empty operands. Inputs are never normalized by the caller, must not be
// modified by the operations, and every 1-D result must already be
// normalized.
TEST_P(SubsetAlgebraProperty, MatchesPointOracle) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  const Coord universes[] = {40, 1000, 10000};
  const Coord universe = universes[rng.next_below(3)];
  auto soup = [&] {
    IndexSubset s(1);
    if (rng.next_below(6) == 0) return s;  // empty operand
    const int n = static_cast<int>(rng.next_below(200)) + 1;
    std::vector<RectN> made;
    for (int i = 0; i < n; ++i) {
      Coord lo = rng.next_range(0, universe - 1);
      Coord hi = lo + rng.next_range(0, std::max<Coord>(1, universe / 64));
      if (!made.empty()) {
        const RectN& prev = made[rng.next_below(made.size())];
        switch (rng.next_below(4)) {
          case 0:  // adjacent to an earlier rect
            lo = prev.hi[0] + 1;
            hi = lo + rng.next_range(0, 5);
            break;
          case 1:  // duplicate
            lo = prev.lo[0];
            hi = prev.hi[0];
            break;
          case 2:  // overlapping an earlier rect
            lo = rng.next_range(prev.lo[0], prev.hi[0]);
            break;
          default:  // independent
            break;
        }
      }
      hi = std::min<Coord>(hi, universe - 1);
      if (lo > hi) continue;
      made.push_back(RectN::make1(lo, hi));
      s.add(made.back());
    }
    return s;
  };
  const IndexSubset a = soup();
  const IndexSubset b = soup();
  const std::vector<RectN> a_rects = a.rects();
  const std::vector<RectN> b_rects = b.rects();
  const std::vector<bool> in_a = points1(a, universe);
  const std::vector<bool> in_b = points1(b, universe);

  auto expect_matches = [&](const IndexSubset& got,
                            const std::function<bool(bool, bool)>& op,
                            const char* what) {
    EXPECT_TRUE(is_normalized1(got)) << what << " = " << got.str();
    const std::vector<bool> in = points1(got, universe);
    int64_t volume = 0;
    for (Coord p = 0; p < universe; ++p) {
      const size_t k = static_cast<size_t>(p);
      const bool want = op(in_a[k], in_b[k]);
      volume += want ? 1 : 0;
      if (in[k] != want) {
        ADD_FAILURE() << what << " disagrees with the oracle at " << p;
        return;
      }
    }
    EXPECT_EQ(got.volume(), volume) << what;
  };
  expect_matches(a.intersect(b), [](bool x, bool y) { return x && y; },
                 "intersect");
  expect_matches(a.subtract(b), [](bool x, bool y) { return x && !y; },
                 "subtract");
  expect_matches(a.unite(b), [](bool x, bool y) { return x || y; }, "unite");

  bool any_shared = false, a_has_all_b = true;
  for (size_t k = 0; k < in_a.size(); ++k) {
    any_shared = any_shared || (in_a[k] && in_b[k]);
    a_has_all_b = a_has_all_b && (in_a[k] || !in_b[k]);
  }
  EXPECT_EQ(a.overlaps(b), any_shared);
  EXPECT_EQ(b.overlaps(a), any_shared);
  EXPECT_EQ(a.covers(b), a_has_all_b);
  // Every set covers itself, its intersection and its difference.
  EXPECT_TRUE(a.covers(a));
  EXPECT_TRUE(a.covers(a.intersect(b)));
  EXPECT_TRUE(a.covers(a.subtract(b)));
  EXPECT_TRUE(a.unite(b).covers(b));

  // Rect windows: one inside the universe, one straddling its end.
  const Coord wlo = rng.next_range(0, universe - 1);
  const RectN window =
      RectN::make1(wlo, wlo + rng.next_range(0, universe / 3));
  const IndexSubset w = a.intersect(window);
  EXPECT_TRUE(is_normalized1(w)) << w.str();
  for (Coord p = 0; p < universe; ++p) {
    ASSERT_EQ(w.contains_point({p}),
              in_a[static_cast<size_t>(p)] && window.contains_point({p}))
        << "intersect(rect) at " << p;
  }

  // Point queries on the raw soups (binary search only when normalized).
  for (Coord p = 0; p < universe; ++p) {
    ASSERT_EQ(a.contains_point1(p), in_a[static_cast<size_t>(p)]) << p;
  }

  // The operands were never normalized in place.
  EXPECT_EQ(a.rects(), a_rects);
  EXPECT_EQ(b.rects(), b_rects);
}

// The rect-by-rect N-D path against a point oracle on a 2-D grid.
TEST_P(SubsetAlgebraProperty, MatchesPointOracle2D) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 15485863 + 3);
  const Coord n = 24;
  auto soup = [&] {
    IndexSubset s(2);
    const int count = static_cast<int>(rng.next_below(6));
    for (int i = 0; i < count; ++i) {
      const Coord x = rng.next_range(0, n - 1), y = rng.next_range(0, n - 1);
      s.add(RectN::make2(x, std::min<Coord>(n - 1, x + rng.next_range(0, 8)),
                         y, std::min<Coord>(n - 1, y + rng.next_range(0, 8))));
    }
    return s;
  };
  const IndexSubset a = soup();
  const IndexSubset b = soup();
  const IndexSubset i = a.intersect(b), d = a.subtract(b), u = a.unite(b);
  bool any_shared = false, a_has_all_b = true;
  int64_t i_points = 0, d_points = 0, u_points = 0;
  for (Coord x = 0; x < n; ++x) {
    for (Coord y = 0; y < n; ++y) {
      const bool in_a = a.contains_point({x, y});
      const bool in_b = b.contains_point({x, y});
      ASSERT_EQ(i.contains_point({x, y}), in_a && in_b) << x << "," << y;
      ASSERT_EQ(d.contains_point({x, y}), in_a && !in_b) << x << "," << y;
      ASSERT_EQ(u.contains_point({x, y}), in_a || in_b) << x << "," << y;
      any_shared = any_shared || (in_a && in_b);
      a_has_all_b = a_has_all_b && (in_a || !in_b);
      i_points += in_a && in_b;
      d_points += in_a && !in_b;
      u_points += in_a || in_b;
    }
  }
  EXPECT_EQ(a.overlaps(b), any_shared);
  EXPECT_EQ(a.covers(b), a_has_all_b);
  // Normalized N-D results are pairwise disjoint, so volume() counts every
  // point once.
  EXPECT_EQ(i.volume(), i_points);
  EXPECT_EQ(d.volume(), d_points);
  EXPECT_EQ(u.volume(), u_points);
}

// Partially overlapping N-D rects (neither contains the other) are split on
// normalize: the union of two 10x10 tiles sharing a 5x10 strip holds 150
// points, not 200.
TEST(IndexSubset, PartialOverlapVolumeCountsPointsOnce) {
  IndexSubset a(RectN::make2(0, 9, 0, 9));
  IndexSubset b(RectN::make2(5, 14, 0, 9));
  const IndexSubset u = a.unite(b);
  EXPECT_EQ(u.volume(), 150);
  for (size_t x = 0; x < u.rects().size(); ++x) {
    for (size_t y = x + 1; y < u.rects().size(); ++y) {
      EXPECT_FALSE(u.rects()[x].overlaps(u.rects()[y]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSoups, SubsetAlgebraProperty,
                         ::testing::Range(0, 25));

// Complexity guard: 1-D set algebra is linear in the interval count. Growing
// both operands 10x must grow the time ~10x (a pairwise rect-by-rect
// implementation grows ~100x). A ratio of best-of-k timings, so it holds
// under sanitizers and on slow machines.
TEST(IndexSubset, OneDimOpsScaleLinearly) {
  // a: [10k, 10k+6]; b: [10k+3, 10k+8] (interleaved, overlapping);
  // c: [10k+8, 10k+8] (interleaved with a, disjoint from it).
  auto lists = [](Coord n) {
    std::array<IndexSubset, 3> s{IndexSubset(1), IndexSubset(1),
                                 IndexSubset(1)};
    for (Coord k = 0; k < n; ++k) {
      s[0].add(RectN::make1(k * 10, k * 10 + 6));
      s[1].add(RectN::make1(k * 10 + 3, k * 10 + 8));
      s[2].add(RectN::make1(k * 10 + 8, k * 10 + 8));
    }
    return s;
  };
  auto best_us = [](const std::function<void()>& op) {
    double best = 1e300;
    for (int trial = 0; trial < 7; ++trial) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int rep = 0; rep < 3; ++rep) op();
      const std::chrono::duration<double, std::micro> dt =
          std::chrono::steady_clock::now() - t0;
      best = std::min(best, dt.count() / 3);
    }
    return best;
  };
  // The n-sized runs cycle through ten separate copies, so both sizes
  // stream the same ~1.4 MB per list and the ratio measures the algorithm,
  // not which cache level the lists fit in.
  const Coord n = 2000;
  std::vector<std::array<IndexSubset, 3>> small;
  for (int copy = 0; copy < 10; ++copy) small.push_back(lists(n));
  const auto large = lists(10 * n);
  const std::pair<const char*,
                  std::function<int64_t(const std::array<IndexSubset, 3>&)>>
      ops[] = {
          {"subtract", [](const auto& s) { return s[0].subtract(s[1]).volume(); }},
          {"intersect",
           [](const auto& s) { return s[0].intersect(s[1]).volume(); }},
          {"unite", [](const auto& s) { return s[0].unite(s[1]).volume(); }},
          {"overlaps",
           [](const auto& s) { return int64_t{s[0].overlaps(s[2])}; }},
      };
  for (const auto& [name, op] : ops) {
    int64_t sink = 0;
    size_t next = 0;
    const double t_small =
        best_us([&] { sink += op(small[next++ % small.size()]); });
    const double t_large = best_us([&] { sink += op(large); });
    EXPECT_GT(sink, -1);
    const double ratio = t_large / std::max(t_small, 1e-3);
    EXPECT_LT(ratio, 30.0) << name << ": " << t_small << " us at n=" << n
                           << ", " << t_large << " us at 10n";
  }
}

// any_pairwise_overlap's 1-D sweep agrees with the pairwise overlaps() loop
// (what Partition::disjoint and LaunchPlan's per-requirement overlap scan
// used to run) on 256-color disjoint, touching and overlapping partitions.
TEST(AnyPairwiseOverlap, SweepMatchesPairwiseLoop) {
  const int P = 256;
  Rng rng(99);
  auto pairwise = [](const std::vector<IndexSubset>& subs) {
    for (size_t b = 1; b < subs.size(); ++b) {
      for (size_t a = 0; a < b; ++a) {
        if (subs[a].overlaps(subs[b])) return true;
      }
    }
    return false;
  };
  auto check = [&](const std::vector<IndexSubset>& subs, bool want,
                   const char* what) {
    std::vector<const IndexSubset*> ptrs;
    for (const auto& s : subs) ptrs.push_back(&s);
    EXPECT_EQ(pairwise(subs), want) << what;
    EXPECT_EQ(any_pairwise_overlap(ptrs), want) << what;
  };
  // Round-robin blocks of 4: color c owns [4(c + kP), 4(c + kP) + 3] for
  // k = 0..3, so colors interleave and touch without sharing a point.
  std::vector<IndexSubset> touching(P, IndexSubset(1));
  for (int k = 0; k < 4; ++k) {
    for (int c = 0; c < P; ++c) {
      const Coord lo = 4 * (c + static_cast<Coord>(k) * P);
      touching[static_cast<size_t>(c)].add(RectN::make1(lo, lo + 3));
    }
  }
  for (auto& s : touching) s.normalize();
  check(touching, false, "touching");
  // Disjoint with gaps, and a few empty colors.
  std::vector<IndexSubset> gaps(P, IndexSubset(1));
  for (int c = 0; c < P; ++c) {
    if (c % 17 == 3) continue;
    gaps[static_cast<size_t>(c)].add(RectN::make1(10 * c, 10 * c + 5));
  }
  check(gaps, false, "disjoint");
  // One shared point between two random colors' rects.
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<IndexSubset> over = touching;
    const size_t c = rng.next_below(P);
    const size_t d = (c + 1 + rng.next_below(P - 1)) % P;
    const RectN& victim = over[d].rects()[rng.next_below(4)];
    over[c].add(RectN::make1(victim.hi[0], victim.hi[0]));
    check(over, true, "overlapping");
  }
  // A long rect from an early color reaching past many later ones.
  std::vector<IndexSubset> nested = gaps;
  nested[0].add(RectN::make1(3, 10 * (P - 1) + 1));
  check(nested, true, "nested");
  // Overlap only within one color's own (unnormalized) rects is not an
  // overlap between colors.
  std::vector<IndexSubset> self = gaps;
  self[5].add(RectN::make1(52, 54));
  check(self, false, "self-overlap");
  // The partition predicate agrees.
  EXPECT_TRUE(Partition(IndexSpace(4 * 4 * P), touching).disjoint());
  EXPECT_FALSE(Partition(IndexSpace(10 * P), nested).disjoint());
}

}  // namespace
}  // namespace spdistal::rt
