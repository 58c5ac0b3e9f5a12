// Tests for direct and dependent partitioning, including the paper's worked
// examples: Figure 6 (image/preimage) and Figures 7-9 (the 4x4 CSR matrix).
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "runtime/partition.h"
#include "runtime/region.h"

namespace spdistal::rt {
namespace {

// The paper's running example (Figure 7): the 4x4 matrix
//     cols:  0    1    2    3
//  row 0:  [ a    b    .    c ]
//  row 1:  [ .    d    .    e ]
//  row 2:  [ f    .    .    . ]
//  row 3:  [ g    .    .    h ]
// in SpDISTAL CSR: pos = {0,2},{3,4},{5,5},{6,7} (inclusive ranges),
// crd = 0 1 3 | 1 3 | 0 | 0 3.
struct PaperMatrix {
  RegionRef<PosRange> pos;
  RegionRef<int32_t> crd;
  IndexSpace vals_space{8};

  PaperMatrix() {
    pos = make_region<PosRange>(IndexSpace(4), "B.pos");
    crd = make_region<int32_t>(IndexSpace(8), "B.crd");
    (*pos)[0] = PosRange{0, 2};
    (*pos)[1] = PosRange{3, 4};
    (*pos)[2] = PosRange{5, 5};
    (*pos)[3] = PosRange{6, 7};
    const int32_t crds[8] = {0, 1, 3, 1, 3, 0, 0, 3};
    for (Coord i = 0; i < 8; ++i) (*crd)[i] = crds[i];
  }
};

TEST(PartitionEqual, BalancedBlocks) {
  IndexSpace s(10);
  Partition p = partition_equal(s, 3);
  ASSERT_EQ(p.num_colors(), 3);
  // 10 = 3 + 3 + 4 (trailing pieces absorb the remainder).
  EXPECT_EQ(p.subset(0).volume(), 3);
  EXPECT_EQ(p.subset(1).volume(), 3);
  EXPECT_EQ(p.subset(2).volume(), 4);
  EXPECT_TRUE(p.disjoint());
  EXPECT_TRUE(p.complete());
}

TEST(PartitionEqual, MorePiecesThanPoints) {
  IndexSpace s(2);
  Partition p = partition_equal(s, 4);
  ASSERT_EQ(p.num_colors(), 4);
  int64_t total = 0;
  for (int c = 0; c < 4; ++c) total += p.subset(c).volume();
  EXPECT_EQ(total, 2);
  EXPECT_TRUE(p.disjoint());
  EXPECT_TRUE(p.complete());
}

TEST(PartitionByBounds, ClipsToParent) {
  IndexSpace s(10);
  Partition p = partition_by_bounds(
      s, {RectN::make1(-5, 4), RectN::make1(5, 100)});
  EXPECT_EQ(p.subset(0).volume(), 5);
  EXPECT_EQ(p.subset(1).volume(), 5);
  EXPECT_TRUE(p.complete());
}

// Figure 6a: S contains index spaces {0..2},{3,4},{5},{6..8} over D(0..8);
// a partition of S into {0,1} and {2,3} images to D-subsets {0..4}, {5..8}.
TEST(DependentPartitioning, ImageMatchesFigure6a) {
  auto pos = make_region<PosRange>(IndexSpace(4), "S");
  (*pos)[0] = PosRange{0, 2};
  (*pos)[1] = PosRange{3, 4};
  (*pos)[2] = PosRange{5, 5};
  (*pos)[3] = PosRange{6, 8};
  IndexSpace d(9);
  Partition ps = partition_equal(pos->space(), 2);
  Partition img = image(*pos, ps, d);
  ASSERT_EQ(img.num_colors(), 2);
  EXPECT_EQ(img.subset(0).bounds(), RectN::make1(0, 4));
  EXPECT_EQ(img.subset(0).volume(), 5);
  EXPECT_EQ(img.subset(1).bounds(), RectN::make1(5, 8));
  EXPECT_EQ(img.subset(1).volume(), 4);
  EXPECT_TRUE(img.disjoint());
  EXPECT_TRUE(img.complete());
}

// Figure 6b: a partition of D can color a source entry with multiple colors
// when its range spans the boundary.
TEST(DependentPartitioning, PreimageCanOverlap) {
  auto pos = make_region<PosRange>(IndexSpace(4), "S");
  (*pos)[0] = PosRange{0, 2};
  (*pos)[1] = PosRange{3, 4};
  (*pos)[2] = PosRange{5, 5};
  (*pos)[3] = PosRange{4, 8};  // spans both halves of D
  IndexSpace d(9);
  Partition pd = partition_by_bounds(
      d, {RectN::make1(0, 4), RectN::make1(5, 8)});
  Partition pre = preimage(*pos, pd);
  ASSERT_EQ(pre.num_colors(), 2);
  // Entries 0,1 point into {0..4}; entry 3 spans; entry 2 points into {5}.
  EXPECT_TRUE(pre.subset(0).contains_point1(0));
  EXPECT_TRUE(pre.subset(0).contains_point1(1));
  EXPECT_TRUE(pre.subset(0).contains_point1(3));
  EXPECT_TRUE(pre.subset(1).contains_point1(2));
  EXPECT_TRUE(pre.subset(1).contains_point1(3));
  EXPECT_FALSE(pre.disjoint());  // entry 3 has two colors
  EXPECT_TRUE(pre.complete());
}

// Figure 9c: the row-based (universe) partition of the 4x4 paper matrix with
// 2 pieces. Rows {0,1} -> piece 0, rows {2,3} -> piece 1. The derived crd
// partition (image of pos) is {0..4} and {5..7}.
TEST(PaperExample, RowBasedUniversePartition) {
  PaperMatrix m;
  Partition rows = partition_equal(m.pos->space(), 2);
  Partition crd_part = image(*m.pos, rows, m.crd->space());
  ASSERT_EQ(crd_part.num_colors(), 2);
  EXPECT_EQ(crd_part.subset(0).bounds(), RectN::make1(0, 4));
  EXPECT_EQ(crd_part.subset(0).volume(), 5);
  EXPECT_EQ(crd_part.subset(1).bounds(), RectN::make1(5, 7));
  EXPECT_EQ(crd_part.subset(1).volume(), 3);
  EXPECT_TRUE(crd_part.disjoint());
  EXPECT_TRUE(crd_part.complete());
  // vals partition is a copy of the crd partition.
  Partition vals_part = copy_partition(crd_part, m.vals_space);
  EXPECT_EQ(vals_part.subset(0).volume(), 5);
  EXPECT_EQ(vals_part.subset(1).volume(), 3);
}

// Figure 9d: the non-zero partition of the paper matrix with 2 pieces: crd
// positions {0..3} and {4..7}. The derived pos partition (preimage) colors
// row 1 with both colors (its segment {3,4} spans the split).
TEST(PaperExample, NonZeroPartition) {
  PaperMatrix m;
  Partition crd_part = partition_equal(m.crd->space(), 2);
  Partition pos_part = preimage(*m.pos, crd_part);
  ASSERT_EQ(pos_part.num_colors(), 2);
  EXPECT_TRUE(pos_part.subset(0).contains_point1(0));
  EXPECT_TRUE(pos_part.subset(0).contains_point1(1));
  EXPECT_FALSE(pos_part.subset(0).contains_point1(2));
  EXPECT_TRUE(pos_part.subset(1).contains_point1(1));  // shared row
  EXPECT_TRUE(pos_part.subset(1).contains_point1(2));
  EXPECT_TRUE(pos_part.subset(1).contains_point1(3));
  EXPECT_FALSE(pos_part.disjoint());
  EXPECT_TRUE(pos_part.complete());
}

// Universe partition of a Compressed level: bucket crd entries by value
// ranges (Table I, finalizeUniversePartition for Compressed).
TEST(PartitionByValueRanges, BucketsByCoordinate) {
  PaperMatrix m;
  // Split the column universe 0..3 into {0..1} and {2..3}.
  Partition p = partition_by_value_ranges(*m.crd, {{0, 1}, {2, 3}});
  ASSERT_EQ(p.num_colors(), 2);
  // crd = 0 1 3 1 3 0 0 3: positions with value<=1: {0,1,3,5,6};
  // value>=2: {2,4,7}.
  EXPECT_EQ(p.subset(0).volume(), 5);
  EXPECT_EQ(p.subset(1).volume(), 3);
  EXPECT_TRUE(p.subset(1).contains_point1(2));
  EXPECT_TRUE(p.subset(1).contains_point1(4));
  EXPECT_TRUE(p.subset(1).contains_point1(7));
  EXPECT_TRUE(p.disjoint());
  EXPECT_TRUE(p.complete());
}

TEST(LiftToDim, RowPartitionOfMatrix) {
  IndexSpace matrix(RectN::make2(0, 9, 0, 19));
  Partition rows = partition_equal(IndexSpace(10), 2);
  Partition p = lift_to_dim(rows, matrix, 0);
  ASSERT_EQ(p.num_colors(), 2);
  EXPECT_EQ(p.subset(0).volume(), 5 * 20);
  EXPECT_EQ(p.subset(1).volume(), 5 * 20);
  EXPECT_TRUE(p.disjoint());
  EXPECT_TRUE(p.complete());
}

TEST(Grid2, TilesMatrix) {
  IndexSpace matrix(RectN::make2(0, 9, 0, 19));
  Partition p = partition_grid2(matrix, 2, 2);
  ASSERT_EQ(p.num_colors(), 4);
  for (int c = 0; c < 4; ++c) EXPECT_EQ(p.subset(c).volume(), 50);
  EXPECT_TRUE(p.disjoint());
  EXPECT_TRUE(p.complete());
}

// Regression: pieces_x > row extent used to produce a default (1-D) empty
// rect that tripped the dimension assert in partition_by_bounds.
TEST(Grid2, MorePiecesThanRows) {
  IndexSpace matrix(RectN::make2(0, 1, 0, 9));  // 2 rows, 10 cols
  Partition p = partition_grid2(matrix, 4, 2);
  ASSERT_EQ(p.num_colors(), 8);
  int64_t total = 0;
  for (int c = 0; c < 8; ++c) total += p.subset(c).volume();
  EXPECT_EQ(total, 20);
  EXPECT_TRUE(p.disjoint());
  EXPECT_TRUE(p.complete());
}

// Regression: overlapping N-D rects double-counted volume, so a partition
// with a hole could report complete (vol >= parent volume despite row 3
// being uncovered).
TEST(PartitionComplete, OverlappingNDRectsDoNotMaskHoles) {
  IndexSpace s(RectN::make2(0, 3, 0, 3));  // 16 points
  IndexSubset holey(2);
  holey.add(RectN::make2(0, 1, 0, 3));  // rows 0-1: 8 points
  holey.add(RectN::make2(1, 2, 0, 3));  // rows 1-2: 8 points (4 overlap)
  Partition p(s, {holey});
  EXPECT_FALSE(p.complete());  // row 3 is a hole
  IndexSubset covered = holey;
  covered.add(RectN::make2(2, 3, 0, 3));
  Partition q(s, {covered});
  EXPECT_TRUE(q.complete());
}

// A 2-D partition whose colors partially overlap (neither containing the
// other) and leave a hole of exactly the overlap's size: the per-rect
// volume sum is 16 like the parent's, so completeness must count the shared
// points once to see the uncovered last column.
TEST(PartitionComplete, Overlapping2DTilesWithHole) {
  IndexSpace s(RectN::make2(0, 3, 0, 3));  // 16 points
  std::vector<IndexSubset> tiles = {
      IndexSubset(RectN::make2(0, 2, 0, 1)),  // 6 points
      IndexSubset(RectN::make2(1, 3, 0, 2)),  // 9 points, 4 shared
      IndexSubset(RectN::make2(0, 0, 2, 2)),  // 1 point
  };
  // 12 distinct points; column 3 (4 points) is the hole.
  EXPECT_FALSE(Partition(s, tiles).complete());
  tiles.push_back(IndexSubset(RectN::make2(0, 3, 3, 3)));
  EXPECT_TRUE(Partition(s, tiles).complete());
}

// Overlapping value ranges may not be binary-searched: a value inside two
// ranges must land in both colors (the exhaustive fallback path).
TEST(PartitionByValueRanges, OverlappingRangesKeepMultiMembership) {
  PaperMatrix m;
  // crd = 0 1 3 1 3 0 0 3; ranges {0..2} and {1..3} share values 1 and 2.
  Partition p = partition_by_value_ranges(*m.crd, {{0, 2}, {1, 3}});
  ASSERT_EQ(p.num_colors(), 2);
  // Value-1 positions (1, 3) belong to both colors.
  EXPECT_TRUE(p.subset(0).contains_point1(1));
  EXPECT_TRUE(p.subset(1).contains_point1(1));
  EXPECT_TRUE(p.subset(0).contains_point1(3));
  EXPECT_TRUE(p.subset(1).contains_point1(3));
  EXPECT_FALSE(p.disjoint());
}

// Sorted-disjoint ranges with interleaved empties (equal_bounds output when
// pieces > extent) still bucket exactly like the exhaustive scan.
TEST(PartitionByValueRanges, EmptyRangesAndBinarySearchAgree) {
  PaperMatrix m;
  const std::vector<Rect1> ranges = {
      {0, 0}, {1, 0}, {1, 1}, {2, 1}, {2, 3}};  // two empty ranges inside
  Partition p = partition_by_value_ranges(*m.crd, ranges);
  ASSERT_EQ(p.num_colors(), 5);
  // crd = 0 1 3 1 3 0 0 3.
  EXPECT_EQ(p.subset(0).volume(), 3);  // value 0: positions 0, 5, 6
  EXPECT_EQ(p.subset(1).volume(), 0);
  EXPECT_EQ(p.subset(2).volume(), 2);  // value 1: positions 1, 3
  EXPECT_EQ(p.subset(3).volume(), 0);
  EXPECT_EQ(p.subset(4).volume(), 3);  // values 2-3: positions 2, 4, 7
  EXPECT_TRUE(p.disjoint());
  EXPECT_TRUE(p.complete());
}

// Property test over random CSR-like structures: universe and non-zero
// partitions always cover all stored coordinates, image/preimage round-trips
// keep every non-zero reachable, and non-zero partitions are balanced.
class RandomCsrPartitionProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomCsrPartitionProperty, CoverageAndBalance) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31337 + 7);
  const int rows = 1 + static_cast<int>(rng.next_below(60));
  const int cols = 1 + static_cast<int>(rng.next_below(60));
  // Random CSR.
  std::vector<std::vector<int32_t>> row_cols(static_cast<size_t>(rows));
  int64_t nnz = 0;
  for (auto& rc : row_cols) {
    const int k = static_cast<int>(rng.next_below(8));
    for (int i = 0; i < k; ++i) {
      rc.push_back(static_cast<int32_t>(rng.next_below(
          static_cast<uint64_t>(cols))));
    }
    std::sort(rc.begin(), rc.end());
    rc.erase(std::unique(rc.begin(), rc.end()), rc.end());
    nnz += static_cast<int64_t>(rc.size());
  }
  if (nnz == 0) return;  // nothing to partition
  auto pos = make_region<PosRange>(IndexSpace(rows), "pos");
  auto crd = make_region<int32_t>(IndexSpace(nnz), "crd");
  Coord at = 0;
  for (int r = 0; r < rows; ++r) {
    (*pos)[r] = PosRange{at, at + static_cast<Coord>(row_cols[r].size()) - 1};
    for (int32_t c : row_cols[static_cast<size_t>(r)]) (*crd)[at++] = c;
  }

  const int pieces = 1 + static_cast<int>(rng.next_below(6));

  // Universe (row-based): rows equally, crd derived via image.
  Partition prow = partition_equal(pos->space(), pieces);
  Partition pcrd = image(*pos, prow, crd->space());
  EXPECT_TRUE(pcrd.complete());
  EXPECT_TRUE(pcrd.disjoint());

  // Non-zero: crd equally, pos derived via preimage.
  Partition pnz = partition_equal(crd->space(), pieces);
  Partition ppos = preimage(*pos, pnz);
  // Rows with empty segments are (correctly) uncolored, so completeness of
  // the pos partition is not expected in general.
  // Every row with a non-empty segment must appear in some color.
  for (int r = 0; r < rows; ++r) {
    if (!(*pos)[r].empty()) {
      bool found = false;
      for (int c = 0; c < pieces; ++c) {
        if (ppos.subset(c).contains_point1(r)) found = true;
      }
      EXPECT_TRUE(found) << "row " << r << " lost by preimage";
    }
  }
  // Non-zero partition balance: max piece <= ceil(nnz/pieces).
  const int64_t cap = (nnz + pieces - 1) / pieces;
  for (int c = 0; c < pieces; ++c) {
    EXPECT_LE(pnz.subset(c).volume(), cap);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCsr, RandomCsrPartitionProperty,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace spdistal::rt
