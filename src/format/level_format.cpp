#include "format/level_format.h"

#include "common/str_util.h"

namespace spdistal::fmt {

using comp::PlanOpKind;
using rt::Coord;
using rt::IndexSpace;
using rt::IndexSubset;
using rt::Partition;
using rt::Rect1;
using rt::RectN;

namespace {

std::string lvl(const std::string& tensor, int level_idx) {
  return strprintf("%s%d", tensor.c_str(), level_idx + 1);
}

// Expands a partition of parent positions to this (Dense) level's positions:
// parent position p owns positions [p*extent, (p+1)*extent).
Partition expand_dense(const Partition& parent, Coord extent,
                       Coord positions) {
  std::vector<IndexSubset> subsets;
  subsets.reserve(static_cast<size_t>(parent.num_colors()));
  for (int c = 0; c < parent.num_colors(); ++c) {
    IndexSubset out(1);
    for (const auto& r : parent.subset(c).rects()) {
      out.add(RectN::make1(r.lo[0] * extent, (r.hi[0] + 1) * extent - 1));
    }
    out.normalize();
    subsets.push_back(std::move(out));
  }
  return Partition(IndexSpace(positions), std::move(subsets));
}

// Collapses a partition of this (Dense) level's positions to the parent's:
// position q belongs to parent position q / extent.
Partition collapse_dense(const Partition& child, Coord extent,
                         Coord parent_positions) {
  std::vector<IndexSubset> subsets;
  subsets.reserve(static_cast<size_t>(child.num_colors()));
  for (int c = 0; c < child.num_colors(); ++c) {
    IndexSubset out(1);
    for (const auto& r : child.subset(c).rects()) {
      out.add(RectN::make1(r.lo[0] / extent, r.hi[0] / extent));
    }
    out.normalize();
    subsets.push_back(std::move(out));
  }
  return Partition(IndexSpace(parent_positions), std::move(subsets));
}

class DenseLevelFuncs : public LevelFuncs {
 public:
  LevelPartitions universe_partition(
      comp::PlanTrace& trace, const std::string& tensor, int level_idx,
      const LevelStorage& level,
      const std::vector<rt::Rect1>& coord_bounds) const override {
    SPD_CHECK(level.parent_positions == 1, ScheduleError,
              "initial universe partition of a Dense level below other "
              "levels is unsupported (distribute an outer variable instead) "
              "for tensor "
                  << tensor);
    trace.append(PlanOpKind::MakeUniverseColoring,
                 strprintf("Coloring %s_coloring = "
                           "universeBounds(pieces=%zu)  // %s.init/create/"
                           "finalizeUniversePartition",
                           lvl(tensor, level_idx).c_str(), coord_bounds.size(),
                           lvl(tensor, level_idx).c_str()));
    std::vector<RectN> bounds;
    bounds.reserve(coord_bounds.size());
    for (const Rect1& b : coord_bounds) bounds.push_back(RectN(b));
    Partition p = rt::partition_by_bounds(IndexSpace(level.positions), bounds);
    trace.append(
        PlanOpKind::PartitionByBounds,
        strprintf("%s_part = partitionByBounds(%s.dom, %s_coloring)",
                  lvl(tensor, level_idx).c_str(), lvl(tensor, level_idx).c_str(),
                  lvl(tensor, level_idx).c_str()));
    return LevelPartitions{collapse_dense(p, level.extent,
                                          level.parent_positions),
                           p};
  }

  LevelPartitions nonzero_partition(
      comp::PlanTrace& trace, const std::string& tensor, int level_idx,
      const LevelStorage& level,
      const std::vector<rt::Rect1>& pos_bounds) const override {
    // For Dense levels positions and coordinates coincide, so the non-zero
    // partition is the universe partition over position bounds (Table I).
    trace.append(PlanOpKind::MakeNonZeroColoring,
                 strprintf("Coloring %s_coloring = nonZeroBounds(pieces=%zu)",
                           lvl(tensor, level_idx).c_str(), pos_bounds.size()));
    std::vector<RectN> bounds;
    bounds.reserve(pos_bounds.size());
    for (const Rect1& b : pos_bounds) bounds.push_back(RectN(b));
    Partition p = rt::partition_by_bounds(IndexSpace(level.positions), bounds);
    trace.append(
        PlanOpKind::PartitionByBounds,
        strprintf("%s_part = partitionByBounds(%s.dom, %s_coloring)",
                  lvl(tensor, level_idx).c_str(), lvl(tensor, level_idx).c_str(),
                  lvl(tensor, level_idx).c_str()));
    return LevelPartitions{collapse_dense(p, level.extent,
                                          level.parent_positions),
                           p};
  }

  Partition partition_from_parent(comp::PlanTrace& trace,
                                  const std::string& tensor, int level_idx,
                                  const LevelStorage& level,
                                  const rt::Partition& parent) const override {
    trace.append(PlanOpKind::ExpandDense,
                 strprintf("%s_part = copy(parentPart)  // dense expand",
                           lvl(tensor, level_idx).c_str()));
    return expand_dense(parent, level.extent, level.positions);
  }

  Partition partition_from_child(comp::PlanTrace& trace,
                                 const std::string& tensor, int level_idx,
                                 const LevelStorage& level,
                                 const rt::Partition& child) const override {
    trace.append(PlanOpKind::CollapseDense,
                 strprintf("%sParent_part = copy(childPart)  // dense collapse",
                           lvl(tensor, level_idx).c_str()));
    return collapse_dense(child, level.extent, level.parent_positions);
  }
};

class CompressedLevelFuncs : public LevelFuncs {
 public:
  LevelPartitions universe_partition(
      comp::PlanTrace& trace, const std::string& tensor, int level_idx,
      const LevelStorage& level,
      const std::vector<rt::Rect1>& coord_bounds) const override {
    trace.append(PlanOpKind::MakeUniverseColoring,
                 strprintf("Coloring %s_crd_coloring = "
                           "universeBounds(pieces=%zu)",
                           lvl(tensor, level_idx).c_str(),
                           coord_bounds.size()));
    Partition p_crd =
        rt::partition_by_value_ranges(*level.crd, coord_bounds);
    trace.append(PlanOpKind::PartitionByValueRanges,
                 strprintf("%s_crd_part = partitionByValueRanges(%s_crd_"
                           "coloring, %s.crd)",
                           lvl(tensor, level_idx).c_str(),
                           lvl(tensor, level_idx).c_str(),
                           lvl(tensor, level_idx).c_str()));
    Partition p_pos = rt::preimage(*level.pos, p_crd);
    trace.append(PlanOpKind::Preimage,
                 strprintf("%s_pos_part = preimage(%s.pos, %s_crd_part)",
                           lvl(tensor, level_idx).c_str(),
                           lvl(tensor, level_idx).c_str(),
                           lvl(tensor, level_idx).c_str()));
    return LevelPartitions{std::move(p_pos), std::move(p_crd)};
  }

  LevelPartitions nonzero_partition(
      comp::PlanTrace& trace, const std::string& tensor, int level_idx,
      const LevelStorage& level,
      const std::vector<rt::Rect1>& pos_bounds) const override {
    trace.append(PlanOpKind::MakeNonZeroColoring,
                 strprintf("Coloring %s_crd_coloring = nonZeroBounds("
                           "pieces=%zu)",
                           lvl(tensor, level_idx).c_str(), pos_bounds.size()));
    std::vector<RectN> bounds;
    bounds.reserve(pos_bounds.size());
    for (const Rect1& b : pos_bounds) bounds.push_back(RectN(b));
    Partition p_crd = rt::partition_by_bounds(
        IndexSpace(std::max<Coord>(level.positions, 1)), bounds);
    trace.append(PlanOpKind::PartitionByBounds,
                 strprintf("%s_crd_part = partitionByBounds(%s_crd_coloring, "
                           "%s.crd)",
                           lvl(tensor, level_idx).c_str(),
                           lvl(tensor, level_idx).c_str(),
                           lvl(tensor, level_idx).c_str()));
    Partition p_pos = rt::preimage(*level.pos, p_crd);
    trace.append(PlanOpKind::Preimage,
                 strprintf("%s_pos_part = preimage(%s.pos, %s_crd_part)",
                           lvl(tensor, level_idx).c_str(),
                           lvl(tensor, level_idx).c_str(),
                           lvl(tensor, level_idx).c_str()));
    return LevelPartitions{std::move(p_pos), std::move(p_crd)};
  }

  Partition partition_from_parent(comp::PlanTrace& trace,
                                  const std::string& tensor, int level_idx,
                                  const LevelStorage& level,
                                  const rt::Partition& parent) const override {
    // P_pos = copy(parentPart); P_crd = image(pos, P_pos, crd).
    Partition p_pos = rt::copy_partition(parent, level.pos->space());
    trace.append(PlanOpKind::CopyPartition,
                 strprintf("%s_pos_part = copy(parentPart, %s.pos)",
                           lvl(tensor, level_idx).c_str(),
                           lvl(tensor, level_idx).c_str()));
    Partition p_crd = rt::image(
        *level.pos, p_pos,
        IndexSpace(std::max<Coord>(level.positions, 1)));
    trace.append(PlanOpKind::Image,
                 strprintf("%s_crd_part = image(%s.pos, %s_pos_part, %s.crd)",
                           lvl(tensor, level_idx).c_str(),
                           lvl(tensor, level_idx).c_str(),
                           lvl(tensor, level_idx).c_str(),
                           lvl(tensor, level_idx).c_str()));
    return p_crd;
  }

  Partition partition_from_child(comp::PlanTrace& trace,
                                 const std::string& tensor, int level_idx,
                                 const LevelStorage& level,
                                 const rt::Partition& child) const override {
    // P_crd = copy(childPart); P_pos = preimage(pos, P_crd, crd).
    trace.append(PlanOpKind::CopyPartition,
                 strprintf("%s_crd_part = copy(childPart, %s.crd)",
                           lvl(tensor, level_idx).c_str(),
                           lvl(tensor, level_idx).c_str()));
    Partition p_pos = rt::preimage(*level.pos, child);
    trace.append(PlanOpKind::Preimage,
                 strprintf("%s_pos_part = preimage(%s.pos, %s_crd_part)",
                           lvl(tensor, level_idx).c_str(),
                           lvl(tensor, level_idx).c_str(),
                           lvl(tensor, level_idx).c_str()));
    return p_pos;
  }
};

// Singleton: one stored coordinate per position, positions shared 1:1 with
// the parent level. Derived partitions therefore propagate the parent's (or
// child's) position partition unchanged — a whole Singleton chain moves as
// one unit under position splits, which is what makes COO's fused non-zero
// distribution legal.
class SingletonLevelFuncs final : public LevelFuncs {
 public:
  LevelPartitions universe_partition(
      comp::PlanTrace& trace, const std::string& tensor, int level_idx,
      const LevelStorage& level,
      const std::vector<rt::Rect1>& coord_bounds) const override {
    trace.append(PlanOpKind::MakeUniverseColoring,
                 strprintf("Coloring %s_crd_coloring = "
                           "universeBounds(pieces=%zu)",
                           lvl(tensor, level_idx).c_str(),
                           coord_bounds.size()));
    Partition p_crd =
        rt::partition_by_value_ranges(*level.crd, coord_bounds);
    trace.append(PlanOpKind::PartitionByValueRanges,
                 strprintf("%s_crd_part = partitionByValueRanges(%s_crd_"
                           "coloring, %s.crd)",
                           lvl(tensor, level_idx).c_str(),
                           lvl(tensor, level_idx).c_str(),
                           lvl(tensor, level_idx).c_str()));
    // Positions are the parent's: the parent-facing partition is a copy.
    Partition p_pos = rt::copy_partition(
        p_crd, IndexSpace(std::max<Coord>(level.parent_positions, 1)));
    trace.append(PlanOpKind::CopyPartition,
                 strprintf("%s_pos_part = copy(%s_crd_part)  // singleton",
                           lvl(tensor, level_idx).c_str(),
                           lvl(tensor, level_idx).c_str()));
    return LevelPartitions{std::move(p_pos), std::move(p_crd)};
  }

  LevelPartitions nonzero_partition(
      comp::PlanTrace& trace, const std::string& tensor, int level_idx,
      const LevelStorage& level,
      const std::vector<rt::Rect1>& pos_bounds) const override {
    trace.append(PlanOpKind::MakeNonZeroColoring,
                 strprintf("Coloring %s_crd_coloring = nonZeroBounds("
                           "pieces=%zu)",
                           lvl(tensor, level_idx).c_str(), pos_bounds.size()));
    std::vector<RectN> bounds;
    bounds.reserve(pos_bounds.size());
    for (const Rect1& b : pos_bounds) bounds.push_back(RectN(b));
    Partition p_crd = rt::partition_by_bounds(
        IndexSpace(std::max<Coord>(level.positions, 1)), bounds);
    trace.append(PlanOpKind::PartitionByBounds,
                 strprintf("%s_crd_part = partitionByBounds(%s_crd_coloring, "
                           "%s.crd)",
                           lvl(tensor, level_idx).c_str(),
                           lvl(tensor, level_idx).c_str(),
                           lvl(tensor, level_idx).c_str()));
    Partition p_pos = rt::copy_partition(
        p_crd, IndexSpace(std::max<Coord>(level.parent_positions, 1)));
    trace.append(PlanOpKind::CopyPartition,
                 strprintf("%s_pos_part = copy(%s_crd_part)  // singleton",
                           lvl(tensor, level_idx).c_str(),
                           lvl(tensor, level_idx).c_str()));
    return LevelPartitions{std::move(p_pos), std::move(p_crd)};
  }

  Partition partition_from_parent(comp::PlanTrace& trace,
                                  const std::string& tensor, int level_idx,
                                  const LevelStorage& level,
                                  const rt::Partition& parent) const override {
    trace.append(PlanOpKind::CopyPartition,
                 strprintf("%s_crd_part = copy(parentPart)  // singleton "
                           "passthrough",
                           lvl(tensor, level_idx).c_str()));
    return rt::copy_partition(
        parent, IndexSpace(std::max<Coord>(level.positions, 1)));
  }

  Partition partition_from_child(comp::PlanTrace& trace,
                                 const std::string& tensor, int level_idx,
                                 const LevelStorage& level,
                                 const rt::Partition& child) const override {
    trace.append(PlanOpKind::CopyPartition,
                 strprintf("%sParent_part = copy(childPart)  // singleton "
                           "passthrough",
                           lvl(tensor, level_idx).c_str()));
    return rt::copy_partition(
        child, IndexSpace(std::max<Coord>(level.parent_positions, 1)));
  }
};

// BlockedDense: positions are *block rows*, so per-color coordinate bounds
// scale down by the block extent before the dense bounds partition. The
// derived directions are unreachable (the pair is always the tensor root, so
// nothing propagates into it from above or out of it upward).
class BlockedDenseLevelFuncs final : public DenseLevelFuncs {
 public:
  LevelPartitions universe_partition(
      comp::PlanTrace& trace, const std::string& tensor, int level_idx,
      const LevelStorage& level,
      const std::vector<rt::Rect1>& coord_bounds) const override {
    const Coord R = level.kind.block();
    std::vector<Rect1> block_bounds;
    block_bounds.reserve(coord_bounds.size());
    for (const Rect1& b : coord_bounds) {
      block_bounds.push_back(Rect1{b.lo / R, b.hi / R});
    }
    trace.append(PlanOpKind::MakeUniverseColoring,
                 strprintf("Coloring %s_coloring = universeBounds(pieces=%zu)"
                           "  // row coords scaled to block rows (/%lld)",
                           lvl(tensor, level_idx).c_str(), coord_bounds.size(),
                           static_cast<long long>(R)));
    std::vector<RectN> bounds;
    bounds.reserve(block_bounds.size());
    for (const Rect1& b : block_bounds) bounds.push_back(RectN(b));
    Partition p = rt::partition_by_bounds(IndexSpace(level.positions), bounds);
    trace.append(
        PlanOpKind::PartitionByBounds,
        strprintf("%s_part = partitionByBounds(%s.blockRows, %s_coloring)",
                  lvl(tensor, level_idx).c_str(),
                  lvl(tensor, level_idx).c_str(),
                  lvl(tensor, level_idx).c_str()));
    return LevelPartitions{collapse_dense(p, std::max<Coord>(level.positions, 1),
                                          level.parent_positions),
                           p};
  }
};

// BlockedCompressed: crd holds *block columns*, so universe coordinate
// bounds scale down by the block extent; everything else (position bounds,
// image/preimage propagation) is exactly the Compressed machinery over the
// block position space.
class BlockedCompressedLevelFuncs final : public CompressedLevelFuncs {
 public:
  LevelPartitions universe_partition(
      comp::PlanTrace& trace, const std::string& tensor, int level_idx,
      const LevelStorage& level,
      const std::vector<rt::Rect1>& coord_bounds) const override {
    const Coord C = level.kind.block();
    std::vector<Rect1> block_bounds;
    block_bounds.reserve(coord_bounds.size());
    for (const Rect1& b : coord_bounds) {
      block_bounds.push_back(Rect1{b.lo / C, b.hi / C});
    }
    return CompressedLevelFuncs::universe_partition(trace, tensor, level_idx,
                                                    level, block_bounds);
  }
};

}  // namespace

const LevelFuncs& LevelFuncs::get(ModeFormat mf) {
  static const DenseLevelFuncs dense;
  static const CompressedLevelFuncs compressed;
  static const SingletonLevelFuncs singleton;
  static const BlockedDenseLevelFuncs blocked_dense;
  static const BlockedCompressedLevelFuncs blocked_compressed;
  switch (mf.kind()) {
    case LevelKind::Dense:
      return dense;
    case LevelKind::Compressed:
      return compressed;
    case LevelKind::Singleton:
      return singleton;
    case LevelKind::Blocked:
      return mf.has_pos() ? static_cast<const LevelFuncs&>(blocked_compressed)
                          : static_cast<const LevelFuncs&>(blocked_dense);
  }
  return dense;
}

int64_t TensorPartition::color_bytes(const TensorStorage& storage,
                                     int color) const {
  int64_t bytes = vals_part.subset(color).volume() *
                  static_cast<int64_t>(sizeof(double));
  for (int l = 0; l < storage.num_levels(); ++l) {
    const LevelStorage& level = storage.level(l);
    if (level.kind.has_crd()) {
      // crd bytes for this level's positions.
      bytes += level_parts[static_cast<size_t>(l)].subset(color).volume() *
               static_cast<int64_t>(sizeof(int32_t));
    }
    if (level.kind.has_pos()) {
      // pos bytes follow the parent level's partition, which is
      // level_parts[l-1] (or whole for l==0).
      const int64_t pos_entries =
          l == 0 ? level.parent_positions
                 : level_parts[static_cast<size_t>(l - 1)].subset(color)
                       .volume();
      bytes += pos_entries * static_cast<int64_t>(sizeof(rt::PosRange));
    }
  }
  return bytes;
}

TensorPartition partition_coordinate_tree(comp::PlanTrace& trace,
                                          const TensorStorage& storage,
                                          int initial_level,
                                          const LevelPartitions& initial) {
  const int order = storage.num_levels();
  SPD_ASSERT(initial_level >= 0 && initial_level < order,
             "bad initial level " << initial_level);
  TensorPartition tp;
  tp.level_parts.resize(static_cast<size_t>(order));
  tp.level_parts[static_cast<size_t>(initial_level)] = initial.child_facing;

  // Downward: partitionFromParent for each level below the initial one.
  Partition down = initial.child_facing;
  for (int l = initial_level + 1; l < order; ++l) {
    const LevelStorage& level = storage.level(l);
    down = LevelFuncs::get(level.kind)
               .partition_from_parent(trace, storage.name(), l, level, down);
    tp.level_parts[static_cast<size_t>(l)] = down;
  }

  // Upward: the initial level's parent-facing partition already partitions
  // level initial_level-1's positions; recurse with partitionFromChild.
  Partition up = initial.parent_facing;
  for (int l = initial_level - 1; l >= 0; --l) {
    const LevelStorage& level = storage.level(l);
    tp.level_parts[static_cast<size_t>(l)] = up;
    if (l > 0) {
      up = LevelFuncs::get(level.kind)
               .partition_from_child(trace, storage.name(), l, level, up);
    }
  }

  // vals aligns 1:1 with the last level's positions — except below a Blocked
  // pair, where each block position owns R*C contiguous value lanes, so the
  // position partition scales by the lane count onto vals.
  const LevelStorage& last = storage.level(order - 1);
  if (last.kind.is_blocked()) {
    const Coord lane = storage.level(order - 2).kind.block() *
                       static_cast<Coord>(last.kind.block());
    std::vector<IndexSubset> subsets;
    const Partition& blocks = tp.level_parts.back();
    subsets.reserve(static_cast<size_t>(blocks.num_colors()));
    for (int c = 0; c < blocks.num_colors(); ++c) {
      IndexSubset out(1);
      for (const auto& r : blocks.subset(c).rects()) {
        out.add(RectN::make1(r.lo[0] * lane, (r.hi[0] + 1) * lane - 1));
      }
      out.normalize();
      subsets.push_back(std::move(out));
    }
    tp.vals_part = Partition(storage.vals()->space(), std::move(subsets));
    trace.append(comp::PlanOpKind::CopyPartition,
                 strprintf("%s_vals_part = scale(%s%d_part, %lld)  // R*C "
                           "lanes per block",
                           storage.name().c_str(), storage.name().c_str(),
                           order, static_cast<long long>(lane)));
  } else {
    tp.vals_part = rt::copy_partition(tp.level_parts.back(),
                                      storage.vals()->space());
    trace.append(comp::PlanOpKind::CopyPartition,
                 strprintf("%s_vals_part = copy(%s%d_part, %s.vals)",
                           storage.name().c_str(), storage.name().c_str(),
                           order, storage.name().c_str()));
  }
  return tp;
}

}  // namespace spdistal::fmt
