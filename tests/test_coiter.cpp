// Tests for the general co-iteration engine and two-phase assembly.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>

#include "common/rng.h"
#include "data/generators.h"
#include "kernels/assembly.h"
#include "kernels/coiter.h"
#include "tensor/dense_ref.h"

namespace spdistal::kern {
namespace {

using rt::Coord;

fmt::Coo small_csr_coo() {
  fmt::Coo coo;
  coo.dims = {4, 4};
  coo.push({0, 0}, 1.0);
  coo.push({0, 1}, 2.0);
  coo.push({0, 3}, 3.0);
  coo.push({1, 1}, 4.0);
  coo.push({1, 3}, 5.0);
  coo.push({2, 0}, 6.0);
  coo.push({3, 0}, 7.0);
  coo.push({3, 3}, 8.0);
  return coo;
}

TEST(LocatePosition, FindsAndMisses) {
  Tensor B("B", {4, 4}, fmt::csr());
  B.from_coo(small_csr_coo());
  EXPECT_EQ(locate_position(B.storage(), {0, 0}), 0);
  EXPECT_EQ(locate_position(B.storage(), {0, 3}), 2);
  EXPECT_EQ(locate_position(B.storage(), {3, 3}), 7);
  EXPECT_EQ(locate_position(B.storage(), {0, 2}), -1);
  EXPECT_EQ(locate_position(B.storage(), {2, 3}), -1);
}

TEST(LocatePosition, WalksSingletonChains) {
  Tensor B("B", {4, 4}, fmt::coo(2));
  B.from_coo(small_csr_coo());
  // COO positions enumerate entries in sorted order.
  EXPECT_EQ(locate_position(B.storage(), {0, 0}), 0);
  EXPECT_EQ(locate_position(B.storage(), {0, 3}), 2);
  EXPECT_EQ(locate_position(B.storage(), {3, 3}), 7);
  EXPECT_EQ(locate_position(B.storage(), {0, 2}), -1);
  EXPECT_EQ(locate_position(B.storage(), {2, 3}), -1);
}

TEST(Coiter, CooSpmvMatchesReference) {
  IndexVar i("i"), j("j");
  Tensor a("a", {4}, fmt::dense_vector());
  Tensor B("B", {4, 4}, fmt::coo(2));
  Tensor c("c", {4}, fmt::dense_vector());
  B.from_coo(small_csr_coo());
  c.init_dense([](const auto& x) { return static_cast<double>(x[0] + 1); });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  CoiterEngine eng(stmt);
  a.zero();
  eng.run();
  EXPECT_LE(ref::max_abs_diff(a, ref::eval(stmt)), 1e-12);
  // Value iteration restricted to rows 0-1 + rows 2-3 also completes.
  a.zero();
  for (Coord lo : {0, 2}) {
    PieceBounds piece;
    piece.dist_coords = rt::Rect1{lo, lo + 1};
    eng.run(piece);
  }
  EXPECT_LE(ref::max_abs_diff(a, ref::eval(stmt)), 1e-12);
}

TEST(Coiter, Coo3SpttvPositionSpaceWithMidChainClamp) {
  IndexVar i("i"), j("j"), k("k");
  fmt::Coo coo = data::uniform_3tensor(8, 6, 10, 60, 21);
  Tensor A("A", {8, 6}, fmt::csr());
  Tensor B("B", {8, 6, 10}, fmt::coo(3));
  Tensor c("c", {10}, fmt::dense_vector());
  B.from_coo(std::move(coo));
  c.init_dense([](const auto& x) { return 1.0 + 0.5 * (x[0] % 3); });
  Statement& stmt = (A(i, j) = B(i, j, k) * c(k));
  assemble_output(stmt);
  CoiterEngine eng(stmt, {i, j, k});
  const fmt::TensorStorage& bs = B.storage();
  const Coord nnz = bs.level(2).positions;
  // Position-space over the fused Singleton chain, two nz pieces.
  A.zero();
  for (Coord lo = 0; lo < nnz; lo += (nnz + 1) / 2) {
    PieceBounds piece;
    piece.dist_pos =
        rt::Rect1{lo, std::min<Coord>(lo + (nnz + 1) / 2 - 1, nnz - 1)};
    piece.pos_tensor = "B";
    piece.pos_level = 2;
    eng.run(piece);
  }
  const ref::DenseTensor expect = ref::eval(stmt);
  EXPECT_LE(ref::max_abs_diff(A, expect), 1e-12);
  // Mid-chain clamping: full position range, but each piece clamps the
  // fused variable j to half its coordinate range; the pieces tile the
  // computation exactly.
  A.zero();
  for (Coord lo : {0, 3}) {
    PieceBounds piece;
    piece.dist_pos = rt::Rect1{0, nnz - 1};
    piece.pos_tensor = "B";
    piece.pos_level = 2;
    piece.var_coords.push_back({j.id(), rt::Rect1{lo, lo + 2}});
    eng.run(piece);
  }
  EXPECT_LE(ref::max_abs_diff(A, expect), 1e-12);
}

TEST(Coiter, TwoNonUniqueOperandsRejected) {
  // Two COO operands sharing the iteration variables cannot co-iterate:
  // one non-unique level would have to be probed.
  IndexVar i("i"), j("j");
  Tensor a("a", {4}, fmt::dense_vector());
  Tensor B("B", {4, 4}, fmt::coo(2));
  Tensor C("C", {4, 4}, fmt::coo(2));
  Tensor c("c", {4}, fmt::dense_vector());
  B.from_coo(small_csr_coo());
  C.from_coo(small_csr_coo());
  c.init_dense([](const auto&) { return 1.0; });
  Statement& stmt = (a(i) = B(i, j) * C(i, j) * c(j));
  CoiterEngine eng(stmt);
  a.zero();
  EXPECT_THROW(eng.run(), ScheduleError);
}

TEST(Coiter, SpmvMatchesReference) {
  IndexVar i("i"), j("j");
  Tensor a("a", {4}, fmt::dense_vector());
  Tensor B("B", {4, 4}, fmt::csr());
  Tensor c("c", {4}, fmt::dense_vector());
  B.from_coo(small_csr_coo());
  c.init_dense([](const auto& x) { return static_cast<double>(x[0] + 1); });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  CoiterEngine eng(stmt);
  a.zero();
  eng.run();
  EXPECT_LE(ref::max_abs_diff(a, ref::eval(stmt)), 1e-12);
}

TEST(Coiter, PieceRestrictionComputesPartial) {
  IndexVar i("i"), j("j");
  Tensor a("a", {4}, fmt::dense_vector());
  Tensor B("B", {4, 4}, fmt::csr());
  Tensor c("c", {4}, fmt::dense_vector());
  B.from_coo(small_csr_coo());
  c.init_dense([](const auto&) { return 1.0; });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  CoiterEngine eng(stmt);
  a.zero();
  PieceBounds piece;
  piece.dist_coords = rt::Rect1{0, 1};  // rows 0-1 only
  eng.run(piece);
  auto& av = *a.storage().vals();
  EXPECT_DOUBLE_EQ(av[0], 6.0);
  EXPECT_DOUBLE_EQ(av[1], 9.0);
  EXPECT_DOUBLE_EQ(av[2], 0.0);
  EXPECT_DOUBLE_EQ(av[3], 0.0);
  // The remaining piece completes the result.
  PieceBounds rest;
  rest.dist_coords = rt::Rect1{2, 3};
  eng.run(rest);
  EXPECT_DOUBLE_EQ(av[2], 6.0);
  EXPECT_DOUBLE_EQ(av[3], 15.0);
}

TEST(Coiter, PositionSpaceIterationMatches) {
  IndexVar i("i"), j("j");
  Tensor a("a", {4}, fmt::dense_vector());
  Tensor B("B", {4, 4}, fmt::csr());
  Tensor c("c", {4}, fmt::dense_vector());
  B.from_coo(small_csr_coo());
  c.init_dense([](const auto& x) { return 0.5 * static_cast<double>(x[0]); });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  CoiterEngine eng(stmt);
  a.zero();
  // Two pieces of 4 positions each.
  for (Coord lo : {0, 4}) {
    PieceBounds piece;
    piece.dist_pos = rt::Rect1{lo, lo + 3};
    piece.pos_tensor = "B";
    piece.pos_level = 1;
    eng.run(piece);
  }
  EXPECT_LE(ref::max_abs_diff(a, ref::eval(stmt)), 1e-12);
}

TEST(Coiter, IntersectionOfTwoSparse) {
  // Element-wise product of two sparse matrices: intersection iteration.
  IndexVar i("i"), j("j");
  Tensor A("A", {4, 4}, fmt::dense_matrix());
  Tensor B("B", {4, 4}, fmt::csr());
  Tensor C("C", {4, 4}, fmt::csr());
  B.from_coo(small_csr_coo());
  C.from_coo(data::shift_last_dim(small_csr_coo(), 1));
  Statement& stmt = (A(i, j) = B(i, j) * C(i, j));
  CoiterEngine eng(stmt);
  A.zero();
  eng.run();
  EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-12);
}

// walk_positions hands every position of a range to its owning parent,
// across block boundaries, long segments and runs of empty segments.
TEST(WalkPositions, VisitsEachPositionWithItsOwner) {
  const Coord rows = 3000;
  fmt::Coo coo;
  coo.dims = {rows, 400};
  for (Coord r = 0; r < rows; ++r) {
    const Coord len = r % 7 == 0 || (r / 100) % 4 == 2 ? 0
                      : r % 50 == 1                    ? 300
                                                       : r % 5;
    for (Coord j = 0; j < len; ++j) coo.push({r, j}, 1.0);
  }
  Tensor B("B", {rows, 400}, fmt::csr());
  B.from_coo(std::move(coo));
  const fmt::LevelStorage& level = B.storage().level(1);
  const Coord n = level.positions;
  Rng rng(17);
  std::vector<rt::Rect1> ranges = {{0, n - 1}, {0, 0}, {n - 1, n - 1},
                                   {n, n - 1}, {5, 4}};
  for (int t = 0; t < 40; ++t) {
    const Coord a = rng.next_range(0, n - 1);
    const Coord b = rng.next_range(0, n - 1);
    ranges.push_back(rt::Rect1{std::min(a, b), std::max(a, b)});
  }
  for (const rt::Rect1& r : ranges) {
    Coord expect = r.lo;
    bool ok = true;
    walk_positions<false>(level, PosSpan{r, std::nullopt},
                          [&](Coord p, Coord q) {
                            const rt::PosRange seg = (*level.pos)[p];
                            ok = ok && q == expect && seg.lo <= q &&
                                 q <= seg.hi;
                            ++expect;
                          });
    EXPECT_TRUE(ok) << "[" << r.lo << ", " << r.hi << "]";
    EXPECT_EQ(expect, r.empty() ? r.lo : r.hi + 1);
  }
  // Row spans: exactly the positions of the rows, each with its owner,
  // from leading and trailing runs of empty rows alike.
  std::vector<rt::Rect1> row_ranges = {{0, rows - 1}, {0, 0},     {7, 7},
                                       {200, 299},    {250, 260}, {5, 4},
                                       {rows - 1, rows - 1}};
  for (int t = 0; t < 40; ++t) {
    const Coord a = rng.next_range(0, rows - 1);
    const Coord b = rng.next_range(0, rows - 1);
    row_ranges.push_back(rt::Rect1{std::min(a, b), std::max(a, b)});
  }
  for (const rt::Rect1& r : row_ranges) {
    const PosSpan span = parents_span<false>(level, r);
    Coord expect = span.positions.lo;
    bool ok = true;
    walk_positions<false>(level, span, [&](Coord p, Coord q) {
      const rt::PosRange seg = (*level.pos)[p];
      ok = ok && r.contains(p) && q == expect && seg.lo <= q && q <= seg.hi;
      ++expect;
    });
    Coord stored = 0;
    for (Coord p = r.lo; p <= r.hi; ++p) stored += (*level.pos)[p].size();
    EXPECT_TRUE(ok) << "rows [" << r.lo << ", " << r.hi << "]";
    EXPECT_EQ(span.positions.size(), stored);
    EXPECT_EQ(expect - span.positions.lo, stored);
  }
}

// Coordinate-position iteration costs what its piece touches: one fixed
// 1,000-position DCSR piece (the first 1,000 rows, one entry each) runs
// about as fast over 10^5 stored non-zeros as over 10^3, because the
// parent walk binary-searches pos once instead of mapping every position.
TEST(Coiter, PositionPieceCostIndependentOfStoredSize) {
  auto best_piece_us = [](Coord rows) {
    IndexVar i("i"), j("j");
    fmt::Coo coo;
    coo.dims = {rows, rows};
    for (Coord r = 0; r < rows; ++r) coo.push({r, (r * 7919) % rows}, 1.0);
    Tensor a("a", {rows}, fmt::dense_vector());
    Tensor B("B", {rows, rows}, fmt::dcsr());
    Tensor c("c", {rows}, fmt::dense_vector());
    B.from_coo(std::move(coo));
    c.init_dense([](const auto&) { return 1.0; });
    Statement& stmt = (a(i) = B(i, j) * c(j));
    CoiterEngine eng(stmt);
    PieceBounds piece;
    piece.dist_pos = rt::Rect1{0, 999};
    piece.pos_tensor = "B";
    piece.pos_level = 1;
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 25; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      eng.run(piece);
      const std::chrono::duration<double, std::micro> us =
          std::chrono::steady_clock::now() - t0;
      best = std::min(best, us.count());
    }
    return best;
  };
  const double small = best_piece_us(1000);    // 10^3 stored non-zeros
  const double large = best_piece_us(100000);  // 10^5 stored non-zeros
  EXPECT_LT(large / small, 5.0)
      << "10^3 nnz: " << small << " us, 10^5 nnz: " << large << " us";
}

TEST(Coiter, RejectsIncompatibleOrder) {
  // B stored CSC but iterated row-major with a sparse column level first:
  // iteration order (i, j) conflicts with CSC's (j, i) levels.
  IndexVar i("i"), j("j");
  Tensor a("a", {4}, fmt::dense_vector());
  Tensor B("B", {4, 4}, fmt::csc());
  Tensor c("c", {4}, fmt::dense_vector());
  B.from_coo(small_csr_coo());
  Statement& stmt = (a(i) = B(i, j) * c(j));
  EXPECT_THROW(CoiterEngine eng(stmt), ScheduleError);
  // With the matching order (j, i) it is accepted.
  CoiterEngine ok(stmt, {j, i});
  a.zero();
  c.init_dense([](const auto&) { return 1.0; });
  ok.run();
  EXPECT_LE(ref::max_abs_diff(a, ref::eval(stmt)), 1e-12);
}

TEST(Assembly, SpAdd3UnionPattern) {
  IndexVar i("i"), j("j");
  Tensor A("A", {4, 4}, fmt::csr());
  Tensor B("B", {4, 4}, fmt::csr());
  Tensor C("C", {4, 4}, fmt::csr());
  Tensor D("D", {4, 4}, fmt::csr());
  B.from_coo(small_csr_coo());
  C.from_coo(data::shift_last_dim(small_csr_coo(), 1));
  D.from_coo(data::shift_last_dim(small_csr_coo(), 2));
  Statement& stmt = (A(i, j) = B(i, j) + C(i, j) + D(i, j));
  ASSERT_TRUE(needs_assembly(stmt));
  AssemblyResult res = assemble_output(stmt);
  EXPECT_FALSE(res.pattern_preserved);
  EXPECT_GE(res.output_nnz, 8);   // at least one input's pattern
  EXPECT_LE(res.output_nnz, 24);  // at most the union
  // Numeric pass through coiter matches the reference.
  CoiterEngine eng(stmt);
  A.zero();
  eng.run();
  EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-12);
}

TEST(Assembly, SpTtvProjectsPattern) {
  IndexVar i("i"), j("j"), k("k");
  Tensor A("A", {3, 4}, fmt::csr());
  Tensor B("B", {3, 4, 5}, fmt::csf3());
  Tensor c("c", {5}, fmt::dense_vector());
  fmt::Coo coo;
  coo.dims = {3, 4, 5};
  coo.push({0, 1, 2}, 1.0);
  coo.push({0, 1, 4}, 2.0);
  coo.push({2, 3, 0}, 3.0);
  B.from_coo(std::move(coo));
  c.init_dense([](const auto&) { return 2.0; });
  Statement& stmt = (A(i, j) = B(i, j, k) * c(k));
  AssemblyResult res = assemble_output(stmt);
  EXPECT_EQ(res.output_nnz, 2);  // fibers (0,1) and (2,3)
  CoiterEngine eng(stmt);
  A.zero();
  eng.run();
  EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-12);
}

TEST(Assembly, SddmmPreservesPattern) {
  IndexVar i("i"), j("j"), k("k");
  Tensor A("A", {4, 4}, fmt::csr());
  Tensor B("B", {4, 4}, fmt::csr());
  Tensor C("C", {4, 3}, fmt::dense_matrix());
  Tensor D("D", {3, 4}, fmt::dense_matrix());
  B.from_coo(small_csr_coo());
  Statement& stmt = (A(i, j) = B(i, j) * C(i, k) * D(k, j));
  AssemblyResult res = assemble_output(stmt);
  EXPECT_TRUE(res.pattern_preserved);
  EXPECT_EQ(res.output_nnz, 8);
}

TEST(Assembly, RejectsUncoveredOutputVar) {
  IndexVar i("i"), j("j");
  Tensor A("A", {4, 4}, fmt::csr());
  Tensor b("b", {4}, fmt::dcsr().order() == 1 ? fmt::dense_vector()
                                              : fmt::dense_vector());
  Tensor s("s", {4},
           fmt::Format({fmt::ModeFormat::Compressed()}));
  fmt::Coo coo;
  coo.dims = {4};
  coo.push({1}, 2.0);
  s.from_coo(std::move(coo));
  // A(i,j) = s(i): j is not covered by any sparse input.
  Statement& stmt = (A(i, j) = s(i));
  EXPECT_THROW(assemble_output(stmt), NotationError);
}

// --- assembly: metadata copy vs projection ------------------------------------

// Stored values the coordinate walk visits (what a projection reads).
int64_t stored_values(const Tensor& t) {
  int64_t n = 0;
  t.storage().for_each([&](const auto&, double) { ++n; });
  return n;
}

// The symbolic phase costs 12 bytes per visited stored value and 24 per
// assembled output entry, whichever path built the output.
void expect_symbolic_work(const AssemblyResult& res, int64_t visited) {
  EXPECT_EQ(res.symbolic_work.flops, 0.0);
  EXPECT_EQ(res.symbolic_work.bytes,
            12.0 * static_cast<double>(visited) +
                24.0 * static_cast<double>(res.output_nnz));
}

// What the general path builds for a pattern-preserving output: `in`'s
// stored coordinates with zero values, packed in `format`.
fmt::TensorStorage packed_pattern(const std::string& name,
                                  const fmt::Format& format, const Tensor& in) {
  fmt::Coo coo;
  coo.dims = in.dims();
  in.storage().for_each([&](const auto& c, double) { coo.push(c, 0.0); });
  return fmt::pack(name, format, in.dims(), std::move(coo));
}

// Region names of a storage in creation (id) order.
std::vector<std::string> regions_in_creation_order(
    const fmt::TensorStorage& st) {
  std::vector<std::pair<rt::RegionId, std::string>> regions;
  for (int l = 0; l < st.num_levels(); ++l) {
    const fmt::LevelStorage& level = st.level(l);
    if (level.pos) regions.emplace_back(level.pos->id(), level.pos->name());
    if (level.crd) regions.emplace_back(level.crd->id(), level.crd->name());
  }
  regions.emplace_back(st.vals()->id(), st.vals()->name());
  std::sort(regions.begin(), regions.end());
  std::vector<std::string> names;
  for (auto& r : regions) names.push_back(std::move(r.second));
  return names;
}

// Level-by-level equality: sizes, pos/crd contents, region names and
// creation order, and an all-zero vals region of the same size.
void expect_same_storage(const fmt::TensorStorage& got,
                         const fmt::TensorStorage& want) {
  EXPECT_TRUE(fmt::storage_equals(got, want));
  EXPECT_EQ(got.nnz(), want.nnz());
  ASSERT_EQ(got.num_levels(), want.num_levels());
  for (int l = 0; l < got.num_levels(); ++l) {
    const fmt::LevelStorage& g = got.level(l);
    const fmt::LevelStorage& w = want.level(l);
    EXPECT_EQ(g.positions, w.positions) << "level " << l;
    EXPECT_EQ(g.parent_positions, w.parent_positions) << "level " << l;
    ASSERT_EQ(g.pos != nullptr, w.pos != nullptr) << "level " << l;
    ASSERT_EQ(g.crd != nullptr, w.crd != nullptr) << "level " << l;
    if (g.pos) {
      ASSERT_EQ(g.pos->data().size(), w.pos->data().size()) << "level " << l;
      for (size_t q = 0; q < g.pos->data().size(); ++q) {
        EXPECT_EQ(g.pos->data()[q].lo, w.pos->data()[q].lo);
        EXPECT_EQ(g.pos->data()[q].hi, w.pos->data()[q].hi);
      }
    }
    if (g.crd) {
      EXPECT_EQ(g.crd->data(), w.crd->data()) << "level " << l;
    }
  }
  EXPECT_EQ(got.vals()->data(), want.vals()->data());
  for (double v : got.vals()->data()) {
    EXPECT_EQ(v, 0.0);
  }
  EXPECT_EQ(regions_in_creation_order(got), regions_in_creation_order(want));
}

fmt::Coo with_explicit_zero(fmt::Coo coo) {
  std::array<Coord, rt::kMaxDim> c{};
  for (size_t d = 0; d < coo.dims.size(); ++d) c[d] = coo.dims[d] - 1;
  coo.push(c, 0.0);  // stored, so it belongs to the pattern
  return coo;
}

TEST(Assembly, CopyPathMatchesGeneralPath) {
  IndexVar i("i"), j("j"), k("k");
  for (const fmt::Format& f : {fmt::csr(), fmt::dcsr()}) {
    Tensor A("A", {60, 50}, f);
    Tensor B("B", {60, 50}, f);
    Tensor C("C", {60, 4}, fmt::dense_matrix());
    Tensor D("D", {4, 50}, fmt::dense_matrix());
    B.from_coo(with_explicit_zero(data::powerlaw_matrix(60, 50, 500, 1.1, 3)));
    C.init_dense([](const auto& x) { return 1.0 + static_cast<double>(x[0]); });
    D.init_dense([](const auto& x) { return 0.5 * static_cast<double>(x[1]); });
    Statement& stmt = (A(i, j) = B(i, j) * C(i, k) * D(k, j));
    const AssemblyResult res = assemble_output(stmt);
    EXPECT_TRUE(res.pattern_preserved) << f.str();
    EXPECT_EQ(res.output_nnz, stored_values(B)) << f.str();
    expect_symbolic_work(res, stored_values(B));
    expect_same_storage(A.storage(), packed_pattern("A", f, B));
    CoiterEngine eng(stmt);
    A.zero();
    eng.run();
    EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-12) << f.str();
  }
  Tensor A("A", {9, 8, 7}, fmt::csf3());
  Tensor B("B", {9, 8, 7}, fmt::csf3());
  Tensor c("c", {7}, fmt::dense_vector());
  B.from_coo(with_explicit_zero(data::uniform_3tensor(9, 8, 7, 120, 4)));
  c.init_dense([](const auto& x) { return 1.0 + static_cast<double>(x[0]); });
  Statement& stmt = (A(i, j, k) = B(i, j, k) * c(k));
  const AssemblyResult res = assemble_output(stmt);
  EXPECT_TRUE(res.pattern_preserved);
  expect_symbolic_work(res, stored_values(B));
  expect_same_storage(A.storage(), packed_pattern("A", fmt::csf3(), B));
  CoiterEngine eng(stmt);
  A.zero();
  eng.run();
  EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-12);
}

// An output whose format differs from its operand's still preserves the
// pattern, but projects and packs it in its own format.
TEST(Assembly, MixedFormatsProjectAndPack) {
  IndexVar i("i"), j("j"), k("k");
  const fmt::Coo coo = data::powerlaw_matrix(40, 30, 300, 1.1, 5);
  const std::pair<fmt::Format, fmt::Format> cases[] = {
      {fmt::dcsr(), fmt::csr()}, {fmt::csr(), fmt::dcsr()}};
  for (const auto& [out_format, in_format] : cases) {
    Tensor A("A", {40, 30}, out_format);
    Tensor B("B", {40, 30}, in_format);
    Tensor C("C", {40, 3}, fmt::dense_matrix());
    Tensor D("D", {3, 30}, fmt::dense_matrix());
    B.from_coo(coo);
    C.init_dense([](const auto& x) { return 1.0 + static_cast<double>(x[1]); });
    D.init_dense([](const auto& x) { return 2.0 - static_cast<double>(x[0]); });
    Statement& stmt = (A(i, j) = B(i, j) * C(i, k) * D(k, j));
    const AssemblyResult res = assemble_output(stmt);
    EXPECT_TRUE(res.pattern_preserved);
    expect_symbolic_work(res, stored_values(B));
    expect_same_storage(A.storage(), packed_pattern("A", out_format, B));
    CoiterEngine eng(stmt);
    A.zero();
    eng.run();
    EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-12)
        << out_format.str() << " <- " << in_format.str();
  }
}

// Duplicates of a coalesce-off COO operand are visited (and charged) once
// each but assemble into one output entry, in either output format.
TEST(Assembly, CooDuplicatesAssembleOnce) {
  IndexVar i("i"), j("j");
  fmt::Coo coo = small_csr_coo();
  coo.push({1, 3}, 0.5);
  coo.push({0, 0}, -1.5);
  coo.push({1, 3}, 2.0);
  fmt::PackOptions raw;
  raw.coalesce = false;
  for (const fmt::Format& out_format : {fmt::coo(2), fmt::csr()}) {
    Tensor A("A", {4, 4}, out_format);
    Tensor B("B", {4, 4}, fmt::coo(2));
    Tensor C("C", {4, 4}, fmt::dense_matrix());
    B.set_storage(fmt::pack("B", fmt::coo(2), {4, 4}, coo, raw));
    C.init_dense([](const auto& x) {
      return 1.0 + static_cast<double>(x[0] * 4 + x[1]);
    });
    Statement& stmt = (A(i, j) = B(i, j) * C(i, j));
    const AssemblyResult res = assemble_output(stmt);
    EXPECT_TRUE(res.pattern_preserved);
    EXPECT_EQ(stored_values(B), 11);
    EXPECT_EQ(res.output_nnz, 8);
    expect_symbolic_work(res, 11);
    fmt::Coo distinct = small_csr_coo();
    for (double& v : distinct.vals) v = 0.0;
    expect_same_storage(A.storage(),
                        fmt::pack("A", out_format, {4, 4}, distinct));
    if (out_format == fmt::csr()) {
      CoiterEngine eng(stmt);
      A.zero();
      eng.run();
      EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-12);
    }
  }
}

// SpAdd3 over overlapping patterns: the output is exactly their union.
TEST(Assembly, SpAdd3OverlappingUnion) {
  IndexVar i("i"), j("j");
  const fmt::Coo b = data::powerlaw_matrix(50, 50, 400, 1.1, 6);
  const fmt::Coo c = data::shift_last_dim(b, 1);
  const fmt::Coo d = data::uniform_matrix(50, 50, 200, 7);
  Tensor A("A", {50, 50}, fmt::csr());
  Tensor B("B", {50, 50}, fmt::csr());
  Tensor C("C", {50, 50}, fmt::dcsr());
  Tensor D("D", {50, 50}, fmt::csr());
  B.from_coo(b);
  C.from_coo(c);
  D.from_coo(d);
  Statement& stmt = (A(i, j) = B(i, j) + C(i, j) + D(i, j));
  const AssemblyResult res = assemble_output(stmt);
  EXPECT_FALSE(res.pattern_preserved);
  std::set<std::array<Coord, rt::kMaxDim>> want;
  for (const Tensor* t : {&B, &C, &D}) {
    t->storage().for_each([&](const auto& x, double) { want.insert(x); });
  }
  EXPECT_LT(static_cast<int64_t>(want.size()),
            stored_values(B) + stored_values(C) + stored_values(D));
  EXPECT_EQ(res.output_nnz, static_cast<int64_t>(want.size()));
  expect_symbolic_work(res,
                       stored_values(B) + stored_values(C) + stored_values(D));
  fmt::Coo pattern;
  pattern.dims = {50, 50};
  for (const auto& x : want) pattern.push(x, 0.0);
  expect_same_storage(A.storage(),
                      fmt::pack("A", fmt::csr(), {50, 50}, pattern));
  CoiterEngine eng(stmt);
  A.zero();
  eng.run();
  EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-12);
}

// Projections that visit the operand in an order the output's storage
// order does not follow are sorted before packing: a transpose, and a
// reduction over a middle variable (k repeats under each j).
TEST(Assembly, UnsortedProjectionsAreSorted) {
  IndexVar i("i"), j("j"), k("k");
  Tensor A("A", {30, 40}, fmt::csr());
  Tensor B("B", {40, 30}, fmt::csr());
  Tensor c("c", {30}, fmt::dense_vector());
  B.from_coo(data::powerlaw_matrix(40, 30, 250, 1.1, 8));
  Statement& transpose = (A(j, i) = B(i, j) * c(j));
  const AssemblyResult res = assemble_output(transpose);
  EXPECT_FALSE(res.pattern_preserved);
  EXPECT_EQ(res.output_nnz, stored_values(B));
  expect_symbolic_work(res, stored_values(B));
  fmt::Coo transposed;
  transposed.dims = {30, 40};
  B.storage().for_each(
      [&](const auto& x, double) { transposed.push({x[1], x[0]}, 0.0); });
  expect_same_storage(A.storage(),
                      fmt::pack("A", fmt::csr(), {30, 40}, transposed));

  Tensor X("X", {9, 7}, fmt::csr());
  Tensor T("T", {9, 8, 7}, fmt::csf3());
  Tensor v("v", {8}, fmt::dense_vector());
  T.from_coo(data::uniform_3tensor(9, 8, 7, 150, 9));
  v.init_dense([](const auto& x) { return 1.0 + static_cast<double>(x[0]); });
  Statement& reduce = (X(i, k) = T(i, j, k) * v(j));
  const AssemblyResult r = assemble_output(reduce);
  EXPECT_FALSE(r.pattern_preserved);
  expect_symbolic_work(r, stored_values(T));
  std::set<std::array<Coord, rt::kMaxDim>> want;
  T.storage().for_each([&](const auto& x, double) {
    want.insert({x[0], x[2], 0, 0});
  });
  EXPECT_EQ(r.output_nnz, static_cast<int64_t>(want.size()));
  fmt::Coo projected;
  projected.dims = {9, 7};
  for (const auto& x : want) projected.push(x, 0.0);
  expect_same_storage(X.storage(),
                      fmt::pack("X", fmt::csr(), {9, 7}, projected));
  CoiterEngine eng(reduce, {i, j, k});
  X.zero();
  eng.run();
  EXPECT_LE(ref::max_abs_diff(X, ref::eval(reduce)), 1e-12);
}

// Property: random einsum-like statements evaluated by the engine agree
// with the dense reference.
class CoiterRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(CoiterRandomProperty, MatchesDenseReference) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761u + 42);
  const Coord n = 3 + static_cast<Coord>(rng.next_below(6));
  const Coord m = 3 + static_cast<Coord>(rng.next_below(6));
  const Coord p = 3 + static_cast<Coord>(rng.next_below(6));
  IndexVar i("i"), j("j"), k("k");

  auto random_matrix = [&](const std::string& name, Coord r, Coord c,
                           const fmt::Format& f) {
    Tensor t(name, {r, c}, f);
    fmt::Coo coo;
    coo.dims = {r, c};
    const int count = static_cast<int>(rng.next_below(
        static_cast<uint64_t>(r * c / 2 + 1)));
    for (int e = 0; e < count; ++e) {
      coo.push({rng.next_range(0, r - 1), rng.next_range(0, c - 1)},
               rng.next_double(-1, 1));
    }
    t.from_coo(std::move(coo));
    return t;
  };

  switch (GetParam() % 3) {
    case 0: {  // SpMM-like with sparse B
      Tensor A("A", {n, p}, fmt::dense_matrix());
      Tensor B = random_matrix("B", n, m, fmt::csr());
      Tensor C("C", {m, p}, fmt::dense_matrix());
      C.init_dense([&](const auto& x) {
        return static_cast<double>(x[0]) - 0.5 * static_cast<double>(x[1]);
      });
      Statement& stmt = (A(i, j) = B(i, k) * C(k, j));
      CoiterEngine eng(stmt, {i, k, j});
      A.zero();
      eng.run();
      EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-10);
      break;
    }
    case 1: {  // two-sparse sum
      Tensor A("A", {n, m}, fmt::csr());
      Tensor B = random_matrix("B", n, m, fmt::csr());
      Tensor C = random_matrix("C", n, m, fmt::csr());
      Statement& stmt = (A(i, j) = B(i, j) + C(i, j));
      assemble_output(stmt);
      CoiterEngine eng(stmt);
      A.zero();
      eng.run();
      EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-10);
      break;
    }
    case 2: {  // sparse-dense elementwise with reduction: y(i) = S(i,k)*T(i,k)
      Tensor y("y", {n}, fmt::dense_vector());
      Tensor S = random_matrix("S", n, m, fmt::csr());
      Tensor T = random_matrix("T", n, m, fmt::dcsr());
      Statement& stmt = (y(i) = S(i, k) * T(i, k));
      CoiterEngine eng(stmt);
      y.zero();
      eng.run();
      EXPECT_LE(ref::max_abs_diff(y, ref::eval(stmt)), 1e-10);
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomStatements, CoiterRandomProperty,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace spdistal::kern
