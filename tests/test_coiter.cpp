// Tests for the general co-iteration engine and two-phase assembly.
#include <gtest/gtest.h>

#include <chrono>

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
