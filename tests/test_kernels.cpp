// Specialized leaf kernels vs. the dense reference oracle and the general
// co-iteration engine, on realistic synthetic structures.
#include <gtest/gtest.h>

#include "data/generators.h"
#include "kernels/assembly.h"
#include "kernels/leaf_kernels.h"
#include "tensor/dense_ref.h"

namespace spdistal::kern {
namespace {

using rt::Coord;

struct MatrixCase {
  const char* name;
  std::function<fmt::Coo()> make;
};

std::vector<MatrixCase> matrix_cases() {
  return {
      {"banded", [] { return data::banded_matrix(60, 5, 1); }},
      {"uniform", [] { return data::uniform_matrix(50, 40, 300, 2); }},
      {"powerlaw", [] { return data::powerlaw_matrix(64, 64, 400, 1.2, 3); }},
      {"regular", [] { return data::regular_matrix(80, 3, 4); }},
      {"empty_rows",
       [] {
         fmt::Coo coo;
         coo.dims = {10, 10};
         coo.push({0, 0}, 1.0);
         coo.push({9, 9}, 2.0);
         return coo;
       }},
      {"single", [] {
         fmt::Coo coo;
         coo.dims = {1, 1};
         coo.push({0, 0}, 3.0);
         return coo;
       }},
  };
}

// Cuts the stored positions of a position-split level into pieces that
// stress a leaf's parent walk: one starts mid-segment, one starts right
// after an empty parent segment (each when the structure has one), and one
// is empty. Together they cover every position exactly once.
std::vector<rt::Rect1> stress_pieces(const fmt::LevelStorage& level) {
  const rt::Region<rt::PosRange>& pos = *level.pos;
  Coord mid_segment = 0;
  Coord after_empty = 0;
  for (Coord p = 0; p < level.parent_positions; ++p) {
    const rt::PosRange seg = pos[p];
    if (mid_segment == 0 && seg.size() >= 2) mid_segment = seg.lo + 1;
    if (after_empty == 0 && p > 0 && pos[p - 1].empty() && !seg.empty()) {
      after_empty = seg.lo;
    }
  }
  std::vector<rt::Rect1> pieces;
  Coord lo = 0;
  for (Coord cut : {std::min(mid_segment, after_empty),
                    std::max(mid_segment, after_empty)}) {
    if (cut <= lo) continue;
    pieces.push_back(rt::Rect1{lo, cut - 1});
    lo = cut;
  }
  pieces.push_back(rt::Rect1{lo, level.positions - 1});
  pieces.push_back(rt::Rect1{level.positions, level.positions - 1});
  return pieces;
}

// Runs `leaf` once per stress piece of `level`.
void run_position_pieces(Leaf& leaf, const fmt::LevelStorage& level) {
  for (const rt::Rect1& r : stress_pieces(level)) {
    PieceBounds piece;
    piece.dist_pos = r;
    leaf(piece);
  }
}

class SpmvKernels : public ::testing::TestWithParam<int> {};

TEST_P(SpmvKernels, RowAndNzMatchReference) {
  const MatrixCase mc = matrix_cases()[static_cast<size_t>(GetParam())];
  IndexVar i("i"), j("j");
  fmt::Coo coo = mc.make();
  const Coord n = coo.dims[0];
  const Coord m = coo.dims[1];
  Tensor a("a", {n}, fmt::dense_vector());
  Tensor B("B", {n, m}, fmt::csr());
  Tensor c("c", {m}, fmt::dense_vector());
  B.from_coo(std::move(coo));
  c.init_dense([](const auto& x) {
    return 1.0 + 0.25 * static_cast<double>(x[0] % 7);
  });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  const ref::DenseTensor expect = ref::eval(stmt);

  {
    Leaf leaf = make_spmv_row(a, B, c);
    a.zero();
    // Run as two pieces to exercise the boundary.
    PieceBounds p1, p2;
    p1.dist_coords = rt::Rect1{0, n / 2};
    p2.dist_coords = rt::Rect1{n / 2 + 1, n - 1};
    leaf(p1);
    if (!p2.dist_coords->empty()) leaf(p2);
    EXPECT_LE(ref::max_abs_diff(a, expect), 1e-12) << mc.name << " row";
  }
  {
    Leaf leaf = make_spmv_nz(a, B, c);
    a.zero();
    run_position_pieces(leaf, B.storage().level(1));
    EXPECT_LE(ref::max_abs_diff(a, expect), 1e-12) << mc.name << " nz";
  }
}

INSTANTIATE_TEST_SUITE_P(Structures, SpmvKernels, ::testing::Range(0, 6));

class SpmmKernel : public ::testing::TestWithParam<int> {};

TEST_P(SpmmKernel, MatchesReference) {
  const MatrixCase mc = matrix_cases()[static_cast<size_t>(GetParam())];
  IndexVar i("i"), j("j"), k("k");
  fmt::Coo coo = mc.make();
  const Coord n = coo.dims[0];
  const Coord m = coo.dims[1];
  const Coord jdim = 8;
  Tensor A("A", {n, jdim}, fmt::dense_matrix());
  Tensor B("B", {n, m}, fmt::csr());
  Tensor C("C", {m, jdim}, fmt::dense_matrix());
  B.from_coo(std::move(coo));
  C.init_dense([](const auto& x) {
    return 0.5 + static_cast<double>((x[0] * 3 + x[1]) % 5);
  });
  Statement& stmt = (A(i, j) = B(i, k) * C(k, j));
  const ref::DenseTensor expect = ref::eval(stmt);
  {
    Leaf leaf = make_spmm_row(A, B, C);
    A.zero();
    leaf(PieceBounds{});
    EXPECT_LE(ref::max_abs_diff(A, expect), 1e-10) << mc.name << " row";
  }
  {
    Leaf leaf = make_spmm_nz(A, B, C);
    A.zero();
    run_position_pieces(leaf, B.storage().level(1));
    EXPECT_LE(ref::max_abs_diff(A, expect), 1e-10) << mc.name << " nz";
  }
}

INSTANTIATE_TEST_SUITE_P(Structures, SpmmKernel, ::testing::Range(0, 6));

class SpAdd3Kernel : public ::testing::TestWithParam<int> {};

TEST_P(SpAdd3Kernel, FusedUnionMatchesReference) {
  const MatrixCase mc = matrix_cases()[static_cast<size_t>(GetParam())];
  IndexVar i("i"), j("j");
  fmt::Coo coo = mc.make();
  const Coord n = coo.dims[0];
  const Coord m = coo.dims[1];
  Tensor A("A", {n, m}, fmt::csr());
  Tensor B("B", {n, m}, fmt::csr());
  Tensor C("C", {n, m}, fmt::csr());
  Tensor D("D", {n, m}, fmt::csr());
  B.from_coo(coo);
  C.from_coo(data::shift_last_dim(coo, 1 % m));
  D.from_coo(data::shift_last_dim(coo, 2 % m));
  Statement& stmt = (A(i, j) = B(i, j) + C(i, j) + D(i, j));
  assemble_output(stmt);
  Leaf leaf = make_spadd3_row(A, B, C, D);
  A.zero();
  leaf(PieceBounds{});
  EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-12) << mc.name;
}

INSTANTIATE_TEST_SUITE_P(Structures, SpAdd3Kernel, ::testing::Range(0, 6));

class SddmmKernel : public ::testing::TestWithParam<int> {};

TEST_P(SddmmKernel, RowAndNzMatchReference) {
  const MatrixCase mc = matrix_cases()[static_cast<size_t>(GetParam())];
  IndexVar i("i"), j("j"), k("k");
  fmt::Coo coo = mc.make();
  const Coord n = coo.dims[0];
  const Coord m = coo.dims[1];
  const Coord kdim = 6;
  Tensor A("A", {n, m}, fmt::csr());
  Tensor B("B", {n, m}, fmt::csr());
  Tensor C("C", {n, kdim}, fmt::dense_matrix());
  Tensor D("D", {kdim, m}, fmt::dense_matrix());
  B.from_coo(std::move(coo));
  C.init_dense([](const auto& x) {
    return 1.0 + 0.1 * static_cast<double>((x[0] + x[1]) % 4);
  });
  D.init_dense([](const auto& x) {
    return 0.5 - 0.2 * static_cast<double>((x[0] * 2 + x[1]) % 3);
  });
  Statement& stmt = (A(i, j) = B(i, j) * C(i, k) * D(k, j));
  assemble_output(stmt);
  const ref::DenseTensor expect = ref::eval(stmt);
  {
    Leaf leaf = make_sddmm_row(A, B, C, D);
    A.zero();
    leaf(PieceBounds{});
    EXPECT_LE(ref::max_abs_diff(A, expect), 1e-10) << mc.name << " row";
  }
  {
    Leaf leaf = make_sddmm_nz(A, B, C, D);
    A.zero();
    run_position_pieces(leaf, B.storage().level(1));
    EXPECT_LE(ref::max_abs_diff(A, expect), 1e-10) << mc.name << " nz";
  }
}

INSTANTIATE_TEST_SUITE_P(Structures, SddmmKernel, ::testing::Range(0, 6));

struct TensorCase {
  const char* name;
  fmt::Format format;
  std::function<fmt::Coo()> make;
};

std::vector<TensorCase> tensor_cases() {
  return {
      {"uniform_csf", fmt::csf3(),
       [] { return data::uniform_3tensor(20, 15, 25, 300, 5); }},
      {"powerlaw_csf", fmt::csf3(),
       [] { return data::powerlaw_3tensor(30, 20, 10, 400, 1.2, 6); }},
      {"patents_ddc", fmt::ddc3(),
       [] { return data::patents_like_3tensor(6, 8, 30, 0.2, 7); }},
  };
}

class SpttvKernel : public ::testing::TestWithParam<int> {};

TEST_P(SpttvKernel, MatchesReference) {
  const TensorCase tc = tensor_cases()[static_cast<size_t>(GetParam())];
  IndexVar i("i"), j("j"), k("k");
  fmt::Coo coo = tc.make();
  const auto dims = coo.dims;
  Tensor A("A", {dims[0], dims[1]}, fmt::csr());
  Tensor B("B", dims, tc.format);
  Tensor c("c", {dims[2]}, fmt::dense_vector());
  B.from_coo(std::move(coo));
  c.init_dense([](const auto& x) {
    return 1.0 + 0.3 * static_cast<double>(x[0] % 5);
  });
  Statement& stmt = (A(i, j) = B(i, j, k) * c(k));
  assemble_output(stmt);
  const ref::DenseTensor expect = ref::eval(stmt);
  {
    Leaf leaf = make_spttv_row(A, B, c);
    A.zero();
    // Two row pieces.
    PieceBounds p1, p2;
    p1.dist_coords = rt::Rect1{0, dims[0] / 2};
    p2.dist_coords = rt::Rect1{dims[0] / 2 + 1, dims[0] - 1};
    leaf(p1);
    if (!p2.dist_coords->empty()) leaf(p2);
    EXPECT_LE(ref::max_abs_diff(A, expect), 1e-10) << tc.name << " row";
  }
  {
    Leaf leaf = make_spttv_nz(A, B, c);
    A.zero();
    run_position_pieces(leaf, B.storage().level(2));
    EXPECT_LE(ref::max_abs_diff(A, expect), 1e-10) << tc.name << " nz";
  }
}

INSTANTIATE_TEST_SUITE_P(Structures, SpttvKernel, ::testing::Range(0, 3));

class SpmttkrpKernel : public ::testing::TestWithParam<int> {};

TEST_P(SpmttkrpKernel, MatchesReference) {
  const TensorCase tc = tensor_cases()[static_cast<size_t>(GetParam())];
  IndexVar i("i"), j("j"), k("k"), l("l");
  fmt::Coo coo = tc.make();
  const auto dims = coo.dims;
  const Coord L = 5;
  Tensor A("A", {dims[0], L}, fmt::dense_matrix());
  Tensor B("B", dims, tc.format);
  Tensor C("C", {dims[1], L}, fmt::dense_matrix());
  Tensor D("D", {dims[2], L}, fmt::dense_matrix());
  B.from_coo(std::move(coo));
  C.init_dense([](const auto& x) {
    return 0.5 + 0.25 * static_cast<double>((x[0] + 2 * x[1]) % 3);
  });
  D.init_dense([](const auto& x) {
    return 1.0 - 0.125 * static_cast<double>((2 * x[0] + x[1]) % 5);
  });
  Statement& stmt = (A(i, l) = B(i, j, k) * C(j, l) * D(k, l));
  const ref::DenseTensor expect = ref::eval(stmt);
  {
    Leaf leaf = make_spmttkrp_row(A, B, C, D);
    A.zero();
    leaf(PieceBounds{});
    EXPECT_LE(ref::max_abs_diff(A, expect), 1e-9) << tc.name << " row";
  }
  {
    Leaf leaf = make_spmttkrp_nz(A, B, C, D);
    A.zero();
    run_position_pieces(leaf, B.storage().level(2));
    EXPECT_LE(ref::max_abs_diff(A, expect), 1e-9) << tc.name << " nz";
  }
}

INSTANTIATE_TEST_SUITE_P(Structures, SpmttkrpKernel, ::testing::Range(0, 3));

// Work estimates scale with the work actually performed.
TEST(WorkEstimates, ScaleWithNnz) {
  IndexVar i("i"), j("j");
  fmt::Coo small = data::uniform_matrix(40, 40, 100, 8);
  fmt::Coo large = data::uniform_matrix(40, 40, 800, 9);
  auto measure = [&](fmt::Coo coo) {
    const Coord n = coo.dims[0];
    Tensor a("a", {n}, fmt::dense_vector());
    Tensor B("B", coo.dims, fmt::csr());
    Tensor c("c", {coo.dims[1]}, fmt::dense_vector());
    B.from_coo(std::move(coo));
    c.init_dense([](const auto&) { return 1.0; });
    Leaf leaf = make_spmv_row(a, B, c);
    a.zero();
    return leaf(PieceBounds{});
  };
  const rt::WorkEstimate ws = measure(std::move(small));
  const rt::WorkEstimate wl = measure(std::move(large));
  EXPECT_GT(wl.flops, 4 * ws.flops);
  EXPECT_GT(wl.bytes, 2 * ws.bytes);
}

}  // namespace
}  // namespace spdistal::kern
