// Specialized leaf kernels vs. the dense reference oracle and the general
// co-iteration engine, on realistic synthetic structures.
#include <gtest/gtest.h>

#include "compiler/lower.h"
#include "data/generators.h"
#include "kernels/assembly.h"
#include "kernels/leaf_kernels.h"
#include "tensor/dense_ref.h"
#include "verify/verify.h"

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

// Per row of a Dense-rooted operand: the stored positions of its last
// level, its level-1 positions (fibers, 3-tensors only) and how many of
// those fibers are non-empty. Read straight from the packed pos arrays.
struct RowStats {
  std::vector<Coord> nnz, fibers, full_fibers;
};

RowStats row_stats(const fmt::TensorStorage& st) {
  const Coord rows = st.level(0).extent;
  RowStats s{std::vector<Coord>(static_cast<size_t>(rows)),
             std::vector<Coord>(static_cast<size_t>(rows)),
             std::vector<Coord>(static_cast<size_t>(rows))};
  for (Coord r = 0; r < rows; ++r) {
    const size_t k = static_cast<size_t>(r);
    if (st.num_levels() == 2) {
      s.nnz[k] = (*st.level(1).pos)[r].size();
      continue;
    }
    const fmt::LevelStorage& l1 = st.level(1);
    const rt::PosRange q1 = l1.kind.is_compressed()
                                ? (*l1.pos)[r]
                                : rt::PosRange{r * l1.extent,
                                               (r + 1) * l1.extent - 1};
    for (Coord q = q1.lo; q <= q1.hi; ++q) {
      const Coord len = (*st.level(2).pos)[q].size();
      s.nnz[k] += len;
      s.fibers[k] += 1;
      s.full_fibers[k] += len > 0 ? 1 : 0;
    }
  }
  return s;
}

Coord sum_over(const std::vector<Coord>& per_row, rt::Rect1 rows) {
  Coord total = 0;
  for (Coord r = rows.lo; r <= rows.hi; ++r) {
    total += per_row[static_cast<size_t>(r)];
  }
  return total;
}

// Cuts the rows of an operand (`row_nnz` stored entries per row) into row
// pieces that stress a row piece's walk: one begins with a run of empty
// rows and one ends with one (each when the structure has empty rows), one
// is a single row, and one is empty. Together they cover every row exactly
// once.
std::vector<rt::Rect1> stress_rows(const std::vector<Coord>& row_nnz) {
  const Coord n = static_cast<Coord>(row_nnz.size());
  std::vector<Coord> cuts = {n / 2, n / 2 + 1};
  for (Coord r = 0; r < n; ++r) {
    if (row_nnz[static_cast<size_t>(r)] != 0) continue;
    cuts.push_back(r);  // starts a piece with an empty row...
    break;
  }
  for (Coord r = n - 1; r >= 0; --r) {
    if (row_nnz[static_cast<size_t>(r)] != 0) continue;
    cuts.push_back(r + 1);  // ...and ends one with an empty row
    break;
  }
  std::sort(cuts.begin(), cuts.end());
  std::vector<rt::Rect1> pieces;
  Coord lo = 0;
  for (Coord cut : cuts) {
    if (cut <= lo || cut >= n) continue;
    pieces.push_back(rt::Rect1{lo, cut - 1});
    lo = cut;
  }
  pieces.push_back(rt::Rect1{lo, n - 1});
  pieces.push_back(rt::Rect1{n / 2, n / 2 - 1});
  return pieces;
}

// Runs a row leaf over every stress_rows piece and then once over
// PieceBounds{} (all rows), checking the output against `expect` after
// each full pass and each piece's WorkEstimate against `work(rows)`, the
// row loop's pricing. Pieces name their rows in dist_coords, or in
// dist_pos for a mid-tree split's `row_positions`; every piece carries
// `var_coords`.
template <typename Work>
void run_row_pieces(
    Leaf& leaf, const std::vector<Coord>& row_nnz, const Tensor& out,
    const ref::DenseTensor& expect, double tol, const std::string& what,
    Work work, bool row_positions = false,
    const std::vector<std::pair<uint32_t, rt::Rect1>>& var_coords = {}) {
  auto bounds = [&](std::optional<rt::Rect1> rows) {
    PieceBounds piece;
    (row_positions ? piece.dist_pos : piece.dist_coords) = rows;
    piece.var_coords = var_coords;
    return piece;
  };
  auto check = [&](const rt::WorkEstimate& got, rt::Rect1 rows) {
    const rt::WorkEstimate want = work(rows);
    EXPECT_EQ(got.flops, want.flops) << what << " [" << rows.lo << ", "
                                     << rows.hi << "]";
    EXPECT_EQ(got.bytes, want.bytes) << what << " [" << rows.lo << ", "
                                     << rows.hi << "]";
    EXPECT_EQ(got.nnz, want.nnz) << what << " [" << rows.lo << ", "
                                 << rows.hi << "]";
  };
  Tensor o = out;
  o.zero();
  for (const rt::Rect1& rows : stress_rows(row_nnz)) {
    check(leaf(bounds(rows)), rows);
  }
  EXPECT_LE(ref::max_abs_diff(o, expect), tol) << what << " pieces";
  o.zero();
  const rt::Rect1 all{0, static_cast<Coord>(row_nnz.size()) - 1};
  check(leaf(bounds(std::nullopt)), all);
  EXPECT_LE(ref::max_abs_diff(o, expect), tol) << what << " whole";
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
  // Row pieces, and the mid-tree split's row positions, price like a row
  // loop: 16 B of pos and an 8 B output update per row.
  const RowStats rs = row_stats(B.storage());
  auto row_work = [&](rt::Rect1 rows) {
    const double nnz = static_cast<double>(sum_over(rs.nnz, rows));
    return rt::WorkEstimate{2 * nnz,
                            24.0 * static_cast<double>(rows.size()) +
                                20 * nnz,
                            nnz};
  };
  Leaf row = make_spmv_row(a, B, c);
  run_row_pieces(row, rs.nnz, a, expect, 1e-12,
                 std::string(mc.name) + " row", row_work);
  Leaf mid = make_spmv_nz(a, B, c, std::nullopt, /*pos_level=*/0);
  run_row_pieces(mid, rs.nnz, a, expect, 1e-12,
                 std::string(mc.name) + " mid-tree", row_work,
                 /*row_positions=*/true);
  // A non-zero x universe grid's mid-tree piece also clamps j: entries
  // outside the block stream only their 4 B crd.
  const rt::Rect1 cols{0, m / 2};
  Tensor a2("a2", {n}, fmt::dense_vector());
  Tensor cb("cb", {m}, fmt::dense_vector());
  cb.init_dense([&](const auto& x) {
    return cols.contains(x[0]) ? 1.0 + 0.25 * static_cast<double>(x[0] % 7)
                               : 0.0;
  });
  const ref::DenseTensor expect_block = ref::eval(a2(i) = B(i, j) * cb(j));
  const fmt::TensorStorage& st = B.storage();
  auto clamped_work = [&](rt::Rect1 rows) {
    double kept = 0;
    double stored = 0;
    for (Coord r = rows.lo; r <= rows.hi; ++r) {
      const rt::PosRange seg = (*st.level(1).pos)[r];
      for (Coord q = seg.lo; q <= seg.hi; ++q) {
        kept += cols.contains((*st.level(1).crd)[q]) ? 1 : 0;
        stored += 1;
      }
    }
    return rt::WorkEstimate{
        2 * kept,
        24.0 * static_cast<double>(rows.size()) + 20 * kept +
            4 * (stored - kept),
        kept};
  };
  Leaf clamped = make_spmv_nz(a, B, c, j.id(), /*pos_level=*/0);
  run_row_pieces(clamped, rs.nnz, a, expect_block, 1e-12,
                 std::string(mc.name) + " mid-tree clamped", clamped_work,
                 /*row_positions=*/true, {{j.id(), cols}});
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
  // Row pieces add 16 B of pos per row to the walk's per-entry pricing.
  const RowStats rs = row_stats(B.storage());
  Leaf row = make_spmm_row(A, B, C);
  run_row_pieces(row, rs.nnz, A, expect, 1e-10,
                 std::string(mc.name) + " row", [&](rt::Rect1 rows) {
                   const double nnz = static_cast<double>(
                       sum_over(rs.nnz, rows));
                   return rt::WorkEstimate{
                       2.0 * jdim * nnz,
                       16.0 * static_cast<double>(rows.size()) +
                           (8.0 * jdim + 12) * nnz,
                       nnz};
                 });
  // An empty column block does no work at all, not even per row.
  Leaf tiled = make_spmm_row(A, B, C, j.id());
  PieceBounds none;
  none.dist_coords = rt::Rect1{0, n - 1};
  none.var_coords = {{j.id(), rt::Rect1{jdim, jdim - 1}}};
  const rt::WorkEstimate w = tiled(none);
  EXPECT_EQ(w.flops, 0.0);
  EXPECT_EQ(w.bytes, 0.0);
  EXPECT_EQ(w.nnz, 0.0);
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
  const ref::DenseTensor expect = ref::eval(stmt);
  EXPECT_LE(ref::max_abs_diff(A, expect), 1e-12) << mc.name;
  // Three pos reads per row, one merged output entry per stored A entry.
  const RowStats out = row_stats(A.storage());
  run_row_pieces(leaf, out.nnz, A, expect, 1e-12,
                 std::string(mc.name) + " rows", [&](rt::Rect1 rows) {
                   const double nnz = static_cast<double>(
                       sum_over(out.nnz, rows));
                   return rt::WorkEstimate{
                       2 * nnz,
                       48.0 * static_cast<double>(rows.size()) + 36 * nnz,
                       nnz};
                 });
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
  // Row pieces price exactly like the walk: nothing per row.
  const RowStats rs = row_stats(B.storage());
  Leaf row = make_sddmm_row(A, B, C, D);
  run_row_pieces(row, rs.nnz, A, expect, 1e-10,
                 std::string(mc.name) + " row", [&](rt::Rect1 rows) {
                   const double nnz = static_cast<double>(
                       sum_over(rs.nnz, rows));
                   return rt::WorkEstimate{(2.0 * kdim + 2) * nnz,
                                           (16.0 * kdim + 20) * nnz, nnz};
                 });
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
  // Row pieces: 16 B of pos per row and per non-empty fiber (its output
  // entry), plus the multiply-adds.
  const RowStats rs = row_stats(B.storage());
  Leaf row = make_spttv_row(A, B, c);
  run_row_pieces(row, rs.nnz, A, expect, 1e-10,
                 std::string(tc.name) + " row", [&](rt::Rect1 rows) {
                   const double nnz = static_cast<double>(
                       sum_over(rs.nnz, rows));
                   const double full = static_cast<double>(
                       sum_over(rs.full_fibers, rows));
                   return rt::WorkEstimate{
                       2 * nnz,
                       16.0 * static_cast<double>(rows.size()) + 16 * full +
                           20 * nnz,
                       nnz};
                 });
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
  // Row pieces: 16 B of pos per fiber, and per row when level 1 is
  // Compressed, plus the multiply-adds.
  const RowStats rs = row_stats(B.storage());
  const bool compressed = B.storage().level(1).kind.is_compressed();
  Leaf row = make_spmttkrp_row(A, B, C, D);
  run_row_pieces(row, rs.nnz, A, expect, 1e-9,
                 std::string(tc.name) + " row", [&](rt::Rect1 rows) {
                   const double nnz = static_cast<double>(
                       sum_over(rs.nnz, rows));
                   const double fibers = static_cast<double>(
                       sum_over(rs.fibers, rows));
                   const double per_row =
                       compressed ? 16.0 * static_cast<double>(rows.size())
                                  : 0.0;
                   return rt::WorkEstimate{
                       4.0 * L * nnz,
                       16 * fibers + per_row + (16.0 * L + 12) * nnz, nnz};
                 });
}

INSTANTIATE_TEST_SUITE_P(Structures, SpmttkrpKernel, ::testing::Range(0, 3));

// A CSR row split under verify mode: each row piece declares only its own
// rows' pos entries, so a walk that read the pos entry past its last row,
// or binary-searched the whole array, would fail the privilege checker.
// Every piece starts with a run of empty rows; one also ends with one.
TEST(RowPieces, CsrRowSplitReadsOnlyItsRowsPosUnderVerify) {
  const bool was_verifying = verify::enabled();
  verify::set_enabled(true);
  const Coord n = 64;
  fmt::Coo coo;
  coo.dims = {n, n};
  for (Coord r = 0; r < n; ++r) {
    if (r % 16 < 3 || r == 30 || r == 31) continue;  // empty rows
    for (Coord k = 0; k < 1 + r % 4; ++k) coo.push({r, (r * 5 + k) % n}, 1.0);
  }
  IndexVar i("i"), j("j"), io("io"), ii("ii");
  Tensor a("a", {n}, fmt::dense_vector(), tdn::parse_tdn("a(x) -> M(x)"));
  Tensor B("B", {n, n}, fmt::csr(), tdn::parse_tdn("B(x, y) -> M(x)"));
  Tensor c("c", {n}, fmt::dense_vector(), tdn::parse_tdn("c(x) -> M(y)"));
  B.from_coo(std::move(coo));
  c.init_dense([](const auto& x) { return 1.0 + static_cast<double>(x[0]); });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  a.schedule().divide(i, io, ii, 4).distribute(io);
  rt::MachineConfig cfg;
  cfg.nodes = 4;
  const rt::Machine m(cfg, rt::Grid(4), rt::ProcKind::CPU);
  const verify::Stats before = verify::stats();
  {
    rt::Runtime runtime(m);
    auto compiled = comp::CompiledKernel::compile(stmt, m);
    EXPECT_EQ(compiled.leaf_kernel_name(), "spmv_row");
    auto inst = compiled.instantiate(runtime);
    EXPECT_NO_THROW(inst->run(2));
    EXPECT_NO_THROW(runtime.flush());
  }
  const verify::Stats after = verify::stats();
  verify::set_enabled(was_verifying);
  EXPECT_GT(after.tasks_checked, before.tasks_checked);
  EXPECT_EQ(after.violations, before.violations);
  EXPECT_LE(ref::max_abs_diff(a, ref::eval(stmt)), 1e-12);
}

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
