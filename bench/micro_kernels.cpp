// google-benchmark microbenchmarks for the leaf kernels: specialized kernels
// vs the general co-iteration engine (the specialization gap compilation
// buys at the leaves), a CSR-vs-COO comparison on the steady-state launch
// path (same schedule, different mode formats), and blocked-vs-CSR rows on
// a block-structured matrix (the register-tiled bcsr micro-kernels), plus
// two setup rows: assembling a pattern-preserving output and packing an
// unsorted list.
//
// Besides the stdout table, every finished run is recorded into
// BENCH_kernels.json (bench_util's shared writer; the median row when
// repetitions are requested), and three ratio contracts are checked after
// the run — the blocked rows' >= 1.5x speedup over their CSR twins, the
// warm steady-state CSR launch's <= 10x overhead over the direct leaf, and
// pattern-preserving assembly at <= 0.5x an unsorted pack of the same
// matrix — fatal under SPDISTAL_BENCH_ASSERT (the CI Release smoke gate),
// advisory otherwise.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "common/rng.h"
#include "compiler/lower.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "kernels/assembly.h"
#include "kernels/leaf_kernels.h"

namespace {

using namespace spdistal;
using rt::Coord;

struct SpmvFixture {
  IndexVar i{"i"}, j{"j"};
  Tensor a, B, c;
  Statement* stmt;
  explicit SpmvFixture(int64_t nnz, fmt::Format format = fmt::csr()) {
    fmt::Coo coo = data::powerlaw_matrix(nnz / 12, nnz / 12, nnz, 1.1, 7);
    a = Tensor("a", {coo.dims[0]}, fmt::dense_vector());
    B = Tensor("B", coo.dims, std::move(format));
    c = Tensor("c", {coo.dims[1]}, fmt::dense_vector());
    B.from_coo(std::move(coo));
    c.init_dense([](const auto&) { return 1.0; });
    stmt = &(a(i) = B(i, j) * c(j));
  }
};

void BM_SpmvSpecialized(benchmark::State& state) {
  SpmvFixture f(state.range(0));
  kern::Leaf leaf = kern::make_spmv_row(f.a, f.B, f.c);
  for (auto _ : state) {
    f.a.zero();
    benchmark::DoNotOptimize(leaf(kern::PieceBounds{}).flops);
  }
  state.SetItemsProcessed(state.iterations() * f.B.storage().nnz());
}
BENCHMARK(BM_SpmvSpecialized)->Arg(100000);

void BM_SpmvCoiter(benchmark::State& state) {
  SpmvFixture f(state.range(0));
  kern::CoiterEngine engine(*f.stmt);
  for (auto _ : state) {
    f.a.zero();
    benchmark::DoNotOptimize(engine.run().flops);
  }
  state.SetItemsProcessed(state.iterations() * f.B.storage().nnz());
}
BENCHMARK(BM_SpmvCoiter)->Arg(100000);

void BM_SpmvNz(benchmark::State& state) {
  SpmvFixture f(state.range(0));
  kern::Leaf leaf = kern::make_spmv_nz(f.a, f.B, f.c);
  for (auto _ : state) {
    f.a.zero();
    benchmark::DoNotOptimize(leaf(kern::PieceBounds{}).flops);
  }
  state.SetItemsProcessed(state.iterations() * f.B.storage().nnz());
}
BENCHMARK(BM_SpmvNz)->Arg(100000);

// COO leaf: rows come from the root crd instead of a walk over the row pos.
void BM_SpmvNzCoo(benchmark::State& state) {
  SpmvFixture f(state.range(0), fmt::coo(2));
  kern::Leaf leaf = kern::make_spmv_nz(f.a, f.B, f.c);
  for (auto _ : state) {
    f.a.zero();
    benchmark::DoNotOptimize(leaf(kern::PieceBounds{}).flops);
  }
  state.SetItemsProcessed(state.iterations() * f.B.storage().nnz());
}
BENCHMARK(BM_SpmvNzCoo)->Arg(100000);

// CSR vs COO through the whole steady-state launch path: identical
// non-zero schedule, warm LaunchPlan (the loop asserts no further plan
// misses), only the mode format differs.
void BM_SpmvSteadyState(benchmark::State& state, fmt::Format format) {
  SpmvFixture f(state.range(0), std::move(format));
  IndexVar fu("f"), fo("fo"), fi("fi");
  f.a.schedule()
      .fuse(f.i, f.j, fu)
      .divide_pos(fu, fo, fi, 8, "B")
      .distribute(fo);
  rt::Machine machine(data::paper_machine_config(8), rt::Grid(8),
                      rt::ProcKind::CPU);
  rt::Runtime runtime(machine, 1);
  auto inst =
      comp::CompiledKernel::compile(*f.stmt, machine).instantiate(runtime);
  inst->run(1);  // warm the plan memo
  const int64_t misses = runtime.report().plan_misses;
  for (auto _ : state) {
    inst->run(1);
  }
  if (runtime.report().plan_misses != misses) {
    state.SkipWithError("steady-state iteration missed the plan memo");
  }
  state.SetItemsProcessed(state.iterations() * f.B.storage().nnz());
}
BENCHMARK_CAPTURE(BM_SpmvSteadyState, csr, fmt::csr())->Arg(100000);
BENCHMARK_CAPTURE(BM_SpmvSteadyState, coo, fmt::coo(2))->Arg(100000);

// Blocked-vs-CSR rows: one block-structured matrix (fully dense 4x4 tiles,
// so the bcsr pack has padding factor ~1) packed both ways, measured through
// the leaf kernels kernel_select would pick for each format.
struct BlockedFixture {
  static constexpr Coord kN = 4096;
  static constexpr Coord kCols = 32;  // SpMM dense columns
  IndexVar i{"i"}, j{"j"}, k{"k"};
  Tensor a, B, c;     // SpMV operands
  Tensor A, Bk, C;    // SpMM operands (B re-indexed over (i, k))
  explicit BlockedFixture(fmt::Format format) {
    fmt::Coo coo = data::block_structured_matrix(kN, kN, 4, 4, 16, 11);
    a = Tensor("a", {kN}, fmt::dense_vector());
    B = Tensor("B", coo.dims, format);
    c = Tensor("c", {kN}, fmt::dense_vector());
    B.from_coo(coo);
    c.init_dense([](const auto&) { return 1.0; });
    A = Tensor("A", {kN, kCols}, fmt::dense_matrix());
    Bk = Tensor("Bk", coo.dims, std::move(format));
    C = Tensor("C", {kN, kCols}, fmt::dense_matrix());
    Bk.from_coo(std::move(coo));
    C.init_dense([](const auto&) { return 1.0; });
  }
};

void run_leaf_bench(benchmark::State& state, Tensor& out,
                    const kern::Leaf& leaf, int64_t nnz) {
  double bytes = 0;
  for (auto _ : state) {
    out.zero();
    bytes = leaf(kern::PieceBounds{}).bytes;
  }
  state.SetItemsProcessed(state.iterations() * nnz);
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}

void BM_SpmvBlockedCsr(benchmark::State& state) {
  BlockedFixture f(fmt::csr());
  run_leaf_bench(state, f.a, kern::make_spmv_row(f.a, f.B, f.c),
                 f.B.storage().nnz());
}
BENCHMARK(BM_SpmvBlockedCsr);

void BM_SpmvBlocked(benchmark::State& state) {
  BlockedFixture f(fmt::bcsr(4, 4));
  run_leaf_bench(state, f.a, kern::make_spmv_bcsr(f.a, f.B, f.c),
                 f.B.storage().nnz());
}
BENCHMARK(BM_SpmvBlocked);

void BM_SpmmBlockedCsr(benchmark::State& state) {
  BlockedFixture f(fmt::csr());
  run_leaf_bench(state, f.A, kern::make_spmm_row(f.A, f.Bk, f.C),
                 f.Bk.storage().nnz());
}
BENCHMARK(BM_SpmmBlockedCsr);

void BM_SpmmBlocked(benchmark::State& state) {
  BlockedFixture f(fmt::bcsr(4, 4));
  run_leaf_bench(state, f.A, kern::make_spmm_bcsr(f.A, f.Bk, f.C),
                 f.Bk.storage().nnz());
}
BENCHMARK(BM_SpmmBlocked);

void BM_Spadd3Fused(benchmark::State& state) {
  IndexVar i("i"), j("j");
  fmt::Coo coo = data::powerlaw_matrix(8000, 8000, state.range(0), 1.1, 8);
  Tensor A("A", coo.dims, fmt::csr());
  Tensor B("B", coo.dims, fmt::csr());
  Tensor C("C", coo.dims, fmt::csr());
  Tensor D("D", coo.dims, fmt::csr());
  B.from_coo(coo);
  C.from_coo(data::shift_last_dim(coo, 1));
  D.from_coo(data::shift_last_dim(coo, 2));
  Statement& stmt = (A(i, j) = B(i, j) + C(i, j) + D(i, j));
  kern::assemble_output(stmt);
  kern::Leaf leaf = kern::make_spadd3_row(A, B, C, D);
  for (auto _ : state) {
    A.zero();
    benchmark::DoNotOptimize(leaf(kern::PieceBounds{}).bytes);
  }
  state.SetItemsProcessed(state.iterations() * 3 * B.storage().nnz());
}
BENCHMARK(BM_Spadd3Fused)->Arg(100000);

void BM_Assembly(benchmark::State& state) {
  IndexVar i("i"), j("j");
  fmt::Coo coo = data::powerlaw_matrix(8000, 8000, state.range(0), 1.1, 9);
  for (auto _ : state) {
    Tensor A("A", coo.dims, fmt::csr());
    Tensor B("B", coo.dims, fmt::csr());
    Tensor C("C", coo.dims, fmt::csr());
    B.from_coo(coo);
    C.from_coo(data::shift_last_dim(coo, 1));
    Statement& stmt = (A(i, j) = B(i, j) + C(i, j));
    benchmark::DoNotOptimize(kern::assemble_output(stmt).output_nnz);
  }
  state.SetItemsProcessed(state.iterations() * 2 * state.range(0));
}
BENCHMARK(BM_Assembly)->Arg(50000);

// Setup layers on one power-law matrix: assembling a pattern-preserving
// (SDDMM) output copies the operand's pos/crd, while packing the same
// entries from a shuffled list sorts and groups them. Re-projecting the
// pattern instead costs more than the unsorted pack (1.2-1.5x measured).
fmt::Coo setup_matrix() {
  return data::powerlaw_matrix(20000, 20000, 200000, 1.1, 12);
}

void BM_AssemblySddmm(benchmark::State& state) {
  const fmt::Coo coo = setup_matrix();
  IndexVar i("i"), j("j"), k("k");
  Tensor A("A", coo.dims, fmt::csr());
  Tensor B("B", coo.dims, fmt::csr());
  Tensor C("C", {coo.dims[0], 4}, fmt::dense_matrix());
  Tensor D("D", {4, coo.dims[1]}, fmt::dense_matrix());
  B.from_coo(coo);
  Statement& stmt = (A(i, j) = B(i, j) * C(i, k) * D(k, j));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kern::assemble_output(stmt).output_nnz);
  }
  state.SetItemsProcessed(state.iterations() * B.storage().nnz());
}
BENCHMARK(BM_AssemblySddmm);

void BM_PackUnsorted(benchmark::State& state) {
  fmt::Coo coo = setup_matrix();
  Rng rng(13);
  for (size_t e = coo.coords.size(); e > 1; --e) {
    const size_t r = rng.next_below(e);
    std::swap(coo.coords[e - 1], coo.coords[r]);
    std::swap(coo.vals[e - 1], coo.vals[r]);
  }
  for (auto _ : state) {
    state.PauseTiming();
    fmt::Coo copy = coo;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        fmt::pack("B", fmt::csr(), coo.dims, std::move(copy)).nnz());
  }
  state.SetItemsProcessed(state.iterations() * coo.nnz());
}
BENCHMARK(BM_PackUnsorted);

// Console output stays the stock table; finished runs are additionally
// captured for the JSON trajectory file.
// With --benchmark_repetitions, each benchmark is recorded once, as its
// median aggregate under the benchmark's own name, so the JSON rows and the
// ratio gates below read the median rather than one burst.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      if (run.run_type == Run::RT_Aggregate
              ? run.aggregate_name != "median"
              : run.repetitions > 1) {
        continue;
      }
      double to_ns = 1.0;
      switch (run.time_unit) {
        case benchmark::kNanosecond: to_ns = 1.0; break;
        case benchmark::kMicrosecond: to_ns = 1e3; break;
        case benchmark::kMillisecond: to_ns = 1e6; break;
        case benchmark::kSecond: to_ns = 1e9; break;
      }
      spdbench::BenchRow row;
      row.name = run.run_name.str();
      row.ns_per_op = run.GetAdjustedRealTime() * to_ns;
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) row.items_per_s = it->second;
      it = run.counters.find("bytes_per_second");
      if (it != run.counters.end()) row.bytes_per_s = it->second;
      rows.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(reports);
  }
  std::vector<spdbench::BenchRow> rows;
};

double row_ns(const std::vector<spdbench::BenchRow>& rows,
              const std::string& name) {
  for (const auto& r : rows) {
    if (r.name == name) return r.ns_per_op;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!spdbench::write_bench_json("BENCH_kernels.json", reporter.rows)) {
    std::fprintf(stderr,
                 "micro_kernels: failed to write BENCH_kernels.json\n");
    return 1;
  }
  // Ratio contracts, checked on the recorded rows so the JSON artifact and
  // the gate can never disagree. Rows filtered out by --benchmark_filter are
  // simply not checked. `slow` must take at least `min_ratio` and at most
  // `max_ratio` times as long as `fast`.
  int rc = 0;
  auto check = [&](const char* slow, const char* fast, double min_ratio,
                   double max_ratio) {
    const double t_slow = row_ns(reporter.rows, slow);
    const double t_fast = row_ns(reporter.rows, fast);
    if (t_slow <= 0 || t_fast <= 0) return;
    const double ratio = t_slow / t_fast;
    std::printf("%s / %s: %.2fx\n", slow, fast, ratio);
    if ((ratio < min_ratio || ratio > max_ratio) &&
        std::getenv("SPDISTAL_BENCH_ASSERT") != nullptr) {
      std::fprintf(stderr, "%s / %s: expected within [%.1fx, %.1fx], got %.2fx\n",
                   slow, fast, min_ratio, max_ratio, ratio);
      rc = 1;
    }
  };
  // Register-tiled bcsr kernels: >= 1.5x over their CSR twins.
  check("BM_SpmvBlockedCsr", "BM_SpmvBlocked", 1.5, HUGE_VAL);
  check("BM_SpmmBlockedCsr", "BM_SpmmBlocked", 1.5, HUGE_VAL);
  // End-to-end overhead: a warm steady-state launch (enqueue, dependence
  // tracking, fetch accounting, retirement) costs at most 10x the direct
  // leaf on the same matrix.
  check("BM_SpmvSteadyState/csr/100000", "BM_SpmvNz/100000", 0, 10);
  // Pattern-preserving assembly copies metadata: at most half the cost of
  // packing the same matrix from a shuffled list.
  check("BM_AssemblySddmm", "BM_PackUnsorted", 0, 0.5);
  return rc;
}
