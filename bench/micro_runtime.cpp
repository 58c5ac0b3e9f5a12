// google-benchmark microbenchmarks for the runtime substrate: direct and
// dependent partitioning (the operations SpDISTAL's generated code performs
// at instance setup), packing, subset algebra, and the deferred executor's
// wall-clock scaling (point tasks of a launch retiring concurrently on the
// worker pool while simulated accounting replays serially).
#include <benchmark/benchmark.h>

#include "compiler/lower.h"
#include "data/generators.h"
#include "format/storage.h"
#include "obs/obs.h"
#include "runtime/partition.h"
#include "tensor/tensor.h"
#include "verify/verify.h"

namespace {

using namespace spdistal;
using rt::Coord;

fmt::TensorStorage make_csr(int64_t nnz) {
  fmt::Coo coo = data::powerlaw_matrix(nnz / 12, nnz / 12, nnz, 1.1, 3);
  // Copy dims before passing coo by value: argument evaluation order is
  // unspecified, so reading coo.dims in the same call is a hazard.
  const std::vector<rt::Coord> dims = coo.dims;
  return fmt::pack("B", fmt::csr(), dims, std::move(coo));
}

void BM_PackCsr(benchmark::State& state) {
  fmt::Coo coo = data::powerlaw_matrix(state.range(0) / 12,
                                       state.range(0) / 12, state.range(0),
                                       1.1, 3);
  for (auto _ : state) {
    auto st = fmt::pack("B", fmt::csr(), coo.dims, coo);
    benchmark::DoNotOptimize(st.nnz());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PackCsr)->Arg(10000)->Arg(100000);

void BM_PartitionEqual(benchmark::State& state) {
  rt::IndexSpace space(1 << 20);
  for (auto _ : state) {
    auto p = rt::partition_equal(space, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(p.num_colors());
  }
}
BENCHMARK(BM_PartitionEqual)->Arg(16)->Arg(256);

void BM_Image(benchmark::State& state) {
  fmt::TensorStorage st = make_csr(state.range(0));
  const auto& level = st.level(1);
  rt::Partition rows = rt::partition_equal(level.pos->space(), 16);
  for (auto _ : state) {
    auto p = rt::image(*level.pos, rows,
                       rt::IndexSpace(level.positions));
    benchmark::DoNotOptimize(p.num_colors());
  }
  state.SetItemsProcessed(state.iterations() * st.dims()[0]);
}
BENCHMARK(BM_Image)->Arg(10000)->Arg(100000);

void BM_Preimage(benchmark::State& state) {
  fmt::TensorStorage st = make_csr(state.range(0));
  const auto& level = st.level(1);
  rt::Partition nz = rt::partition_equal(rt::IndexSpace(level.positions), 16);
  for (auto _ : state) {
    auto p = rt::preimage(*level.pos, nz);
    benchmark::DoNotOptimize(p.num_colors());
  }
  state.SetItemsProcessed(state.iterations() * st.dims()[0]);
}
BENCHMARK(BM_Preimage)->Arg(10000)->Arg(100000);

void BM_PartitionByValueRanges(benchmark::State& state) {
  fmt::TensorStorage st = make_csr(state.range(0));
  const auto& level = st.level(1);
  std::vector<rt::Rect1> ranges;
  const Coord m = st.dims()[1];
  for (int c = 0; c < 16; ++c) {
    ranges.push_back(rt::Rect1{c * m / 16, (c + 1) * m / 16 - 1});
  }
  for (auto _ : state) {
    auto p = rt::partition_by_value_ranges(*level.crd, ranges);
    benchmark::DoNotOptimize(p.num_colors());
  }
  state.SetItemsProcessed(state.iterations() * st.nnz());
}
BENCHMARK(BM_PartitionByValueRanges)->Arg(10000)->Arg(100000);

// Guard for the O(nnz log pieces) binary-search path: many sorted-disjoint
// ranges must not reintroduce the O(nnz x pieces) per-color probe (items/s
// should be flat in the piece count, not inversely proportional).
void BM_PartitionByValueRangesManyPieces(benchmark::State& state) {
  fmt::TensorStorage st = make_csr(100000);
  const auto& level = st.level(1);
  const int pieces = static_cast<int>(state.range(0));
  std::vector<rt::Rect1> ranges;
  const Coord m = st.dims()[1];
  for (int c = 0; c < pieces; ++c) {
    ranges.push_back(rt::Rect1{c * m / pieces, (c + 1) * m / pieces - 1});
  }
  for (auto _ : state) {
    auto p = rt::partition_by_value_ranges(*level.crd, ranges);
    benchmark::DoNotOptimize(p.num_colors());
  }
  state.SetItemsProcessed(state.iterations() * st.nnz());
}
BENCHMARK(BM_PartitionByValueRangesManyPieces)->Arg(16)->Arg(256)->Arg(1024);

// Same guard for preimage's per-entry rect probe (binary search over the
// sorted-disjoint rects of each colored crd subset).
void BM_PreimageManyColors(benchmark::State& state) {
  fmt::TensorStorage st = make_csr(100000);
  const auto& level = st.level(1);
  rt::Partition nz = rt::partition_equal(rt::IndexSpace(level.positions),
                                         static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto p = rt::preimage(*level.pos, nz);
    benchmark::DoNotOptimize(p.num_colors());
  }
  state.SetItemsProcessed(state.iterations() * st.dims()[0]);
}
BENCHMARK(BM_PreimageManyColors)->Arg(16)->Arg(256);

// Wall-clock scaling of the deferred executor: an 8-piece row-distributed
// SpMM whose leaves run concurrently on `threads` execution contexts
// (state.range(0)); 1 = the serial fallback (SPDISTAL_EXEC_THREADS=1).
// The simulated SimReport is bit-identical across thread counts; only the
// host wall-clock changes. Expected: >= 2x items/s from 1 -> 4 contexts.
void BM_DeferredSpmmLaunch(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int kPieces = 8;
  constexpr Coord kCols = 32;
  IndexVar i("i"), j("j"), k("k"), io("io"), ii("ii");
  fmt::Coo coo = data::powerlaw_matrix(20000, 20000, 600000, 1.05, 3);
  const std::vector<Coord> dims = coo.dims;
  Tensor A("A", {dims[0], kCols}, fmt::dense_matrix(),
           tdn::parse_tdn("A(x, y) -> M(x)"));
  Tensor B("B", dims, fmt::csr(), tdn::parse_tdn("B(x, y) -> M(x)"));
  Tensor C("C", {dims[1], kCols}, fmt::dense_matrix(),
           tdn::parse_tdn("C(x, y) -> M(q)"));
  B.from_coo(std::move(coo));
  C.init_dense([](const auto& x) {
    return 0.5 + 0.01 * static_cast<double>((x[0] * 3 + x[1]) % 53);
  });
  Statement& stmt = (A(i, j) = B(i, k) * C(k, j));
  A.schedule().divide(i, io, ii, kPieces).distribute(io);

  rt::MachineConfig cfg;
  cfg.nodes = kPieces;
  rt::Machine m(cfg, rt::Grid(kPieces), rt::ProcKind::CPU);
  rt::Runtime runtime(m, threads);
  auto inst = comp::CompiledKernel::compile(stmt, m).instantiate(runtime);
  inst->run(1);  // warm-up: placement + first-touch communication
  for (auto _ : state) {
    inst->run(1);
  }
  state.SetItemsProcessed(state.iterations() * B.storage().nnz() * kCols);
}
BENCHMARK(BM_DeferredSpmmLaunch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Steady-state enqueue latency of a reduction-bearing launch: warm (the
// memoized LaunchPlan — enqueue walks the cached plan, zero overlap scans)
// vs cold (memo disabled — full subset capture + O(P^2) analysis per
// enqueue). Arg: 1 = warm, 0 = cold. Only the deferred run_async enqueue is
// timed; the drain happens with the clock paused (exec_threads = 1, so the
// serial pool runs nothing until flush).
void BM_ExecuteSteadyState(benchmark::State& state) {
  const bool memo = state.range(0) != 0;
  constexpr int kPieces = 16;
  IndexVar i("i"), j("j"), f("f"), fo("fo"), fi("fi");
  fmt::Coo coo = data::powerlaw_matrix(4000, 4000, 120000, 1.1, 7);
  const std::vector<Coord> dims = coo.dims;
  // Non-zero split SpMV: piece boundaries straddle rows, so the output
  // carries overlapping REDUCE subsets — the worst case for the cold
  // path's per-requirement pairwise overlap scans.
  Tensor a("a", {dims[0]}, fmt::dense_vector());
  Tensor B("B", dims, fmt::csr(),
           tdn::parse_tdn("B(x, y) fuse(x, y -> g) -> M(~g)"));
  Tensor c("c", {dims[1]}, fmt::dense_vector(),
           tdn::parse_tdn("c(x) -> M(q)"));
  B.from_coo(std::move(coo));
  c.init_dense([](const auto& x) {
    return 1.0 + 0.01 * static_cast<double>(x[0] % 17);
  });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  a.schedule().fuse(i, j, f).divide_pos(f, fo, fi, kPieces, "B")
      .distribute(fo);

  rt::MachineConfig cfg;
  cfg.nodes = kPieces;
  rt::Machine m(cfg, rt::Grid(kPieces), rt::ProcKind::CPU);
  rt::Runtime runtime(m, 1);
  runtime.set_plan_memo(memo);
  auto inst = comp::CompiledKernel::compile(stmt, m).instantiate(runtime);
  inst->run(1);  // plan build + first-touch communication
  const rt::SimReport warmup = inst->report();
  for (auto _ : state) {
    benchmark::DoNotOptimize(inst->run_async(1));
    state.PauseTiming();
    runtime.flush();
    state.ResumeTiming();
  }
  const rt::SimReport rep = inst->report();
  if (memo) {
    // Acceptance guard: every measured enqueue must have walked the cached
    // plan — a miss means an overlap scan ran on the steady-state path.
    SPD_ASSERT(rep.plan_misses == warmup.plan_misses,
               "warm BM_ExecuteSteadyState rebuilt a plan ("
                   << warmup.plan_misses << " -> " << rep.plan_misses
                   << " misses)");
  }
  state.counters["plan_hits"] = static_cast<double>(rep.plan_hits);
  state.counters["plan_hit_rate"] =
      static_cast<double>(rep.plan_hits) /
      static_cast<double>(rep.plan_hits + rep.plan_misses);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecuteSteadyState)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMicrosecond);

// Observability overhead guard: the warm enqueue path of
// BM_ExecuteSteadyState with observability forced off (Arg 0) vs on with
// live trace capture (Arg 1). The disabled mode asserts that nothing was
// recorded — the "near-zero overhead when SPDISTAL_OBS=0" contract; compare
// the two rows to read the enabled-mode cost directly.
void BM_TraceOverhead(benchmark::State& state) {
  const bool obs_on = state.range(0) != 0;
  constexpr int kPieces = 16;
  IndexVar i("i"), j("j"), f("f"), fo("fo"), fi("fi");
  fmt::Coo coo = data::powerlaw_matrix(4000, 4000, 120000, 1.1, 7);
  const std::vector<Coord> dims = coo.dims;
  Tensor a("a", {dims[0]}, fmt::dense_vector());
  Tensor B("B", dims, fmt::csr(),
           tdn::parse_tdn("B(x, y) fuse(x, y -> g) -> M(~g)"));
  Tensor c("c", {dims[1]}, fmt::dense_vector(),
           tdn::parse_tdn("c(x) -> M(q)"));
  B.from_coo(std::move(coo));
  c.init_dense([](const auto& x) {
    return 1.0 + 0.01 * static_cast<double>(x[0] % 17);
  });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  a.schedule().fuse(i, j, f).divide_pos(f, fo, fi, kPieces, "B")
      .distribute(fo);

  rt::MachineConfig cfg;
  cfg.nodes = kPieces;
  rt::Machine m(cfg, rt::Grid(kPieces), rt::ProcKind::CPU);
  rt::Runtime runtime(m, 1);
  obs::set_enabled(obs_on);
  obs::TraceRecorder::global().start();  // clears any prior capture
  if (!obs_on) obs::TraceRecorder::global().stop();
  auto inst = comp::CompiledKernel::compile(stmt, m).instantiate(runtime);
  inst->run(1);  // plan build + first-touch communication
  const size_t events_before = obs::TraceRecorder::global().events();
  for (auto _ : state) {
    benchmark::DoNotOptimize(inst->run_async(1));
    state.PauseTiming();
    runtime.flush();
    state.ResumeTiming();
  }
  const size_t events = obs::TraceRecorder::global().events();
  if (obs_on) {
    SPD_ASSERT(events > events_before,
               "BM_TraceOverhead(on) recorded no trace events");
    obs::TraceRecorder::global().stop();
  } else {
    // Disabled-mode contract: no events recorded at all.
    SPD_ASSERT(events == 0 && events_before == 0,
               "BM_TraceOverhead(off) recorded " << events
                                                 << " trace events");
  }
  obs::set_enabled(false);
  state.counters["trace_events"] = static_cast<double>(events);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// Verify-mode cost, and the zero-overhead contract when off: with the
// verifiers disabled the accessor fast path pays one relaxed load and the
// checkers record nothing; with them armed every warm launch re-runs the
// O(P^2) race audit and every point task logs its touched bounds.
void BM_VerifyOverhead(benchmark::State& state) {
  const bool verify_on = state.range(0) != 0;
  constexpr int kPieces = 16;
  IndexVar i("i"), j("j"), io("io"), ii("ii");
  fmt::Coo coo = data::powerlaw_matrix(4000, 4000, 120000, 1.1, 9);
  const std::vector<Coord> dims = coo.dims;
  Tensor a("a", {dims[0]}, fmt::dense_vector());
  Tensor B("B", dims, fmt::csr(), tdn::parse_tdn("B(x, y) -> M(x)"));
  Tensor c("c", {dims[1]}, fmt::dense_vector(),
           tdn::parse_tdn("c(x) -> M(q)"));
  B.from_coo(std::move(coo));
  c.init_dense([](const auto& x) {
    return 1.0 + 0.01 * static_cast<double>(x[0] % 17);
  });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  a.schedule().divide(i, io, ii, kPieces).distribute(io);

  rt::MachineConfig cfg;
  cfg.nodes = kPieces;
  rt::Machine m(cfg, rt::Grid(kPieces), rt::ProcKind::CPU);
  rt::Runtime runtime(m, 1);
  const bool verify_prev = verify::enabled();
  verify::set_enabled(verify_on);
  runtime.set_verify(verify_on);
  auto inst = comp::CompiledKernel::compile(stmt, m).instantiate(runtime);
  inst->run(1);  // plan build + first-touch communication
  const verify::Stats before = verify::stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(inst->run_async(1));
    state.PauseTiming();
    runtime.flush();
    state.ResumeTiming();
  }
  const verify::Stats after = verify::stats();
  if (verify_on) {
    SPD_ASSERT(after.plans_checked > before.plans_checked &&
                   after.tasks_checked > before.tasks_checked,
               "BM_VerifyOverhead(on) audited nothing");
    SPD_ASSERT(after.violations == before.violations,
               "BM_VerifyOverhead(on) flagged a clean kernel");
  } else {
    // Disabled-mode contract: the checkers never run.
    SPD_ASSERT(after.plans_checked == before.plans_checked &&
                   after.tasks_checked == before.tasks_checked,
               "BM_VerifyOverhead(off) ran "
                   << (after.plans_checked - before.plans_checked)
                   << " plan audits");
  }
  verify::set_enabled(verify_prev);
  state.counters["plans_checked"] =
      static_cast<double>(after.plans_checked - before.plans_checked);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VerifyOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// Profile-guided calibration cost, and the off-mode contract: with
// calibration enabled (SPDISTAL_CALIB) every leaf body is wall-clock timed
// and feeds the EWMA rate store; with it disabled record() never runs and
// the leaf path pays exactly one relaxed load to find that out.
void BM_CalibOverhead(benchmark::State& state) {
  const bool calib_on = state.range(0) != 0;
  constexpr int kPieces = 16;
  IndexVar i("i"), j("j"), io("io"), ii("ii");
  fmt::Coo coo = data::powerlaw_matrix(4000, 4000, 120000, 1.1, 11);
  const std::vector<Coord> dims = coo.dims;
  Tensor a("a", {dims[0]}, fmt::dense_vector());
  Tensor B("B", dims, fmt::csr(), tdn::parse_tdn("B(x, y) -> M(x)"));
  Tensor c("c", {dims[1]}, fmt::dense_vector(),
           tdn::parse_tdn("c(x) -> M(q)"));
  B.from_coo(std::move(coo));
  c.init_dense([](const auto& x) {
    return 1.0 + 0.01 * static_cast<double>(x[0] % 17);
  });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  a.schedule().divide(i, io, ii, kPieces).distribute(io);

  rt::MachineConfig cfg;
  cfg.nodes = kPieces;
  rt::Machine m(cfg, rt::Grid(kPieces), rt::ProcKind::CPU);
  rt::Runtime runtime(m, 1);
  const bool calib_prev = obs::calibration_enabled();
  obs::set_calibration(calib_on);
  obs::Calibration::global().clear();
  auto inst = comp::CompiledKernel::compile(stmt, m).instantiate(runtime);
  inst->run(1);  // plan build + first-touch communication
  const uint64_t samples_before = obs::Calibration::global().total_samples();
  for (auto _ : state) {
    benchmark::DoNotOptimize(inst->run_async(1));
    state.PauseTiming();
    runtime.flush();
    state.ResumeTiming();
  }
  const uint64_t samples = obs::Calibration::global().total_samples();
  if (calib_on) {
    SPD_ASSERT(samples > samples_before,
               "BM_CalibOverhead(on) learned no leaf rates");
  } else {
    // Disabled-mode contract: the store never sees a sample.
    SPD_ASSERT(samples == 0 && samples_before == 0,
               "BM_CalibOverhead(off) recorded " << samples << " samples");
  }
  obs::Calibration::global().clear();
  obs::set_calibration(calib_prev);
  state.counters["calib_samples"] =
      static_cast<double>(samples - samples_before);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CalibOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_SubsetSubtract(benchmark::State& state) {
  rt::IndexSubset a(1), b(1);
  for (Coord k = 0; k < state.range(0); ++k) {
    a.add(rt::RectN::make1(k * 10, k * 10 + 6));
    b.add(rt::RectN::make1(k * 10 + 3, k * 10 + 8));
  }
  a.normalize();
  b.normalize();
  for (auto _ : state) {
    auto d = a.subtract(b);
    benchmark::DoNotOptimize(d.volume());
  }
}
BENCHMARK(BM_SubsetSubtract)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
