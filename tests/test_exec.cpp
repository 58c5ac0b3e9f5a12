// Tests for the deferred task-graph executor: worker pool + task graph
// mechanics, dependence analysis rules, determinism of the parallel
// execution (bit-identical outputs and SimReports for any worker count),
// and a randomized dependence stress test (run under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/rng.h"
#include "compiler/lower.h"
#include "data/generators.h"
#include "exec/dep_graph.h"
#include "exec/executor.h"
#include "tensor/dense_ref.h"
#include "tensor/tensor.h"

namespace spdistal {
namespace {

using comp::CompiledKernel;
using rt::Coord;

rt::Machine cpu_machine(int nodes, rt::Grid grid) {
  rt::MachineConfig cfg;
  cfg.nodes = nodes;
  return rt::Machine(cfg, grid, rt::ProcKind::CPU);
}

// --- executor mechanics -------------------------------------------------------

TEST(Executor, IndependentTasksAllRetire) {
  exec::Executor ex(exec::WorkerPool::create(4));
  std::atomic<int> done{0};
  std::vector<exec::TaskId> ids;
  for (int k = 0; k < 64; ++k) {
    ids.push_back(ex.submit("t", [&done] { ++done; }));
  }
  ex.flush();
  EXPECT_EQ(done.load(), 64);
  for (exec::TaskId id : ids) EXPECT_TRUE(ex.done(id));
  EXPECT_EQ(ex.stats().retired, 64u);
}

TEST(Executor, DependenceChainRunsInOrder) {
  exec::Executor ex(exec::WorkerPool::create(4));
  std::vector<int> order;
  exec::TaskId prev = 0;
  for (int k = 0; k < 16; ++k) {
    prev = ex.submit("chain", [&order, k] { order.push_back(k); },
                     prev == 0 ? std::vector<exec::TaskId>{}
                               : std::vector<exec::TaskId>{prev});
  }
  ex.wait(prev);
  ASSERT_EQ(order.size(), 16u);
  for (int k = 0; k < 16; ++k) EXPECT_EQ(order[static_cast<size_t>(k)], k);
}

TEST(Executor, SerialPoolRunsEverythingOnWaiter) {
  // One context => no worker threads: tasks run inside flush() on the
  // calling thread, in dependence order.
  exec::Executor ex(exec::WorkerPool::create(1));
  const auto submitter = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on;
  ex.submit("serial", [&] { ran_on.push_back(std::this_thread::get_id()); });
  ex.flush();
  ASSERT_EQ(ran_on.size(), 1u);
  EXPECT_EQ(ran_on[0], submitter);
}

TEST(Executor, DeferredErrorSurfacesAtFlush) {
  exec::Executor ex(exec::WorkerPool::create(2));
  ex.submit("boom", [] { throw OutOfMemoryError("simulated"); });
  EXPECT_THROW(ex.flush(), OutOfMemoryError);
  // The error is consumed; the executor stays usable.
  std::atomic<int> done{0};
  ex.submit("ok", [&done] { ++done; });
  ex.flush();
  EXPECT_EQ(done.load(), 1);
}

TEST(Executor, NestedWaitHelpsInsteadOfDeadlocking) {
  // A task that itself submits work and waits for it must make progress on
  // a single-context pool (the waiting task helps execute).
  auto pool = exec::WorkerPool::create(1);
  exec::Executor ex(pool);
  std::atomic<int> inner_done{0};
  ex.submit("outer", [&] {
    exec::Executor nested(pool);
    nested.submit("inner", [&inner_done] { ++inner_done; });
    nested.flush();
  });
  ex.flush();
  EXPECT_EQ(inner_done.load(), 1);
}

// --- dependence rules ---------------------------------------------------------

TEST(DepTracker, PrivilegeConflictMatrix) {
  using exec::AccessMode;
  // Read/Read and privatized Reduce/Reduce commute; everything else
  // serializes.
  EXPECT_FALSE(exec::modes_conflict(AccessMode::Read, false,
                                    AccessMode::Read, false));
  EXPECT_TRUE(exec::modes_conflict(AccessMode::Read, false,
                                   AccessMode::Write, false));
  EXPECT_TRUE(exec::modes_conflict(AccessMode::Write, false,
                                   AccessMode::Write, false));
  EXPECT_TRUE(exec::modes_conflict(AccessMode::Write, false,
                                   AccessMode::Reduce, false));
  EXPECT_FALSE(exec::modes_conflict(AccessMode::Reduce, true,
                                    AccessMode::Reduce, true));
  // A privatized epoch and a direct-write reduction racing on the same
  // elements would be order-dependent: they serialize.
  EXPECT_TRUE(exec::modes_conflict(AccessMode::Reduce, true,
                                   AccessMode::Reduce, false));
  EXPECT_TRUE(exec::modes_conflict(AccessMode::Reduce, false,
                                   AccessMode::Reduce, false));
}

TEST(DepTracker, EdgesFollowOverlapAndPrivilege) {
  exec::Executor ex(exec::WorkerPool::create(1));
  exec::DepTracker tracker(ex);
  auto acc = [](uint32_t region, Coord lo, Coord hi, exec::AccessMode m) {
    return std::vector<exec::RegionAccess>{
        {region, rt::IndexSubset(rt::RectN::make1(lo, hi)), m, false}};
  };
  const exec::TaskId w = ex.submit("w", nullptr);
  tracker.record(w, acc(7, 0, 99, exec::AccessMode::Write));

  // Overlapping read after write: one edge. Disjoint region: none.
  EXPECT_EQ(tracker.deps_for(acc(7, 50, 60, exec::AccessMode::Read)),
            std::vector<exec::TaskId>{w});
  EXPECT_TRUE(tracker.deps_for(acc(8, 50, 60, exec::AccessMode::Read)).empty());

  const exec::TaskId r1 = ex.submit("r1", nullptr);
  tracker.record(r1, acc(7, 0, 49, exec::AccessMode::Read));
  // Read/read commute: a second reader only waits on the writer.
  EXPECT_EQ(tracker.deps_for(acc(7, 0, 99, exec::AccessMode::Read)),
            std::vector<exec::TaskId>{w});
  // A later write waits on both the writer and the reader.
  const auto deps = tracker.deps_for(acc(7, 0, 99, exec::AccessMode::Write));
  EXPECT_EQ(deps.size(), 2u);
}

TEST(DepTracker, FullCoverWriteCompactsHistory) {
  exec::Executor ex(exec::WorkerPool::create(1));
  exec::DepTracker tracker(ex);
  rt::IndexSubset full(rt::RectN::make1(0, 99));
  for (int k = 0; k < 20; ++k) {
    tracker.record(ex.submit("r", nullptr),
                   {{3, rt::IndexSubset(rt::RectN::make1(k, k + 4)),
                     exec::AccessMode::Read, false}});
  }
  EXPECT_EQ(tracker.history_size(), 20u);
  tracker.record(ex.submit("w", nullptr),
                 {{3, full, exec::AccessMode::Write, false}});
  // The dominating write supersedes every reader it covers.
  EXPECT_EQ(tracker.history_size(), 1u);
  ex.flush();
}

// More than kMaxHistory (128) overlapping reads with no intervening write
// collapse the history behind one no-op "dep-sync" task whose subset is the
// union of every collapsed entry.
TEST(DepTracker, OversizedHistoryCollapsesBehindSync) {
  exec::Executor ex(exec::WorkerPool::create(1));
  exec::DepTracker tracker(ex);
  Rng rng(5);
  const Coord universe = 3000;
  std::vector<bool> read(universe, false);
  exec::TaskId last_read = 0;
  for (int k = 0; k < 129; ++k) {
    rt::IndexSubset s(1);
    for (int piece = 0; piece < 3; ++piece) {
      const Coord lo = rng.next_range(0, universe - 40);
      const Coord hi = lo + rng.next_range(0, 30);
      s.add(rt::RectN::make1(lo, hi));
      for (Coord p = lo; p <= hi; ++p) read[static_cast<size_t>(p)] = true;
    }
    s.normalize();
    last_read = ex.submit("r", nullptr);
    tracker.record(last_read, {{3, s, exec::AccessMode::Read, false}});
    EXPECT_EQ(tracker.history_size(), k < 128 ? static_cast<size_t>(k + 1)
                                              : size_t{1});
  }
  // The collapse submitted the sync task right after the last read.
  const exec::TaskId sync = last_read + 1;

  // The sync entry's subset is exactly the union of all reads: a point read
  // conflicts with it iff some read touched that point.
  for (Coord p = 0; p < universe; ++p) {
    const auto deps = tracker.deps_for(
        {{3, rt::IndexSubset(rt::RectN::make1(p, p)), exec::AccessMode::Read,
          false}});
    ASSERT_EQ(deps.empty(), !read[static_cast<size_t>(p)]) << "point " << p;
    if (!deps.empty()) {
      ASSERT_EQ(deps, std::vector<exec::TaskId>{sync});
    }
  }

  const exec::TaskId w = ex.submit("w", nullptr);
  EXPECT_EQ(w, sync + 1);
  const std::vector<exec::RegionAccess> write = {
      {3, rt::IndexSubset(rt::RectN::make1(0, universe - 1)),
       exec::AccessMode::Write, false}};
  EXPECT_EQ(tracker.deps_for(write), std::vector<exec::TaskId>{sync});
  tracker.record(w, write);
  EXPECT_EQ(tracker.history_size(), 1u);
  ex.flush();
}

// A read-after-write conflict *between two requirements* of one launch on
// the same region must serialize in color order, even though the reading
// access itself is RO (regression: the pairwise analysis once skipped Read
// accesses of the later point entirely).
TEST(DepTracker, CrossRequirementReadAfterWriteIsOrdered) {
  const rt::Machine m = cpu_machine(2, rt::Grid(2));
  rt::Runtime rt(m, 4);
  auto reg = rt.create_region<double>(rt::IndexSpace(8), "raw");
  reg->fill(0.0);
  // req0 (RO): point 1 reads element 0. req1 (WO): point 0 writes element
  // 0, point 1 writes element 1 — point 1 must wait for point 0.
  std::vector<rt::IndexSubset> ro_subs(2, rt::IndexSubset(1));
  ro_subs[1].add(rt::RectN::make1(0, 0));
  ro_subs[1].normalize();
  std::vector<rt::IndexSubset> wo_subs(2, rt::IndexSubset(1));
  wo_subs[0].add(rt::RectN::make1(0, 0));
  wo_subs[0].normalize();
  wo_subs[1].add(rt::RectN::make1(1, 1));
  wo_subs[1].normalize();
  rt::Partition ro(reg->space(), std::move(ro_subs));
  rt::Partition wo(reg->space(), std::move(wo_subs));
  rt::IndexLaunch launch;
  launch.name = "raw";
  launch.domain = 2;
  launch.reqs = {rt::RegionReq{reg, &ro, rt::Privilege::RO},
                 rt::RegionReq{reg, &wo, rt::Privilege::WO}};
  launch.body = [reg](const rt::TaskContext& ctx) {
    if (ctx.color() == 0) {
      // Give an unordered point 1 every chance to read stale data first.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      (*reg)[0] = 42.0;
    } else {
      (*reg)[1] = (*reg)[0];
    }
    return rt::WorkEstimate{1, 8};
  };
  rt.execute(launch);
  rt.flush();
  EXPECT_DOUBLE_EQ((*reg)[1], 42.0);
}

// --- determinism: parallel == serial, bit for bit -----------------------------

uint64_t bits(double x) { return std::bit_cast<uint64_t>(x); }

void expect_report_identical(const rt::SimReport& a, const rt::SimReport& b,
                             const std::string& what) {
  EXPECT_EQ(bits(a.sim_time), bits(b.sim_time)) << what;
  EXPECT_EQ(bits(a.inter_node_bytes), bits(b.inter_node_bytes)) << what;
  EXPECT_EQ(bits(a.intra_node_bytes), bits(b.intra_node_bytes)) << what;
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.tasks, b.tasks) << what;
  EXPECT_EQ(bits(a.imbalance), bits(b.imbalance)) << what;
  EXPECT_EQ(bits(a.peak_sysmem), bits(b.peak_sysmem)) << what;
  EXPECT_EQ(bits(a.peak_fbmem), bits(b.peak_fbmem)) << what;
}

struct ProgramRun {
  std::vector<double> out_vals;
  rt::SimReport report;
};

// Builds the program fresh, runs `iters` iterations on a machine with the
// given executor contexts, and returns output values + report.
template <typename Builder>
ProgramRun run_program(const Builder& build, const rt::Machine& m,
                       int threads, int iters) {
  auto [out, stmt] = build();
  rt::Runtime runtime(m, threads);
  auto inst = CompiledKernel::compile(*stmt, m).instantiate(runtime);
  inst->run(iters);
  ProgramRun r;
  r.out_vals = out.storage().vals()->data();
  r.report = inst->report();
  // Sanity: the parallel path must still match the dense oracle.
  EXPECT_LE(ref::max_abs_diff(out, ref::eval(*stmt)), 1e-10);
  return r;
}

template <typename Builder>
void expect_bit_identical(const Builder& build, const rt::Machine& m,
                          const std::string& what, int iters = 2) {
  const ProgramRun serial = run_program(build, m, 1, iters);
  const ProgramRun parallel = run_program(build, m, 4, iters);
  ASSERT_EQ(serial.out_vals.size(), parallel.out_vals.size()) << what;
  EXPECT_EQ(std::memcmp(serial.out_vals.data(), parallel.out_vals.data(),
                        serial.out_vals.size() * sizeof(double)),
            0)
      << what << ": output values differ between 1 and 4 contexts";
  expect_report_identical(serial.report, parallel.report, what);
}

// SpMV over a non-zero split: piece boundaries straddle rows, so the output
// merges under reduction privileges (privatized scratch + color-order fold).
TEST(ExecDeterminism, SpmvNzReductionBitIdentical) {
  auto build = [] {
    IndexVar i("i"), j("j"), f("f"), fo("fo"), fi("fi");
    Tensor a("a", {96}, fmt::dense_vector());
    Tensor B("B", {96, 96}, fmt::csr(),
             tdn::parse_tdn("B(x, y) fuse(x, y -> g) -> M(~g)"));
    Tensor c("c", {96}, fmt::dense_vector(), tdn::parse_tdn("c(x) -> M(q)"));
    B.from_coo(data::powerlaw_matrix(96, 96, 700, 1.2, 11));
    c.init_dense([](const auto& x) {
      return 1.0 + 0.01 * static_cast<double>(x[0] % 13);
    });
    Statement* stmt = &(a(i) = B(i, j) * c(j));
    a.schedule().fuse(i, j, f).divide_pos(f, fo, fi, 4, "B").distribute(fo);
    return std::make_pair(a, stmt);
  };
  expect_bit_identical(build, cpu_machine(4, rt::Grid(4)), "spmv_nz");
}

// 2-D SpMM distributing (i, k): the k axis does not index the output, so
// row tiles of A fold across the reduction axis every iteration.
TEST(ExecDeterminism, Spmm2dRowAxisFoldBitIdentical) {
  auto build = [] {
    IndexVar i("i"), j("j"), k("k"), io("io"), ii("ii"), ko("ko"), ki("ki");
    Tensor A("A", {64, 24}, fmt::dense_matrix());
    Tensor B("B", {64, 64}, fmt::csr());
    Tensor C("C", {64, 24}, fmt::dense_matrix());
    B.from_coo(data::powerlaw_matrix(64, 64, 500, 1.3, 17));
    C.init_dense([](const auto& x) {
      return 0.25 + 0.01 * static_cast<double>((x[0] * 3 + x[1]) % 29);
    });
    Statement* stmt = &(A(i, j) = B(i, k) * C(k, j));
    A.schedule()
        .divide(i, io, ii, 2)
        .divide(k, ko, ki, 2)
        .distribute(io)
        .distribute(ko);
    return std::make_pair(A, stmt);
  };
  expect_bit_identical(build, cpu_machine(4, rt::Grid(2, 2)),
                       "spmm 2-D (i, k) grid");
}

// 2-D SpMV distributing the reduction variable j: coiter leaf + overlapping
// output pieces merged by reduction.
TEST(ExecDeterminism, Spmv2dReductionAxisBitIdentical) {
  auto build = [] {
    IndexVar i("i"), j("j"), io("io"), ii("ii"), jo("jo"), ji("ji");
    Tensor a("a", {72}, fmt::dense_vector());
    Tensor B("B", {72, 72}, fmt::csr());
    Tensor c("c", {72}, fmt::dense_vector());
    B.from_coo(data::powerlaw_matrix(72, 72, 500, 1.2, 24));
    c.init_dense([](const auto& x) {
      return 1.0 + 0.5 * static_cast<double>(x[0] % 3);
    });
    Statement* stmt = &(a(i) = B(i, j) * c(j));
    a.schedule()
        .divide(i, io, ii, 2)
        .divide(j, jo, ji, 2)
        .distribute(io)
        .distribute(jo);
    return std::make_pair(a, stmt);
  };
  expect_bit_identical(build, cpu_machine(4, rt::Grid(2, 2)),
                       "spmv 2-D reduction axis");
}

// SpTTV over a fully fused non-zero split: sparse output with overlapping
// row partitions (reduction on assembled CSR vals).
TEST(ExecDeterminism, SpttvNzReductionBitIdentical) {
  auto build = [] {
    IndexVar i("i"), j("j"), k("k"), f("f"), g("g"), fo("fo"), fi("fi");
    Tensor A("A", {24, 20}, fmt::csr());
    Tensor B("B", {24, 20, 16}, fmt::csf3(),
             tdn::parse_tdn(
                 "B(x, y, z) fuse(x, y -> g) fuse(g, z -> h) -> M(~h)"));
    Tensor c("c", {16}, fmt::dense_vector(), tdn::parse_tdn("c(x) -> M(q)"));
    B.from_coo(data::powerlaw_3tensor(24, 20, 16, 600, 1.1, 5));
    c.init_dense([](const auto& x) {
      return 1.0 + 0.01 * static_cast<double>(x[0] % 7);
    });
    Statement* stmt = &(A(i, j) = B(i, j, k) * c(k));
    A.schedule()
        .fuse(i, j, f)
        .fuse(f, k, g)
        .divide_pos(g, fo, fi, 4, "B")
        .distribute(fo);
    return std::make_pair(A, stmt);
  };
  expect_bit_identical(build, cpu_machine(4, rt::Grid(4)), "spttv_nz");
}

// --- randomized dependence stress (run under TSan in CI) ----------------------

struct StressResult {
  std::vector<std::vector<double>> regions;
  rt::SimReport report;
};

StressResult run_stress(int threads) {
  const rt::Machine m = cpu_machine(2, rt::Grid(2));
  rt::Runtime rt(m, threads);
  constexpr int kRegions = 4;
  constexpr Coord kSize = 160;
  std::vector<rt::RegionRef<double>> regions;
  for (int k = 0; k < kRegions; ++k) {
    regions.push_back(rt.create_region<double>(
        rt::IndexSpace(kSize), "stress" + std::to_string(k)));
    regions.back()->fill(0.0);
  }
  // Partitions referenced by in-flight launches must survive submission
  // only (subsets are captured), but keep them alive for clarity.
  std::vector<std::unique_ptr<rt::Partition>> parts;

  Rng rng(0xD15EA5E);
  for (int launch_no = 0; launch_no < 100; ++launch_no) {
    rt::IndexLaunch launch;
    launch.name = "stress" + std::to_string(launch_no);
    launch.domain = 1 + static_cast<int>(rng.next_below(4));
    const int nreqs = 1 + static_cast<int>(rng.next_below(2));
    std::vector<rt::Privilege> privs;
    for (int r = 0; r < nreqs; ++r) {
      auto& region = regions[rng.next_below(kRegions)];
      const rt::Privilege priv = static_cast<rt::Privilege>(rng.next_below(4));
      // Random, possibly overlapping, possibly empty per-color intervals.
      std::vector<rt::IndexSubset> subs;
      for (int c = 0; c < launch.domain; ++c) {
        rt::IndexSubset s(1);
        const int rects = static_cast<int>(rng.next_below(3));
        for (int x = 0; x < rects; ++x) {
          const Coord lo = static_cast<Coord>(rng.next_below(kSize));
          const Coord hi =
              std::min<Coord>(kSize - 1,
                              lo + static_cast<Coord>(rng.next_below(40)));
          s.add(rt::RectN::make1(lo, hi));
        }
        s.normalize();
        subs.push_back(std::move(s));
      }
      parts.push_back(std::make_unique<rt::Partition>(region->space(),
                                                      std::move(subs)));
      launch.reqs.push_back(
          rt::RegionReq{region, parts.back().get(), priv});
      privs.push_back(priv);
    }
    const uint64_t salt = rng.next_u64() % 1000;
    // The body captures its region handles by value and touches each
    // requirement's subset with privilege-appropriate operations.
    std::vector<rt::RegionRef<double>> regs;
    for (const auto& req : launch.reqs) {
      regs.push_back(std::static_pointer_cast<rt::Region<double>>(req.region));
    }
    launch.body = [privs, salt, regs](const rt::TaskContext& ctx) {
      for (size_t r = 0; r < privs.size(); ++r) {
        const rt::IndexSubset s = ctx.subset(r);
        rt::Region<double>& region = *regs[r];
        for (const auto& rect : s.rects()) {
          for (Coord i = rect.lo[0]; i <= rect.hi[0]; ++i) {
            const double v =
                static_cast<double>((salt + static_cast<uint64_t>(i)) % 17) +
                0.5 * ctx.color();
            switch (privs[r]) {
              case rt::Privilege::RO: {
                volatile double sink = region[i];
                (void)sink;
                break;
              }
              case rt::Privilege::WO:
                region[i] = v;
                break;
              case rt::Privilege::RW:
                region[i] = region[i] * 0.5 + v;
                break;
              case rt::Privilege::REDUCE:
                region[i] += v;
                break;
            }
          }
        }
      }
      return rt::WorkEstimate{100, 800};
    };
    rt.execute(launch);
  }
  rt.flush();
  StressResult res;
  for (const auto& r : regions) res.regions.push_back(r->data());
  res.report = rt.report();
  return res;
}

TEST(ExecStress, RandomLaunchSequenceBitIdenticalAcrossThreadCounts) {
  const StressResult serial = run_stress(1);
  const StressResult parallel = run_stress(4);
  ASSERT_EQ(serial.regions.size(), parallel.regions.size());
  for (size_t k = 0; k < serial.regions.size(); ++k) {
    ASSERT_EQ(serial.regions[k].size(), parallel.regions[k].size());
    EXPECT_EQ(std::memcmp(serial.regions[k].data(),
                          parallel.regions[k].data(),
                          serial.regions[k].size() * sizeof(double)),
              0)
        << "region " << k << " diverged";
  }
  expect_report_identical(serial.report, parallel.report, "stress");
}

// Back-to-back launches with disjoint requirements share the pool without
// interfering; futures resolve independently.
TEST(ExecPipeline, DisjointLaunchesOverlapAndResolve) {
  const rt::Machine m = cpu_machine(2, rt::Grid(2));
  rt::Runtime rt(m, 4);
  auto ra = rt.create_region<double>(rt::IndexSpace(100), "pa");
  auto rb = rt.create_region<double>(rt::IndexSpace(100), "pb");
  rt::Partition pa = rt::partition_equal(ra->space(), 2);
  rt::Partition pb = rt::partition_equal(rb->space(), 2);
  auto make = [&](rt::RegionRef<double> reg, rt::Partition* part,
                  double value) {
    rt::IndexLaunch launch;
    launch.name = "disjoint";
    launch.domain = 2;
    launch.reqs = {rt::RegionReq{reg, part, rt::Privilege::WO}};
    launch.body = [reg, value](const rt::TaskContext& ctx) {
      const rt::IndexSubset s = ctx.subset(0);
      for (const auto& rect : s.rects()) {
        for (Coord i = rect.lo[0]; i <= rect.hi[0]; ++i) (*reg)[i] = value;
      }
      return rt::WorkEstimate{10, 80};
    };
    return launch;
  };
  const rt::IndexLaunch la = make(ra, &pa, 1.0);
  const rt::IndexLaunch lb = make(rb, &pb, 2.0);
  exec::Future fa = rt.execute(la);
  exec::Future fb = rt.execute(lb);
  fb.wait();
  fa.wait();
  EXPECT_DOUBLE_EQ((*ra)[0], 1.0);
  EXPECT_DOUBLE_EQ((*rb)[99], 2.0);
  // No cross edges between the disjoint launches beyond the retire chain:
  // both ran; the report accounts both.
  EXPECT_EQ(rt.report().tasks, 4);
}

}  // namespace
}  // namespace spdistal
