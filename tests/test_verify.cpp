// Fault-injection tests for src/verify/: the schedule linter, the privilege
// checker, and the dependence-race auditor must each catch a deliberately
// seeded violation with an actionable message — and stay silent (and cheap)
// on correct programs.
#include <gtest/gtest.h>

#include "compiler/lower.h"
#include "data/generators.h"
#include "runtime/region.h"
#include "runtime/runtime.h"
#include "verify/lint.h"
#include "verify/verify.h"

namespace spdistal {
namespace {

using rt::Coord;
using rt::IndexLaunch;
using rt::IndexSpace;
using rt::Machine;
using rt::Partition;
using rt::Privilege;
using rt::RectN;
using rt::RegionReq;
using rt::Runtime;
using rt::TaskContext;
using rt::WorkEstimate;

Machine cpu_machine(int nodes) {
  rt::MachineConfig cfg;
  cfg.nodes = nodes;
  return Machine(cfg, rt::Grid(nodes), rt::ProcKind::CPU);
}

// Arms the verifiers for one test and restores the previous global state on
// exit (other suites in the process may run with them off).
struct VerifyGuard {
  bool prev;
  VerifyGuard() : prev(verify::enabled()) { verify::set_enabled(true); }
  ~VerifyGuard() { verify::set_enabled(prev); }
};

// The Figure 1 SpMV program, used as the clean baseline and as the carrier
// for seeded schedule defects.
struct SpmvProgram {
  IndexVar i{"i"}, j{"j"}, io{"io"}, ii{"ii"};
  Tensor a, B, c;
  Statement* stmt;

  explicit SpmvProgram(int pieces) {
    fmt::Coo coo = data::uniform_matrix(64, 64, 400, 7);
    const Coord n = coo.dims[0];
    const Coord m = coo.dims[1];
    a = Tensor("a", {n}, fmt::dense_vector(), tdn::parse_tdn("a(x) -> M(x)"));
    B = Tensor("B", {n, m}, fmt::csr(), tdn::parse_tdn("B(x, y) -> M(x)"));
    c = Tensor("c", {m}, fmt::dense_vector(), tdn::parse_tdn("c(x) -> M(y)"));
    B.from_coo(std::move(coo));
    c.init_dense([](const auto&) { return 1.0; });
    stmt = &(a(i) = B(i, j) * c(j));
    a.schedule().divide(i, io, ii, pieces).distribute(io);
  }
};

// --- schedule linter ---------------------------------------------------------

TEST(VerifyLint, RejectsParallelizeOfDistributedVariable) {
  VerifyGuard guard;
  SpmvProgram prog(2);
  // Seeded defect: intra-leaf parallelism over the distributed axis.
  prog.a.schedule().parallelize(prog.io, sched::ParallelUnit::CPUThread);
  try {
    comp::CompiledKernel::compile(*prog.stmt, cpu_machine(2));
    FAIL() << "lint accepted parallelize() of a distributed variable";
  } catch (const ScheduleError& e) {
    EXPECT_NE(std::string(e.what()).find("verify(lint)"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("distributed variable"),
              std::string::npos)
        << e.what();
  }
}

TEST(VerifyLint, RejectsCommunicateOfUnboundTensor) {
  VerifyGuard guard;
  SpmvProgram prog(2);
  prog.a.schedule().communicate({"no_such_tensor"}, prog.io);
  try {
    comp::CompiledKernel::compile(*prog.stmt, cpu_machine(2));
    FAIL() << "lint accepted communicate() of an unbound tensor";
  } catch (const ScheduleError& e) {
    EXPECT_NE(std::string(e.what()).find("no_such_tensor"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("does not bind"), std::string::npos)
        << e.what();
  }
}

TEST(VerifyLint, RejectsDividePosOfUnreferencedTensor) {
  VerifyGuard guard;
  SpmvProgram prog(2);
  IndexVar f{"f"}, fo{"fo"}, fi{"fi"};
  sched::Schedule s;
  s.fuse(prog.i, prog.j, f).divide_pos(f, fo, fi, 2, "Q").distribute(fo);
  try {
    comp::CompiledKernel::compile(*prog.stmt, s, cpu_machine(2));
    FAIL() << "lint accepted divide_pos() of an unreferenced tensor";
  } catch (const ScheduleError& e) {
    EXPECT_NE(std::string(e.what()).find("divide_pos targets tensor `Q`"),
              std::string::npos)
        << e.what();
  }
}

TEST(VerifyLint, RejectsDividePosThroughBlockedLevel) {
  VerifyGuard guard;
  fmt::Coo coo = data::uniform_matrix(32, 32, 200, 11);
  IndexVar i{"i"}, j{"j"}, f{"f"}, fo{"fo"}, fi{"fi"};
  Tensor a("a", {32}, fmt::dense_vector(), tdn::parse_tdn("a(x) -> M(x)"));
  Tensor B("B", {32, 32}, fmt::bcsr(4, 4), tdn::parse_tdn("B(x, y) -> M(x)"));
  Tensor c("c", {32}, fmt::dense_vector(), tdn::parse_tdn("c(x) -> M(y)"));
  B.from_coo(std::move(coo));
  c.init_dense([](const auto&) { return 1.0; });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  sched::Schedule s;
  s.fuse(i, j, f).divide_pos(f, fo, fi, 2, "B").distribute(fo);
  const Machine m = cpu_machine(2);
  std::vector<verify::Violation> found = verify::lint_statement(stmt, s, m);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].rule, "divide-pos-blocked");
  // The linter, not the lowering, rejects it: the message carries its tag
  // and names the rule id Schedule::suppress_lint takes.
  try {
    comp::CompiledKernel::compile(stmt, s, m);
    FAIL() << "lint accepted divide_pos() through a Blocked level";
  } catch (const ScheduleError& e) {
    EXPECT_NE(std::string(e.what()).find("verify(lint)"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("lint(divide-pos-blocked)"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("BlockedDense[4]"),
              std::string::npos)
        << e.what();
  }
}

TEST(VerifyLint, AcceptsTheCleanFigure1Schedule) {
  VerifyGuard guard;
  SpmvProgram prog(2);
  prog.a.schedule()
      .communicate({"a", "B", "c"}, prog.io)
      .parallelize(prog.ii, sched::ParallelUnit::CPUThread);
  const verify::Stats before = verify::stats();
  EXPECT_NO_THROW(comp::CompiledKernel::compile(*prog.stmt, cpu_machine(2)));
  EXPECT_EQ(verify::stats().violations, before.violations);
}

TEST(VerifyLint, SuppressLintSilencesExactlyOneRule) {
  VerifyGuard guard;
  // Two seeded warnings from distinct rules: 64 pieces on a 2-processor
  // machine (grid-oversubscribed) and communicate() at a non-distributed
  // variable (communicate-misplaced).
  SpmvProgram prog(64);
  prog.a.schedule().communicate({"B"}, prog.ii);
  const Machine m = cpu_machine(2);
  std::vector<verify::Violation> all =
      verify::lint_statement(*prog.stmt, prog.a.schedule(), m);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].rule, "grid-oversubscribed");
  EXPECT_EQ(all[1].rule, "communicate-misplaced");
  // Suppressing one rule drops exactly that finding; the other survives.
  prog.a.schedule().suppress_lint("grid-oversubscribed");
  std::vector<verify::Violation> rest =
      verify::lint_statement(*prog.stmt, prog.a.schedule(), m);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].rule, "communicate-misplaced");
}

// --- privilege checker -------------------------------------------------------

TEST(VerifyPrivilege, CatchesOutOfSubsetWrite) {
  VerifyGuard guard;
  Machine m = cpu_machine(2);
  Runtime rt(m, 1);
  auto r = rt.create_region<double>(IndexSpace(100), "out");
  Partition p = rt::partition_equal(r->space(), 2);
  IndexLaunch launch;
  launch.name = "escape";
  launch.domain = 2;
  launch.reqs = {RegionReq{r, &p, Privilege::WO}};
  // Seeded defect: every point writes the whole region, not just its half.
  launch.body = [&](const TaskContext&) {
    for (Coord x = 0; x < 100; ++x) (*r)[x] = 1.0;
    return WorkEstimate{100, 800};
  };
  rt.execute(launch);
  try {
    rt.flush();
    FAIL() << "privilege checker missed an out-of-subset write";
  } catch (const VerifyError& e) {
    EXPECT_NE(std::string(e.what()).find("outside its declared subset"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("escape["), std::string::npos)
        << e.what();
  }
}

// Leaves read through accessors, not Region::operator[]: a seeded read of
// one element outside the point's subset through a 1-D RegionAccessor, a
// 2-D RegionAccessor and a LinearAccessor is each caught. The bodies pick
// their accessors the way leaves do (rt::dispatch_logged), so this also
// checks that verify mode picks the logged ones.
TEST(VerifyPrivilege, CatchesOutOfSubsetAccessorRead) {
  VerifyGuard guard;
  Machine m = cpu_machine(2);
  enum class Via { Region1, Region2, Linear };
  for (Via via : {Via::Region1, Via::Region2, Via::Linear}) {
    const bool two_d = via == Via::Region2;
    Runtime rt(m, 1);
    auto r = rt.create_region<double>(
        two_d ? IndexSpace(RectN::make2(0, 9, 0, 9)) : IndexSpace(100),
        "src");
    r->fill(1.0);
    rt.flush();
    Partition p = rt::partition_equal(r->space(), 2);
    IndexLaunch launch;
    launch.name = "reader";
    launch.domain = 2;
    launch.reqs = {RegionReq{r, &p, Privilege::RO}};
    // Seeded defect: each point reads the far end of the other half.
    launch.body = [&](const TaskContext& ctx) {
      const Coord far = ctx.color() == 0 ? 99 : 0;
      const double v = rt::dispatch_logged([&]<bool L>() {
        if (via == Via::Region2) {
          const rt::RegionAccessor<double, 2, L> acc(*r, rt::Access::Read);
          return acc(far / 10, far % 10);
        }
        if (via == Via::Linear) {
          const rt::LinearAccessor<double, L> acc(*r, rt::Access::Read);
          return acc.at(far);
        }
        const rt::RegionAccessor<double, 1, L> acc(*r, rt::Access::Read);
        return acc[far];
      });
      return WorkEstimate{v, 8};
    };
    rt.execute(launch);
    try {
      rt.flush();
      ADD_FAILURE() << "privilege checker missed an out-of-subset read via "
                    << static_cast<int>(via);
    } catch (const VerifyError& e) {
      EXPECT_NE(std::string(e.what()).find("outside its declared subset"),
                std::string::npos)
          << e.what();
    }
  }
}

// An unlogged accessor built while touch logging is on would hide its
// accesses from the privilege checker, so building one aborts.
TEST(VerifyAccessorDeathTest, UnloggedAccessorUnderTouchLoggingAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  VerifyGuard guard;
  auto r = rt::make_region<double>(IndexSpace(4), "hidden");
  using Unlogged = rt::RegionAccessor<double, 1, false>;
  using UnloggedLinear = rt::LinearAccessor<double, false>;
  EXPECT_DEATH(Unlogged{*r}, "built while touch logging is on");
  EXPECT_DEATH(UnloggedLinear{*r}, "built while touch logging is on");
}

TEST(VerifyPrivilege, CatchesTouchOfUndeclaredRegion) {
  VerifyGuard guard;
  Machine m = cpu_machine(2);
  Runtime rt(m, 1);
  auto r = rt.create_region<double>(IndexSpace(64), "declared");
  auto q = rt.create_region<double>(IndexSpace(64), "undeclared");
  q->fill(0.0);
  rt.flush();
  Partition p = rt::partition_equal(r->space(), 2);
  IndexLaunch launch;
  launch.name = "stray";
  launch.domain = 2;
  launch.reqs = {RegionReq{r, &p, Privilege::WO}};
  launch.body = [&](const TaskContext& ctx) {
    const rt::IndexSubset s = ctx.subset(0);
    for (const auto& rect : s.rects()) {
      for (Coord x = rect.lo[0]; x <= rect.hi[0]; ++x) (*r)[x] = 1.0;
    }
    (*q)[0] = 1.0;  // seeded defect: region held by no RegionReq
    return WorkEstimate{32, 256};
  };
  rt.execute(launch);
  try {
    rt.flush();
    FAIL() << "privilege checker missed a touch of an undeclared region";
  } catch (const VerifyError& e) {
    EXPECT_NE(std::string(e.what()).find("no RegionReq"), std::string::npos)
        << e.what();
  }
}

TEST(VerifyPrivilege, CatchesWriteUnderReadOnly) {
  VerifyGuard guard;
  Machine m = cpu_machine(2);
  Runtime rt(m, 1);
  auto r = rt.create_region<double>(IndexSpace(50), "ro");
  r->fill(2.0);
  rt.flush();
  IndexLaunch launch;
  launch.name = "ro_writer";
  launch.domain = 1;
  launch.reqs = {RegionReq{r, nullptr, Privilege::RO}};
  // Seeded defect: mutation under a read-only requirement. The in-subset
  // write is invisible to the footprint check; the content fingerprint
  // taken before/after the launch catches it.
  launch.body = [&](const TaskContext&) {
    (*r)[7] = -1.0;
    return WorkEstimate{1, 8};
  };
  rt.execute(launch);
  try {
    rt.flush();
    FAIL() << "privilege checker missed a write under RO";
  } catch (const VerifyError& e) {
    EXPECT_NE(std::string(e.what()).find("read-only privilege"),
              std::string::npos)
        << e.what();
  }
}

TEST(VerifyPrivilege, CatchesInSubsetReadUnderWriteOnly) {
  VerifyGuard guard;
  Machine m = cpu_machine(2);
  Runtime rt(m, 1);
  auto r = rt.create_region<double>(IndexSpace(100), "wo_out");
  r->fill(0.0);
  rt.flush();
  Partition p = rt::partition_equal(r->space(), 2);
  IndexLaunch launch;
  launch.name = "wo_reader";
  launch.domain = 2;
  launch.reqs = {RegionReq{r, &p, Privilege::WO}};
  // Seeded defect: the body *reads* its own subset before writing it. The
  // footprint stays fully in-subset — only the read/write separation in the
  // touch log can see it.
  launch.body = [&](const TaskContext& ctx) {
    const rt::IndexSubset s = ctx.subset(0);
    const rt::RegionAccessor<double> acc(*r, rt::Access::Read);
    double sum = 0;
    for (const auto& rect : s.rects()) {
      for (Coord x = rect.lo[0]; x <= rect.hi[0]; ++x) sum += acc[x];
    }
    for (const auto& rect : s.rects()) {
      for (Coord x = rect.lo[0]; x <= rect.hi[0]; ++x) (*r)[x] = sum;
    }
    return WorkEstimate{100, 800};
  };
  rt.execute(launch);
  try {
    rt.flush();
    FAIL() << "privilege checker missed an in-subset read under WO";
  } catch (const VerifyError& e) {
    EXPECT_NE(std::string(e.what()).find("write-only privilege"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("wo_reader"), std::string::npos)
        << e.what();
  }
  // Control: the same body under RW privilege is legal (fresh runtime — the
  // one above threw mid-flush).
  Runtime rt2(m, 1);
  auto r2 = rt2.create_region<double>(IndexSpace(100), "rw_out");
  r2->fill(0.0);
  rt2.flush();
  Partition p2 = rt::partition_equal(r2->space(), 2);
  IndexLaunch ok;
  ok.name = "rw_reader";
  ok.domain = 2;
  ok.reqs = {RegionReq{r2, &p2, Privilege::RW}};
  ok.body = [&](const TaskContext& ctx) {
    const rt::IndexSubset s = ctx.subset(0);
    const rt::RegionAccessor<double> acc(*r2, rt::Access::Read);
    double sum = 0;
    for (const auto& rect : s.rects()) {
      for (Coord x = rect.lo[0]; x <= rect.hi[0]; ++x) sum += acc[x];
    }
    for (const auto& rect : s.rects()) {
      for (Coord x = rect.lo[0]; x <= rect.hi[0]; ++x) (*r2)[x] = sum;
    }
    return WorkEstimate{100, 800};
  };
  rt2.execute(ok);
  EXPECT_NO_THROW(rt2.flush());
}

// --- dependence-race auditor -------------------------------------------------

// Two points whose RW subsets overlap at element 50: the plan must order
// them with a conflict edge.
IndexLaunch overlapping_rw(std::shared_ptr<rt::Region<double>> r,
                           Partition& p) {
  IndexLaunch launch;
  launch.name = "overlap_rw";
  launch.domain = 2;
  launch.reqs = {RegionReq{r, &p, Privilege::RW}};
  launch.body = [r](const TaskContext& ctx) {
    const rt::IndexSubset s = ctx.subset(0);
    for (const auto& rect : s.rects()) {
      for (Coord x = rect.lo[0]; x <= rect.hi[0]; ++x) (*r)[x] += 1.0;
    }
    return WorkEstimate{50, 400};
  };
  return launch;
}

TEST(VerifyRace, CatchesDroppedConflictEdge) {
  VerifyGuard guard;
  Machine m = cpu_machine(2);
  Runtime rt(m, 1);
  auto r = rt.create_region<double>(IndexSpace(100), "acc");
  r->fill(0.0);
  Partition p = rt::partition_by_bounds(
      r->space(), {RectN::make1(0, 50), RectN::make1(50, 99)});
  IndexLaunch launch = overlapping_rw(r, p);
  rt.execute(launch);  // memoizes the plan, audit passes
  rt.flush();
  ASSERT_TRUE(rt.inject_plan_fault(Runtime::PlanFault::DropConflictEdge));
  try {
    rt.execute(launch);  // warm hit on the corrupted plan
    FAIL() << "race auditor missed a dropped conflict edge";
  } catch (const VerifyError& e) {
    EXPECT_NE(std::string(e.what()).find("RACE"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("overlap_rw"), std::string::npos)
        << e.what();
  }
}

TEST(VerifyRace, WarnsOnSpuriousConflictEdge) {
  VerifyGuard guard;
  Machine m = cpu_machine(2);
  Runtime rt(m, 1);
  auto r = rt.create_region<double>(IndexSpace(100), "acc");
  r->fill(0.0);
  // Disjoint halves: no pair of points conflicts.
  Partition p = rt::partition_equal(r->space(), 2);
  IndexLaunch launch = overlapping_rw(r, p);
  launch.name = "disjoint_rw";
  rt.execute(launch);
  rt.flush();
  ASSERT_TRUE(rt.inject_plan_fault(Runtime::PlanFault::AddSpuriousEdge));
  const verify::Stats before = verify::stats();
  EXPECT_NO_THROW(rt.execute(launch));  // lost parallelism: warn, don't fail
  rt.flush();
  const verify::Stats after = verify::stats();
  EXPECT_GT(after.warnings, before.warnings);
  EXPECT_EQ(after.violations, before.violations);
}

// --- clean programs and the off switch ---------------------------------------

TEST(Verify, CleanLaunchesStaySilent) {
  VerifyGuard guard;
  Machine m = cpu_machine(2);
  Runtime rt(m, 1);
  auto r = rt.create_region<double>(IndexSpace(100), "acc");
  r->fill(0.0);
  Partition p = rt::partition_equal(r->space(), 2);
  const verify::Stats before = verify::stats();
  IndexLaunch launch = overlapping_rw(r, p);
  launch.name = "clean";
  rt.execute(launch);
  rt.execute(launch);
  rt.flush();
  const verify::Stats after = verify::stats();
  EXPECT_EQ(after.violations, before.violations);
  EXPECT_GT(after.plans_checked, before.plans_checked);
  EXPECT_GT(after.tasks_checked, before.tasks_checked);
}

TEST(Verify, AuditSamplingAuditsEveryNthLaunch) {
  VerifyGuard guard;
  Machine m = cpu_machine(2);
  Runtime rt(m, 1);
  auto r = rt.create_region<double>(IndexSpace(100), "acc");
  r->fill(0.0);
  rt.flush();
  Partition p = rt::partition_equal(r->space(), 2);
  IndexLaunch launch = overlapping_rw(r, p);
  launch.name = "sampled";
  // Every 3rd launch is audited; set_verify_sample resets the sequence so
  // launch 0 is always the first audit.
  verify::set_verify_sample(3);
  const verify::Stats before = verify::stats();
  const int L = 7;
  for (int k = 0; k < L; ++k) rt.execute(launch);
  rt.flush();
  const verify::Stats after = verify::stats();
  const uint64_t audits = (L + 2) / 3;  // ceil(L/N) = 3
  EXPECT_EQ(after.plans_checked - before.plans_checked, audits);
  EXPECT_EQ(after.tasks_checked - before.tasks_checked,
            audits * 2);  // domain = 2 points per audited launch
  verify::set_verify_sample(1);
  EXPECT_EQ(verify::verify_sample(), 1u);
}

TEST(Verify, DisabledModeChecksNothing) {
  const bool prev = verify::enabled();
  verify::set_enabled(false);
  Machine m = cpu_machine(2);
  Runtime rt(m, 1);
  auto r = rt.create_region<double>(IndexSpace(100), "acc");
  r->fill(0.0);
  Partition p = rt::partition_equal(r->space(), 2);
  const verify::Stats before = verify::stats();
  IndexLaunch launch = overlapping_rw(r, p);
  launch.name = "unverified";
  rt.execute(launch);
  rt.flush();
  const verify::Stats after = verify::stats();
  EXPECT_EQ(after.plans_checked, before.plans_checked);
  EXPECT_EQ(after.tasks_checked, before.tasks_checked);
  verify::set_enabled(prev);
}

}  // namespace
}  // namespace spdistal
