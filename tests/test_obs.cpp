// Tests for the observability subsystem: the simulated-timeline trace is
// bit-identical across executor thread counts, emitted JSON is well-formed,
// spans on serialized simulated tracks never overlap and host spans nest,
// the metrics registry mirrors the SimReport totals, disabled mode records
// nothing, the shared_ptr instantiate overload keeps the Runtime alive, and
// SimReport::diff/kernels isolate per-phase per-kernel costs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "compiler/lower.h"
#include "data/generators.h"
#include "obs/obs.h"
#include "obs/persist.h"
#include "tensor/tensor.h"

namespace spdistal {
namespace {

using comp::CompiledKernel;
using rt::Coord;

rt::Machine cpu_machine(int nodes) {
  rt::MachineConfig cfg;
  cfg.nodes = nodes;
  return rt::Machine(cfg, rt::Grid(nodes), rt::ProcKind::CPU);
}

uint64_t bits(double x) { return std::bit_cast<uint64_t>(x); }

// Flips observability on/off for a test and restores a quiet state after.
struct ObsGuard {
  explicit ObsGuard(bool on) {
    obs::set_enabled(on);
    obs::TraceRecorder::global().start();  // clears prior buffers
    if (!on) obs::TraceRecorder::global().stop();
    obs::Metrics::global().reset();
  }
  ~ObsGuard() {
    obs::TraceRecorder::global().stop();
    obs::set_enabled(false);
  }
};

// Non-zero-split SpMV over a skewed matrix: pieces straddle rows, so the
// run exercises fetches, leaf tasks, write-back and reduction combines.
std::pair<Tensor, Statement*> build_spmv(int pieces) {
  IndexVar i("i"), j("j"), f("f"), fo("fo"), fi("fi");
  fmt::Coo coo = data::powerlaw_matrix(2000, 2000, 40000, 1.1, 5);
  const std::vector<Coord> dims = coo.dims;
  Tensor a("a", {dims[0]}, fmt::dense_vector(),
           tdn::parse_tdn("T(x) -> M(q)"));
  Tensor B("B", dims, fmt::csr(),
           tdn::parse_tdn("T(x, y) fuse(x, y -> g) -> M(~g)"));
  Tensor c("c", {dims[1]}, fmt::dense_vector(),
           tdn::parse_tdn("T(x) -> M(q)"));
  B.from_coo(std::move(coo));
  c.init_dense([](const auto& x) {
    return 1.0 + 0.01 * static_cast<double>(x[0] % 17);
  });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  a.schedule().fuse(i, j, f).divide_pos(f, fo, fi, pieces, "B")
      .distribute(fo)
      .parallelize(fi, sched::ParallelUnit::CPUThread);
  return {a, &stmt};
}

// A whole document is one value and nothing after it.
bool valid_json(const std::string& s) {
  obs::JsonCursor c(s);
  c.skip_value();
  return c.ok && c.at_end();
}

// Pulls the numeric value following `"key": ` out of an event line; the
// recorder emits a fixed field layout, so plain substring search suffices.
double field(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\": ";
  const size_t at = line.find(pat);
  EXPECT_NE(at, std::string::npos) << key << " missing in " << line;
  if (at == std::string::npos) return 0;
  return std::atof(line.c_str() + at + pat.size());
}

// --- tests -------------------------------------------------------------------

TEST(Obs, SimTraceBitIdenticalAcrossThreads) {
  const rt::Machine m = cpu_machine(4);
  auto run_traced = [&](int threads) {
    obs::TraceRecorder::global().start();
    auto [out, stmt] = build_spmv(m.num_procs());
    rt::Runtime runtime(m, threads);
    auto inst = CompiledKernel::compile(*stmt, m).instantiate(runtime);
    inst->run(3);
    runtime.flush();
    return obs::TraceRecorder::global().sim_events();
  };
  ObsGuard guard(true);
  const std::vector<std::string> serial = run_traced(1);
  const std::vector<std::string> parallel = run_traced(4);
  ASSERT_FALSE(serial.empty());
  // Byte identity of the whole simulated track, event by event, in order.
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t e = 0; e < serial.size(); ++e) {
    EXPECT_EQ(serial[e], parallel[e]) << "sim event " << e;
  }
}

TEST(Obs, TraceJsonValidAndSpansOrdered) {
  const rt::Machine m = cpu_machine(4);
  ObsGuard guard(true);
  {
    auto [out, stmt] = build_spmv(m.num_procs());
    rt::Runtime runtime(m, 2);
    auto inst = CompiledKernel::compile(*stmt, m).instantiate(runtime);
    inst->run(2);
    runtime.flush();
  }
  const std::string doc = obs::TraceRecorder::global().json();
  EXPECT_TRUE(valid_json(doc)) << doc.substr(0, 400);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("simulated timeline"), std::string::npos);
  EXPECT_NE(doc.find("host timeline"), std::string::npos);

  // Serialized simulated tracks (virtual processors and NICs; NVLink may
  // overlap by design) carry non-overlapping spans in emission order.
  constexpr double kEps = 0.002;  // two %.3f rounding quanta, microseconds
  std::map<int, double> track_end;
  for (const std::string& ev : obs::TraceRecorder::global().sim_events()) {
    // Flow ends (ph "f") share the sim tracks but are instants, not spans.
    if (ev.find("\"ph\": \"X\"") == std::string::npos) continue;
    const int tid = static_cast<int>(field(ev, "tid"));
    const double ts = field(ev, "ts");
    const double dur = field(ev, "dur");
    EXPECT_GE(dur, 0.0) << ev;
    if (tid >= obs::kNvlinkTidBase) continue;
    auto it = track_end.find(tid);
    if (it != track_end.end()) {
      EXPECT_GE(ts, it->second - kEps) << "overlap on sim track " << tid;
    }
    double& end = track_end[tid];
    end = std::max(end, ts + dur);
  }

  // Host spans on one thread come from sequential task bodies and RAII
  // scopes: any two either nest or are disjoint (within rounding).
  struct HostSpan {
    double ts = 0, end = 0;
  };
  std::map<int, std::vector<HostSpan>> by_tid;
  size_t at = 0;
  while ((at = doc.find("\"pid\": 2, \"tid\":", at)) != std::string::npos) {
    const size_t line_start = doc.rfind('\n', at) + 1;
    const size_t line_end = doc.find('\n', at);
    const std::string line = doc.substr(line_start, line_end - line_start);
    at = line_end;
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    const int tid = static_cast<int>(field(line, "tid"));
    const double ts = field(line, "ts");
    by_tid[tid].push_back(HostSpan{ts, ts + field(line, "dur")});
  }
  EXPECT_FALSE(by_tid.empty());
  for (const auto& [tid, spans] : by_tid) {
    for (size_t x = 0; x < spans.size(); ++x) {
      for (size_t y = x + 1; y < spans.size(); ++y) {
        const HostSpan& a = spans[x];
        const HostSpan& b = spans[y];
        const bool disjoint =
            a.end <= b.ts + kEps || b.end <= a.ts + kEps;
        const bool a_in_b =
            a.ts >= b.ts - kEps && a.end <= b.end + kEps;
        const bool b_in_a =
            b.ts >= a.ts - kEps && b.end <= a.end + kEps;
        EXPECT_TRUE(disjoint || a_in_b || b_in_a)
            << "host spans cross on tid " << tid;
      }
    }
  }
}

// Splits a trace document into its event lines.
std::vector<std::string> doc_lines(const std::string& doc) {
  std::vector<std::string> lines;
  size_t at = 0;
  while (at < doc.size()) {
    size_t end = doc.find('\n', at);
    if (end == std::string::npos) end = doc.size();
    lines.push_back(doc.substr(at, end - at));
    at = end + 1;
  }
  return lines;
}

TEST(Obs, MeasuredSpansCarryArgsAndNestInWorkerSpans) {
  const rt::Machine m = cpu_machine(4);
  ObsGuard guard(true);
  {
    auto [out, stmt] = build_spmv(m.num_procs());
    rt::Runtime runtime(m, 2);
    auto inst = CompiledKernel::compile(*stmt, m).instantiate(runtime);
    inst->run(2);
    runtime.flush();
  }
  const std::string doc = obs::TraceRecorder::global().json();
  ASSERT_TRUE(valid_json(doc)) << doc.substr(0, 400);
  EXPECT_NE(doc.find("measured timeline"), std::string::npos);

  // Collect measured leaf spans (pid 3) and host spans (pid 2) per tid.
  struct SpanT {
    double ts = 0, end = 0;
  };
  std::map<int, std::vector<SpanT>> host_by_tid;
  std::vector<std::pair<int, SpanT>> meas;
  for (const std::string& line : doc_lines(doc)) {
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    const SpanT s{field(line, "ts"), field(line, "ts") + field(line, "dur")};
    if (line.find("\"pid\": 2,") != std::string::npos) {
      host_by_tid[static_cast<int>(field(line, "tid"))].push_back(s);
    } else if (line.find("\"pid\": 3,") != std::string::npos) {
      // Every measured span carries the calibration-relevant args.
      for (const char* key :
           {"kernel", "nnz", "flops", "bytes", "sim_s", "wall_s"}) {
        EXPECT_NE(line.find(std::string("\"") + key + "\""),
                  std::string::npos)
            << key << " missing in " << line;
      }
      meas.emplace_back(static_cast<int>(field(line, "tid")), s);
    }
  }
  ASSERT_FALSE(meas.empty()) << "no measured leaf spans recorded";
  // The leaf timer runs inside the executor's task-body span on the same
  // thread, so each measured span nests inside some worker host span.
  constexpr double kEps = 0.002;
  for (const auto& [tid, ms] : meas) {
    bool nested = false;
    for (const SpanT& h : host_by_tid[tid]) {
      if (ms.ts >= h.ts - kEps && ms.end <= h.end + kEps) {
        nested = true;
        break;
      }
    }
    EXPECT_TRUE(nested) << "measured span on tid " << tid
                        << " not inside any worker task span";
  }
}

TEST(Obs, FlowEventIdsResolve) {
  const rt::Machine m = cpu_machine(4);
  ObsGuard guard(true);
  {
    auto [out, stmt] = build_spmv(m.num_procs());
    rt::Runtime runtime(m, 2);
    auto inst = CompiledKernel::compile(*stmt, m).instantiate(runtime);
    inst->run(2);
    runtime.flush();
  }
  const std::string doc = obs::TraceRecorder::global().json();
  std::set<uint64_t> starts;
  size_t sim_ends = 0, meas_ends = 0;
  std::vector<uint64_t> end_ids;
  for (const std::string& line : doc_lines(doc)) {
    if (line.find("\"ph\": \"s\"") != std::string::npos) {
      starts.insert(static_cast<uint64_t>(field(line, "id")));
    } else if (line.find("\"ph\": \"f\"") != std::string::npos) {
      end_ids.push_back(static_cast<uint64_t>(field(line, "id")));
      // Flow ends bind to the enclosing span ("bp": "e").
      EXPECT_NE(line.find("\"bp\": \"e\""), std::string::npos) << line;
      if (line.find("\"pid\": 1,") != std::string::npos) ++sim_ends;
      if (line.find("\"pid\": 3,") != std::string::npos) ++meas_ends;
    }
  }
  ASSERT_FALSE(starts.empty()) << "no flow starts recorded";
  ASSERT_FALSE(end_ids.empty()) << "no flow ends recorded";
  EXPECT_GT(sim_ends, 0u) << "no flows land on the simulated track";
  EXPECT_GT(meas_ends, 0u) << "no flows land on the measured track";
  // Every flow end resolves to a recorded start — a dangling `f` renders as
  // a broken arrow in the Perfetto UI.
  for (uint64_t id : end_ids) {
    EXPECT_TRUE(starts.count(id)) << "flow end " << id << " has no start";
  }
}

TEST(Obs, RingBufferBoundsEventsAndCountsDrops) {
  const rt::Machine m = cpu_machine(4);
  ObsGuard guard(true);
  obs::TraceRecorder& trec = obs::TraceRecorder::global();
  trec.set_ring(8);
  {
    auto [out, stmt] = build_spmv(m.num_procs());
    rt::Runtime runtime(m, 2);
    auto inst = CompiledKernel::compile(*stmt, m).instantiate(runtime);
    inst->run(2);
    runtime.flush();
  }
  const std::string doc = trec.json();
  trec.set_ring(0);
  // Tiny bound: the document stays valid JSON, the per-timeline buffers are
  // capped, and every drop is accounted.
  EXPECT_TRUE(valid_json(doc)) << doc.substr(0, 400);
  EXPECT_LE(trec.sim_events().size(), 8u);
  EXPECT_GT(obs::Metrics::global().counter("obs.dropped_events").value(), 0);
  // Dangling-flow filtering: any surviving flow end still resolves.
  std::set<uint64_t> starts;
  std::vector<uint64_t> end_ids;
  for (const std::string& line : doc_lines(doc)) {
    if (line.find("\"ph\": \"s\"") != std::string::npos) {
      starts.insert(static_cast<uint64_t>(field(line, "id")));
    } else if (line.find("\"ph\": \"f\"") != std::string::npos) {
      end_ids.push_back(static_cast<uint64_t>(field(line, "id")));
    }
  }
  for (uint64_t id : end_ids) {
    EXPECT_TRUE(starts.count(id))
        << "flow end " << id << " survived the ring without its start";
  }
}

TEST(Obs, LaunchSamplingRecordsEveryKthLaunch) {
  const rt::Machine m = cpu_machine(4);
  ObsGuard guard(true);
  obs::TraceRecorder& trec = obs::TraceRecorder::global();
  // K larger than the launch count: exactly the first launch records its
  // spans; counter tracks stay on for every launch.
  trec.set_sample(1 << 20);
  {
    auto [out, stmt] = build_spmv(m.num_procs());
    rt::Runtime runtime(m, 2);
    auto inst = CompiledKernel::compile(*stmt, m).instantiate(runtime);
    inst->run(4);
    runtime.flush();
  }
  const std::string doc = trec.json();
  trec.set_sample(1);
  size_t enqueues = 0, counters = 0;
  for (const std::string& line : doc_lines(doc)) {
    if (line.find("\"name\": \"enqueue ") != std::string::npos) ++enqueues;
    if (line.find("\"ph\": \"C\"") != std::string::npos) ++counters;
  }
  EXPECT_EQ(enqueues, 1u);
  EXPECT_GT(counters, 0u);
}

TEST(Obs, CounterTracksSampleExecutorGauges) {
  const rt::Machine m = cpu_machine(4);
  ObsGuard guard(true);
  {
    auto [out, stmt] = build_spmv(m.num_procs());
    rt::Runtime runtime(m, 2);
    auto inst = CompiledKernel::compile(*stmt, m).instantiate(runtime);
    inst->run(2);
    runtime.flush();
  }
  // The executor samples its outstanding-task and ready-queue depths as
  // Perfetto counter tracks (ph: "C") on every create and retire.
  const std::string doc = obs::TraceRecorder::global().json();
  bool outstanding = false, queued = false;
  size_t at = 0;
  while ((at = doc.find("\"ph\": \"C\"", at)) != std::string::npos) {
    const size_t line_start = doc.rfind('\n', at) + 1;
    const size_t line_end = doc.find('\n', at);
    const std::string line = doc.substr(line_start, line_end - line_start);
    at = line_end;
    EXPECT_NE(line.find("\"args\": {\"value\": "), std::string::npos) << line;
    EXPECT_GE(field(line, "value"), 0.0) << line;
    if (line.find("\"name\": \"exec.outstanding\"") != std::string::npos) {
      outstanding = true;
    }
    if (line.find("\"name\": \"exec.queued\"") != std::string::npos) {
      queued = true;
    }
  }
  EXPECT_TRUE(outstanding) << "no exec.outstanding counter samples";
  EXPECT_TRUE(queued) << "no exec.queued counter samples";
}

TEST(Obs, MetricsMatchSimReport) {
  const rt::Machine m = cpu_machine(4);
  ObsGuard guard(true);
  auto [out, stmt] = build_spmv(m.num_procs());
  rt::Runtime runtime(m, 1);
  auto inst = CompiledKernel::compile(*stmt, m).instantiate(runtime);
  inst->run(3);
  const rt::SimReport rep = inst->report();
  obs::Metrics& reg = obs::Metrics::global();
  EXPECT_EQ(reg.counter("sim.tasks").value(), rep.tasks);
  EXPECT_EQ(bits(reg.counterd("net.inter_node_bytes").value()),
            bits(rep.inter_node_bytes));
  EXPECT_EQ(bits(reg.counterd("net.intra_node_bytes").value()),
            bits(rep.intra_node_bytes));
  EXPECT_EQ(reg.counter("net.messages").value(), rep.messages);
  EXPECT_EQ(reg.counter("plan.hits").value(), rep.plan_hits);
  EXPECT_EQ(reg.counter("plan.misses").value(), rep.plan_misses);
  EXPECT_EQ(reg.counter("plan.evictions").value(), rep.plan_evictions);
  // Executor mirrors and leaf dispatch counts.
  const auto ex = runtime.executor().stats();
  EXPECT_EQ(reg.counter("exec.created").value(),
            static_cast<int64_t>(ex.created));
  EXPECT_EQ(reg.counter("exec.retired").value(),
            static_cast<int64_t>(ex.retired));
  int64_t leaf_total = 0;
  for (const auto& [name, ks] : rep.kernels) {
    leaf_total += ks.tasks;
  }
  EXPECT_GT(leaf_total, 0);
  // The registry snapshot itself is valid JSON.
  EXPECT_TRUE(valid_json(reg.json()));
}

TEST(Obs, DisabledModeRecordsNothing) {
  const rt::Machine m = cpu_machine(4);
  ObsGuard guard(false);
  auto [out, stmt] = build_spmv(m.num_procs());
  rt::Runtime runtime(m, 2);
  auto inst = CompiledKernel::compile(*stmt, m).instantiate(runtime);
  inst->run(2);
  const rt::SimReport rep = inst->report();
  EXPECT_GT(rep.tasks, 0);
  EXPECT_EQ(obs::TraceRecorder::global().events(), 0u);
  obs::Metrics& reg = obs::Metrics::global();
  EXPECT_EQ(reg.counter("sim.tasks").value(), 0);
  EXPECT_EQ(reg.counter("exec.created").value(), 0);
  EXPECT_EQ(bits(reg.counterd("net.inter_node_bytes").value()), bits(0.0));
  EXPECT_EQ(reg.gauge("exec.outstanding").max(), 0);
  // The deterministic SimReport surface is independent of the obs switch:
  // kernels rows are still populated.
  EXPECT_FALSE(rep.kernels.empty());
}

TEST(Obs, SharedPtrInstantiateKeepsRuntimeAlive) {
  const rt::Machine m = cpu_machine(4);
  auto [out, stmt] = build_spmv(m.num_procs());
  auto runtime = std::make_shared<rt::Runtime>(m);
  std::weak_ptr<rt::Runtime> weak = runtime;
  auto inst = CompiledKernel::compile(*stmt, m).instantiate(runtime);
  // Dropping the caller's handle must not destroy the runtime: the Instance
  // holds it (the use-after-free shape the reference overload permits).
  runtime.reset();
  ASSERT_FALSE(weak.expired());
  inst->run(2);
  EXPECT_GT(inst->report().tasks, 0);
  inst.reset();
  EXPECT_TRUE(weak.expired());
}

TEST(Obs, SimReportKernelsAndDiff) {
  const rt::Machine m = cpu_machine(4);
  auto [out, stmt] = build_spmv(m.num_procs());
  rt::Runtime runtime(m, 1);
  auto inst = CompiledKernel::compile(*stmt, m).instantiate(runtime);
  inst->run(1);  // warm-up
  runtime.reset_timing();
  inst->run(1);
  const rt::SimReport one = inst->report();
  inst->run(2);
  const rt::SimReport three = inst->report();

  // Exactly one launch name; the leaf row counts one task per piece & iter.
  ASSERT_EQ(one.kernels.size(), 1u);
  const auto& [name, row1] = *one.kernels.begin();
  EXPECT_EQ(row1.tasks, m.num_procs());
  EXPECT_GT(row1.busy_s, 0.0);
  EXPECT_GT(row1.flops, 0.0);

  const rt::SimReport d = three.diff(one);
  EXPECT_EQ(d.tasks, three.tasks - one.tasks);
  EXPECT_GT(d.sim_time, 0.0);
  EXPECT_EQ(bits(d.inter_node_bytes),
            bits(three.inter_node_bytes - one.inter_node_bytes));
  ASSERT_EQ(d.kernels.size(), 1u);
  EXPECT_EQ(d.kernels.at(name).tasks, 2 * m.num_procs());
  EXPECT_EQ(bits(d.kernels.at(name).busy_s),
            bits(three.kernels.at(name).busy_s - row1.busy_s));
  // reset_timing zeroes the per-kernel rows along with the clocks.
  runtime.reset_timing();
  EXPECT_TRUE(runtime.report().kernels.empty());
}

}  // namespace
}  // namespace spdistal
