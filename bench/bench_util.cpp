#include "bench_util.h"

#include <algorithm>

#include "autosched/autosched.h"
#include "obs/obs.h"
#include "obs/persist.h"

namespace spdbench {

using base::KernelKind;
using rt::Coord;

std::string obs_summary(const rt::SimReport& rep) {
  const int64_t lookups = rep.plan_hits + rep.plan_misses;
  if (lookups == 0 && rep.kernels.empty()) return "";
  std::string out = strprintf(
      "[obs] plan hit-rate %.1f%% (%lld/%lld)",
      lookups > 0 ? 100.0 * static_cast<double>(rep.plan_hits) /
                        static_cast<double>(lookups)
                  : 0.0,
      static_cast<long long>(rep.plan_hits),
      static_cast<long long>(lookups));
  // Top-3 kernels by simulated busy time.
  std::vector<std::pair<std::string, obs::KernelStats>> rows(
      rep.kernels.begin(), rep.kernels.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.busy_s > b.second.busy_s;
  });
  if (rows.size() > 3) rows.resize(3);
  for (const auto& [name, ks] : rows) {
    out += strprintf(" | %s: %lld tasks, %s busy", name.c_str(),
                     static_cast<long long>(ks.tasks),
                     human_seconds(ks.busy_s).c_str());
  }
  return out;
}

std::string calib_summary(const rt::SimReport& rep,
                          const rt::Machine& machine) {
  if (!obs::calibration_enabled() || rep.kernels.empty()) return "";
  const obs::Calibration& c = obs::Calibration::global();
  const rt::Proc p0 = machine.proc(0);
  const char* kind = rt::proc_kind_name(p0.kind);
  const double static_flop = 1.0 / machine.proc_flops(p0, 1);
  const double static_byte = 1.0 / machine.proc_mem_bw(p0, 1);
  std::string out;
  for (const auto& [name, ks] : rep.kernels) {
    const auto r = c.lookup(name, kind);
    if (!r.has_value()) continue;
    out += strprintf("%s %s:", out.empty() ? "" : " |", name.c_str());
    if (r->wall_per_flop > 0) {
      out += strprintf(" %.2e s/flop (%+.0f%% vs static)", r->wall_per_flop,
                       100.0 * (r->wall_per_flop - static_flop) / static_flop);
    }
    if (r->wall_per_byte > 0) {
      out += strprintf(" %.2e s/B (%+.0f%%)", r->wall_per_byte,
                       100.0 * (r->wall_per_byte - static_byte) / static_byte);
    }
    out += strprintf(", %llu samples",
                     static_cast<unsigned long long>(r->samples));
  }
  if (out.empty()) return "";
  return "[calib]" + out;
}

std::string plan_summary() {
  autosched::PlanCache& cache = autosched::PlanCache::global();
  const int64_t exact = cache.hits();
  const int64_t fuzzy = cache.fuzzy_hits();
  const int64_t misses = cache.misses();
  const int64_t lookups = exact + fuzzy + misses;
  if (lookups == 0) return "";
  std::string out = strprintf(
      "[plan] cache %.1f%% (%lld exact + %lld fuzzy / %lld lookups)",
      100.0 * static_cast<double>(exact + fuzzy) /
          static_cast<double>(lookups),
      static_cast<long long>(exact), static_cast<long long>(fuzzy),
      static_cast<long long>(lookups));
  if (cache.loaded() > 0) {
    out += strprintf(" | store: %lld loaded",
                     static_cast<long long>(cache.loaded()));
  }
  out += strprintf(" | searches: %lld cold, %lld warm",
                   static_cast<long long>(misses),
                   static_cast<long long>(exact + fuzzy));
  return out;
}

namespace {

void maybe_print_obs(const rt::SimReport& rep, const rt::Machine& machine) {
  if (obs::enabled()) {
    const std::string line = obs_summary(rep);
    if (!line.empty()) std::printf("%s\n", line.c_str());
  }
  const std::string calib = calib_summary(rep, machine);
  if (!calib.empty()) std::printf("%s\n", calib.c_str());
  const std::string plan = plan_summary();
  if (!plan.empty()) std::printf("%s\n", plan.c_str());
}

}  // namespace

rt::Machine make_machine(int nodes, rt::ProcKind kind, int grid_size) {
  rt::MachineConfig cfg = data::paper_machine_config(nodes);
  return rt::Machine(cfg, rt::Grid(grid_size), kind);
}

Built build_kernel(KernelKind kind, const fmt::Coo& coo, bool nz,
                   int pieces) {
  Built b;
  IndexVar i("i"), j("j"), k("k"), l("l");
  IndexVar io("io"), ii("ii"), f("f"), g("g"), fo("fo"), fi("fi");
  const auto& dims = coo.dims;
  const std::string row2 = "T(x, y) -> M(x)";
  const std::string row1 = "T(x) -> M(x)";
  const std::string repl1 = "T(x) -> M(q)";
  const std::string repl2 = "T(x, y) -> M(q)";
  const std::string nz2 = "T(x, y) fuse(x, y -> g) -> M(~g)";
  const std::string row3 = "T(x, y, z) -> M(x)";
  const std::string nz3 =
      "T(x, y, z) fuse(x, y -> g) fuse(g, z -> h) -> M(~h)";
  // Note: the TDN parser treats fuse clauses left to right, so nz3 fuses all
  // three dimensions before the ~ partition (Figure 5's x y z -> f case).

  switch (kind) {
    case KernelKind::SpMV: {
      Tensor a("a", {dims[0]}, fmt::dense_vector(),
               tdn::parse_tdn(nz ? repl1 : row1));
      Tensor B("B", dims, fmt::csr(), tdn::parse_tdn(nz ? nz2 : row2));
      Tensor c("c", {dims[1]}, fmt::dense_vector(), tdn::parse_tdn(repl1));
      B.from_coo(coo);
      c.init_dense([](const auto& x) {
        return 1.0 + 0.01 * static_cast<double>(x[0] % 97);
      });
      b.stmt = &(a(i) = B(i, j) * c(j));
      if (nz) {
        a.schedule().fuse(i, j, f).divide_pos(f, fo, fi, pieces, "B")
            .distribute(fo)
            .parallelize(fi, sched::ParallelUnit::CPUThread);
      } else {
        a.schedule().divide(i, io, ii, pieces).distribute(io)
            .communicate({"a", "B", "c"}, io)
            .parallelize(ii, sched::ParallelUnit::CPUThread);
      }
      b.out = a;
      return b;
    }
    case KernelKind::SpMM: {
      Tensor A("A", {dims[0], kSpmmJ}, fmt::dense_matrix(),
               tdn::parse_tdn(nz ? repl2 : row2));
      Tensor B("B", dims, fmt::csr(), tdn::parse_tdn(nz ? nz2 : row2));
      Tensor C("C", {dims[1], kSpmmJ}, fmt::dense_matrix(),
               tdn::parse_tdn(repl2));
      B.from_coo(coo);
      C.init_dense([](const auto& x) {
        return 0.5 + 0.01 * static_cast<double>((x[0] * 3 + x[1]) % 53);
      });
      b.stmt = &(A(i, j) = B(i, k) * C(k, j));
      if (nz) {
        A.schedule().fuse(i, k, f).divide_pos(f, fo, fi, pieces, "B")
            .distribute(fo)
            .parallelize(fi, sched::ParallelUnit::CPUThread);
      } else {
        A.schedule().divide(i, io, ii, pieces).distribute(io)
            .communicate({"A", "B", "C"}, io)
            .parallelize(ii, sched::ParallelUnit::CPUThread);
      }
      b.out = A;
      return b;
    }
    case KernelKind::SpAdd3: {
      SPD_CHECK(!nz, ScheduleError,
                "SpAdd3 is incompatible with non-zero distribution");
      Tensor A("A", dims, fmt::csr(), tdn::parse_tdn(row2));
      Tensor B("B", dims, fmt::csr(), tdn::parse_tdn(row2));
      Tensor C("C", dims, fmt::csr(), tdn::parse_tdn(row2));
      Tensor D("D", dims, fmt::csr(), tdn::parse_tdn(row2));
      B.from_coo(coo);
      C.from_coo(data::shift_last_dim(coo, 1 % dims[1]));
      D.from_coo(data::shift_last_dim(coo, 2 % dims[1]));
      b.stmt = &(A(i, j) = B(i, j) + C(i, j) + D(i, j));
      A.schedule().divide(i, io, ii, pieces).distribute(io)
          .parallelize(ii, sched::ParallelUnit::CPUThread);
      b.out = A;
      return b;
    }
    case KernelKind::SDDMM: {
      Tensor A("A", dims, fmt::csr());
      Tensor B("B", dims, fmt::csr(), tdn::parse_tdn(nz ? nz2 : row2));
      Tensor C("C", {dims[0], kSddmmK}, fmt::dense_matrix(),
               tdn::parse_tdn(repl2));
      Tensor D("D", {kSddmmK, dims[1]}, fmt::dense_matrix(),
               tdn::parse_tdn(repl2));
      B.from_coo(coo);
      C.init_dense([](const auto& x) {
        return 1.0 + 0.02 * static_cast<double>((x[0] + x[1]) % 31);
      });
      D.init_dense([](const auto& x) {
        return 0.5 - 0.02 * static_cast<double>((x[0] * 2 + x[1]) % 29);
      });
      b.stmt = &(A(i, j) = B(i, j) * C(i, k) * D(k, j));
      if (nz) {
        A.schedule().fuse(i, j, f).divide_pos(f, fo, fi, pieces, "B")
            .distribute(fo)
            .parallelize(fi, sched::ParallelUnit::CPUThread);
      } else {
        A.schedule().divide(i, io, ii, pieces).distribute(io)
            .parallelize(ii, sched::ParallelUnit::CPUThread);
      }
      b.out = A;
      return b;
    }
    case KernelKind::SpTTV: {
      // patents-style tensors have small, dense leading modes: store them
      // {Dense, Dense, Compressed} as in the paper's methodology.
      const bool patents_like =
          coo.dims[0] * coo.dims[1] <= static_cast<Coord>(coo.nnz());
      const fmt::Format bfmt = patents_like ? fmt::ddc3() : fmt::csf3();
      Tensor A("A", {dims[0], dims[1]}, fmt::csr());
      Tensor B("B", dims, bfmt, tdn::parse_tdn(nz ? nz3 : row3));
      Tensor c("c", {dims[2]}, fmt::dense_vector(), tdn::parse_tdn(repl1));
      B.from_coo(coo);
      c.init_dense([](const auto& x) {
        return 1.0 + 0.01 * static_cast<double>(x[0] % 89);
      });
      b.stmt = &(A(i, j) = B(i, j, k) * c(k));
      if (nz) {
        A.schedule().fuse(i, j, f).fuse(f, k, g)
            .divide_pos(g, fo, fi, pieces, "B").distribute(fo)
            .parallelize(fi, sched::ParallelUnit::CPUThread);
      } else {
        A.schedule().divide(i, io, ii, pieces).distribute(io)
            .parallelize(ii, sched::ParallelUnit::CPUThread);
      }
      b.out = A;
      return b;
    }
    case KernelKind::SpMTTKRP: {
      const bool patents_like =
          coo.dims[0] * coo.dims[1] <= static_cast<Coord>(coo.nnz());
      const fmt::Format bfmt = patents_like ? fmt::ddc3() : fmt::csf3();
      Tensor A("A", {dims[0], kRank}, fmt::dense_matrix(),
               tdn::parse_tdn(nz ? repl2 : row2));
      Tensor B("B", dims, bfmt, tdn::parse_tdn(nz ? nz3 : row3));
      Tensor C("C", {dims[1], kRank}, fmt::dense_matrix(),
               tdn::parse_tdn(repl2));
      Tensor D("D", {dims[2], kRank}, fmt::dense_matrix(),
               tdn::parse_tdn(repl2));
      B.from_coo(coo);
      C.init_dense([](const auto& x) {
        return 0.5 + 0.01 * static_cast<double>((x[0] + 2 * x[1]) % 41);
      });
      D.init_dense([](const auto& x) {
        return 1.0 - 0.01 * static_cast<double>((2 * x[0] + x[1]) % 37);
      });
      b.stmt = &(A(i, l) = B(i, j, k) * C(j, l) * D(k, l));
      if (nz) {
        A.schedule().fuse(i, j, f).fuse(f, k, g)
            .divide_pos(g, fo, fi, pieces, "B").distribute(fo)
            .parallelize(fi, sched::ParallelUnit::CPUThread);
      } else {
        A.schedule().divide(i, io, ii, pieces).distribute(io)
            .parallelize(ii, sched::ParallelUnit::CPUThread);
      }
      b.out = A;
      return b;
    }
    case KernelKind::Other:
      SPD_ASSERT(false, "build_kernel(Other)");
  }
  return b;
}

Result run_spdistal(KernelKind kind, const fmt::Coo& coo, bool nz,
                    const rt::Machine& machine) {
  Result r;
  try {
    Built b = build_kernel(kind, coo, nz, machine.num_procs());
    rt::Runtime runtime(machine);
    auto inst =
        comp::CompiledKernel::compile(*b.stmt, machine).instantiate(runtime);
    inst->run(kWarmIters);
    runtime.reset_timing();
    inst->run(kTimedIters);
    const rt::SimReport rep = inst->report();
    r.seconds = rep.sim_time / kTimedIters;
    maybe_print_obs(rep, machine);
  } catch (const OutOfMemoryError& e) {
    r.dnc = true;
    r.note = e.what();
  } catch (const SpdError& e) {
    r.unsupported = true;
    r.note = e.what();
  }
  return r;
}

Result run_spdistal_autosched(KernelKind kind, const fmt::Coo& coo,
                              const rt::Machine& machine) {
  Result r;
  try {
    Built b = build_kernel(kind, coo, /*nz=*/false, machine.num_procs());
    b.out.schedule() = sched::Schedule{};  // wipe the hand-written schedule
    autosched::Result searched =
        autosched::autoschedule_search(*b.stmt, machine);
    r.note = searched.summary();
    rt::Runtime runtime(machine);
    auto inst = comp::CompiledKernel::compile(*b.stmt, searched.schedule,
                                              machine)
                    .instantiate(runtime);
    inst->run(kWarmIters);
    runtime.reset_timing();
    inst->run(kTimedIters);
    const rt::SimReport rep = inst->report();
    r.seconds = rep.sim_time / kTimedIters;
    maybe_print_obs(rep, machine);
  } catch (const OutOfMemoryError& e) {
    r.dnc = true;
    r.note = e.what();
  } catch (const SpdError& e) {
    r.unsupported = true;
    r.note = e.what();
  }
  return r;
}

Result run_spdistal_spmm_batched(const fmt::Coo& coo,
                                 const rt::Machine& machine) {
  // Row-distributed SpMM whose dense operand C is partitioned by columns
  // and cycled between devices in rounds: each device holds two C chunks at
  // a time (current + staging) instead of a full replica, paying (P-1)/P of
  // C in ring traffic per iteration.
  Result r;
  try {
    const int pieces = machine.num_procs();
    Built b = build_kernel(KernelKind::SpMM, coo, /*nz=*/false, pieces);
    // Replace C's replicated distribution with a column partition.
    Tensor C = b.stmt->tensor("C");
    C.set_distribution(tdn::parse_tdn("C(x, y) -> M(y)"));
    rt::Runtime runtime(machine);
    auto inst =
        comp::CompiledKernel::compile(*b.stmt, machine).instantiate(runtime);
    // Staging chunk per device on top of the owned chunk.
    const double c_bytes =
        static_cast<double>(C.storage().vals()->size_bytes());
    for (int p = 0; p < pieces; ++p) {
      runtime.mems()
          .pool(machine.proc_mem(machine.proc(p)))
          .allocate(c_bytes / pieces, "C staging chunk");
    }
    auto ring = [&]() {
      for (int p = 0; p < pieces; ++p) {
        const rt::Proc dst = machine.proc(p);
        const rt::Proc src = machine.proc((p + 1) % pieces);
        // P-1 ring rounds, each moving one chunk.
        for (int round = 1; round < pieces; ++round) {
          runtime.charge_transfer(machine.proc_mem(src),
                                  machine.proc_mem(dst), c_bytes / pieces);
        }
      }
    };
    inst->run(kWarmIters);
    ring();
    runtime.reset_timing();
    for (int it = 0; it < kTimedIters; ++it) {
      inst->run(1);
      ring();
    }
    r.seconds = inst->report().sim_time / kTimedIters;
  } catch (const OutOfMemoryError& e) {
    r.dnc = true;
    r.note = e.what();
  } catch (const SpdError& e) {
    r.unsupported = true;
    r.note = e.what();
  }
  return r;
}

namespace {
template <typename System>
Result run_library(System&& system, KernelKind kind, const fmt::Coo& coo,
                   const rt::Machine& machine) {
  Result r;
  try {
    Built b = build_kernel(kind, coo, /*nz=*/false, machine.num_procs());
    r.seconds = system.run(*b.stmt, kWarmIters, kTimedIters);
  } catch (const OutOfMemoryError& e) {
    r.dnc = true;
    r.note = e.what();
  } catch (const SpdError& e) {
    r.unsupported = true;
    r.note = e.what();
  }
  return r;
}
}  // namespace

Result run_petsc(KernelKind kind, const fmt::Coo& coo,
                 const rt::Machine& machine) {
  return run_library(base::make_petsc_like(machine), kind, coo, machine);
}

Result run_trilinos(KernelKind kind, const fmt::Coo& coo,
                    const rt::Machine& machine) {
  return run_library(base::make_trilinos_like(machine), kind, coo, machine);
}

Result run_ctf(KernelKind kind, const fmt::Coo& coo,
               const rt::Machine& machine) {
  Result r;
  try {
    Built b = build_kernel(kind, coo, /*nz=*/false, machine.num_procs());
    base::CtfLike ctf(machine);
    r.seconds = ctf.run(*b.stmt, kWarmIters, kTimedIters);
  } catch (const OutOfMemoryError& e) {
    r.dnc = true;
    r.note = e.what();
  } catch (const SpdError& e) {
    r.unsupported = true;
    r.note = e.what();
  }
  return r;
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double logsum = 0;
  for (double x : xs) logsum += std::log(x);
  return std::exp(logsum / static_cast<double>(xs.size()));
}

bool write_bench_json(const std::string& path,
                      const std::vector<BenchRow>& rows) {
  std::string out = "{\n  \"version\": 1,\n  \"benchmarks\": [";
  bool first = true;
  for (const BenchRow& r : rows) {
    out += first ? "\n" : ",\n";
    first = false;
    out += strprintf(
        "    {\"name\": %s, \"ns_per_op\": %.17g, "
        "\"items_per_s\": %.17g, \"bytes_per_s\": %.17g}",
        obs::json_string(r.name).c_str(), r.ns_per_op, r.items_per_s,
        r.bytes_per_s);
  }
  out += "\n  ]\n}\n";
  return obs::write_text_file_atomic(path, out);
}

std::string cell(const Result& r) {
  if (r.dnc) return "DNC";
  if (r.unsupported) return "n/a";
  return strprintf("%.2f", r.seconds * 1e3);
}

void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

void print_header(const std::string& title) {
  std::printf("\n");
  print_rule(78);
  std::printf("%s\n", title.c_str());
  print_rule(78);
}

}  // namespace spdbench
