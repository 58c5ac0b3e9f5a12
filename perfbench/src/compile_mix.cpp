// compile_mix: a seeded stream of small requests, each served end to end:
// pack -> autoschedule_search -> compile -> instantiate -> run(1), checked
// against the dense oracle (ref::eval). Requests spread over six kernels and
// five formats. The stream mixes new requests, exact repeats (same
// structure and data) and near repeats (same structure, fresh data from the
// same generator), so the plan cache's exact and fuzzy tiers decide how
// much search a pass pays. Most wall time sits in setup, chiefly search.
//
// One pass replays the whole stream against an empty plan cache; passes
// repeat until the run's time is up, so every pass sees the same traffic.
//
// The class split is an assumption, not a measurement: the repository holds
// no request trace with near repeats, so each class gets one third of the
// stream. A plan-cache change that serves every near repeat can therefore
// save at most the search of a third of the requests here; its gain on
// other traffic scales with that traffic's near-repeat share.
#include <cstdio>
#include <map>
#include <memory>
#include <tuple>

#include "harness.h"

namespace bench {
namespace {

using namespace spdistal;

constexpr int kMinPasses = 3;
constexpr Coord kRank = 8;      // dense inner dimension (SpMM, SDDMM, MTTKRP)

enum class Kind { SpMV, SpMM, SDDMM, SpTTV, SpMTTKRP, SpAdd3 };
enum class Fmt { Csr, Dcsr, Coo, Csf, Bcsr };
enum Class { kNew, kExact, kNear, kClasses };
constexpr const char* kClassName[kClasses] = {"new", "exact_repeat",
                                              "near_repeat"};

struct Combo {
  Kind kind;
  Fmt format;
  const char* name;
};
constexpr Combo kCombos[] = {
    {Kind::SpMV, Fmt::Csr, "spmv/csr"},
    {Kind::SpMV, Fmt::Dcsr, "spmv/dcsr"},
    {Kind::SpMV, Fmt::Coo, "spmv/coo"},
    {Kind::SpMV, Fmt::Bcsr, "spmv/bcsr"},
    {Kind::SpMM, Fmt::Csr, "spmm/csr"},
    {Kind::SpMM, Fmt::Dcsr, "spmm/dcsr"},
    {Kind::SpMM, Fmt::Bcsr, "spmm/bcsr"},
    {Kind::SDDMM, Fmt::Csr, "sddmm/csr"},
    {Kind::SDDMM, Fmt::Dcsr, "sddmm/dcsr"},
    {Kind::SpTTV, Fmt::Csf, "spttv/csf"},
    {Kind::SpTTV, Fmt::Coo, "spttv/coo"},
    {Kind::SpMTTKRP, Fmt::Csf, "spmttkrp/csf"},
    {Kind::SpMTTKRP, Fmt::Coo, "spmttkrp/coo"},
    {Kind::SpAdd3, Fmt::Csr, "spadd3/csr"},
    {Kind::SpAdd3, Fmt::Dcsr, "spadd3/dcsr"},
};
constexpr int kCombosN = static_cast<int>(std::size(kCombos));
constexpr int kShapes = 2;

struct Request {
  int combo = 0;
  int shape = 0;
  uint64_t data_seed = 0;
  Class cls = kNew;
  auto key() const { return std::make_tuple(combo, shape, data_seed); }
};

// Every (kernel/format, shape) pair appears three times: as a new request,
// as an exact repeat and as a near repeat, each repeat after the pair's new
// request (the assumed equal split above). The seed picks the data and the
// order, never the mix.
constexpr int kStream = kCombosN * kShapes * kClasses;

std::vector<Request> make_stream(uint64_t seed) {
  SplitMix rng{seed ^ 0x636F6D70696C6521ull};
  // A seeded order of pair slots: each pair's first slot is its new
  // request, its later two are the repeats, in seeded order.
  std::vector<int> slots;
  for (int p = 0; p < kCombosN * kShapes; ++p) {
    slots.insert(slots.end(), kClasses, p);
  }
  for (size_t k = slots.size() - 1; k > 0; --k) {
    std::swap(slots[k], slots[rng.below(k + 1)]);
  }
  std::vector<int> seen(kCombosN * kShapes, 0);
  std::vector<uint64_t> data(kCombosN * kShapes, 0);
  std::vector<bool> exact_first(kCombosN * kShapes);
  for (size_t p = 0; p < exact_first.size(); ++p) {
    exact_first[p] = rng.below(2) == 0;
  }
  std::vector<Request> stream;
  for (const int p : slots) {
    Request q;
    q.combo = p / kShapes;
    q.shape = p % kShapes;
    const size_t pair = static_cast<size_t>(p);
    const int n = seen[pair]++;
    if (n == 0) {
      q.cls = kNew;
    } else {
      q.cls = (n == 1) == exact_first[pair] ? kExact : kNear;
    }
    // An exact repeat reuses the pair's latest data; the others draw anew.
    if (q.cls != kExact) data[pair] = rng.next();
    q.data_seed = data[pair];
    stream.push_back(q);
  }
  return stream;
}

fmt::Format matrix_format(Fmt f) {
  switch (f) {
    case Fmt::Dcsr: return fmt::dcsr();
    case Fmt::Coo: return fmt::coo(2);
    case Fmt::Bcsr: return fmt::bcsr(4, 4);
    default: return fmt::csr();
  }
}

fmt::Format tensor3_format(Fmt f) {
  return f == Fmt::Coo ? fmt::coo(3) : fmt::csf3();
}

// The generated inputs of one request: its sparse operands as COO lists
// (made before the request is timed) and its dimensions.
struct Inputs {
  std::vector<fmt::Coo> sparse;
  Coord n = 0;                   // matrix kernels: rows = cols
  Coord d0 = 0, d1 = 0, d2 = 0;  // 3-tensor kernels
};

Inputs generate(const Request& q) {
  const Combo& c = kCombos[q.combo];
  Inputs in;
  if (c.kind == Kind::SpTTV || c.kind == Kind::SpMTTKRP) {
    in.d0 = q.shape == 0 ? 40 : 60;
    in.d1 = q.shape == 0 ? 30 : 40;
    in.d2 = q.shape == 0 ? 24 : 30;
    in.sparse.push_back(data::powerlaw_3tensor(
        in.d0, in.d1, in.d2, q.shape == 0 ? 1200 : 2000, 1.2, q.data_seed));
    return in;
  }
  in.n = q.shape == 0 ? 160 : 240;
  if (c.format == Fmt::Bcsr) {
    in.sparse.push_back(data::block_structured_matrix(
        in.n, in.n, 4, 4, q.shape == 0 ? 3 : 4, q.data_seed));
  } else {
    in.sparse.push_back(
        data::powerlaw_matrix(in.n, in.n, 8 * in.n, 1.2, q.data_seed));
  }
  if (c.kind == Kind::SpAdd3) {
    in.sparse.push_back(data::shift_last_dim(in.sparse[0], 1));
    in.sparse.push_back(data::shift_last_dim(in.sparse[0], 2));
  }
  return in;
}

// Deterministic dense operand values.
double dense_value(const std::array<Coord, rt::kMaxDim>& x) {
  return 0.25 + 0.01 * static_cast<double>((x[0] + 3 * x[1]) % 17);
}

struct Built {
  Tensor out;
  Statement* stmt = nullptr;
};

// Builds the request's tensors and statement; packing is timed as the
// format layer.
Built build(const Request& q, const Inputs& in) {
  const Combo& c = kCombos[q.combo];
  IndexVar i("i"), j("j"), k("k"), l("l");
  Built b;
  switch (c.kind) {
    case Kind::SpMV: {
      Tensor a("a", {in.n}, fmt::dense_vector());
      Tensor B("B", {in.n, in.n}, matrix_format(c.format));
      Tensor x("c", {in.n}, fmt::dense_vector());
      pack(B, in.sparse[0]);
      x.init_dense(dense_value);
      b.stmt = &(a(i) = B(i, j) * x(j));
      b.out = a;
      break;
    }
    case Kind::SpMM: {
      Tensor A("A", {in.n, kRank}, fmt::dense_matrix());
      Tensor B("B", {in.n, in.n}, matrix_format(c.format));
      Tensor C("C", {in.n, kRank}, fmt::dense_matrix());
      pack(B, in.sparse[0]);
      C.init_dense(dense_value);
      b.stmt = &(A(i, j) = B(i, k) * C(k, j));
      b.out = A;
      break;
    }
    case Kind::SDDMM: {
      Tensor A("A", {in.n, in.n}, matrix_format(c.format));
      Tensor B("B", {in.n, in.n}, matrix_format(c.format));
      Tensor C("C", {in.n, kRank}, fmt::dense_matrix());
      Tensor D("D", {kRank, in.n}, fmt::dense_matrix());
      pack(B, in.sparse[0]);
      C.init_dense(dense_value);
      D.init_dense(dense_value);
      b.stmt = &(A(i, j) = B(i, j) * C(i, k) * D(k, j));
      b.out = A;
      break;
    }
    case Kind::SpTTV: {
      Tensor A("A", {in.d0, in.d1}, fmt::csr());
      Tensor B("B", {in.d0, in.d1, in.d2}, tensor3_format(c.format));
      Tensor x("c", {in.d2}, fmt::dense_vector());
      pack(B, in.sparse[0]);
      x.init_dense(dense_value);
      b.stmt = &(A(i, j) = B(i, j, k) * x(k));
      b.out = A;
      break;
    }
    case Kind::SpMTTKRP: {
      Tensor A("A", {in.d0, kRank}, fmt::dense_matrix());
      Tensor B("B", {in.d0, in.d1, in.d2}, tensor3_format(c.format));
      Tensor C("C", {in.d1, kRank}, fmt::dense_matrix());
      Tensor D("D", {in.d2, kRank}, fmt::dense_matrix());
      pack(B, in.sparse[0]);
      C.init_dense(dense_value);
      D.init_dense(dense_value);
      b.stmt = &(A(i, l) = B(i, j, k) * C(j, l) * D(k, l));
      b.out = A;
      break;
    }
    case Kind::SpAdd3: {
      const fmt::Format f = matrix_format(c.format);
      Tensor A("A", {in.n, in.n}, f);
      Tensor B("B", {in.n, in.n}, f);
      Tensor C("C", {in.n, in.n}, f);
      Tensor D("D", {in.n, in.n}, f);
      pack(B, in.sparse[0]);
      pack(C, in.sparse[1]);
      pack(D, in.sparse[2]);
      b.stmt = &(A(i, j) = B(i, j) + C(i, j) + D(i, j));
      b.out = A;
      break;
    }
  }
  return b;
}

enum Outcome3 { kExactHit, kFuzzyHit, kMiss, kOutcomes };

struct Served {
  double ms = 0;
  Outcome3 cache = kMiss;
  int enumerated = 0;
  int simulated = 0;
  rt::SimReport sim;
};

// One request, timed from the generated inputs to the finished run(1).
// The output stays in `b` for the caller to check; teardown is not part of
// the request's latency.
Served serve(const Request& q, const Inputs& in, const rt::Machine& M,
             Built& b) {
  Served s;
  std::optional<comp::CompiledKernel> kernel;
  std::shared_ptr<rt::Runtime> runtime;
  std::unique_ptr<comp::Instance> instance;  // declared last: drains first
  const double t0 = now_ms();
  {
    Span root("op");
    b = build(q, in);
    autosched::Result found;
    {
      Span span("autosched.search");
      found = autosched::autoschedule_search(*b.stmt, M);
    }
    s.cache = !found.from_cache ? kMiss : found.fuzzy ? kFuzzyHit : kExactHit;
    s.enumerated = found.enumerated;
    s.simulated = found.simulated;
    b.out.schedule() = found.schedule;
    {
      Span span("compiler.compile");
      kernel.emplace(comp::CompiledKernel::compile(*b.stmt, M));
    }
    runtime = std::make_shared<rt::Runtime>(M, /*exec_threads=*/1);
    {
      Span span("compiler.instantiate");
      instance = kernel->instantiate(runtime);
    }
    runtime->reset_timing();
    Span first("runtime.first_op");
    exec::Future done;
    {
      Span span("runtime.enqueue");
      done = instance->run_async(1);
    }
    Span span("exec.drain");
    done.wait();
  }
  s.ms = now_ms() - t0;
  s.sim = runtime->report();
  return s;
}

}  // namespace

Outcome run_compile_mix(const Config& cfg, const Phase& phase) {
  Outcome out;
  const rt::Machine M = bench_machine();
  const std::vector<Request> stream = make_stream(cfg.seed);
  std::map<decltype(Request{}.key()), ref::DenseTensor> oracle;
  Tracer& tracer = Tracer::get();

  int per_class[kClasses] = {};
  for (const Request& q : stream) ++per_class[q.cls];
  int outcome[kClasses][kOutcomes] = {};
  rt::SimReport first_pass;
  double hits = 0, lookups = 0, enumerated = 0, simulated = 0;
  rt::SimReport launches;  // LaunchPlan memo lookups over every request

  const double start = now_ms();
  int64_t served = 0;
  for (int pass = 0; pass < kMinPasses || more_ops(served, start, phase);
       ++pass) {
    autosched::PlanCache::global().clear();
    double pass_ms = 0;
    int pass_enumerated = 0, pass_simulated = 0;
    for (const Request& q : stream) {
      const Inputs in = generate(q);
      tracer.set_op(served++);
      ++out.attempted;
      Built b;
      try {
        const Served s = serve(q, in, M, b);
        out.op_ms.push_back(s.ms);
        pass_ms += s.ms;
        pass_enumerated += s.enumerated;
        pass_simulated += s.simulated;
        launches.plan_hits += s.sim.plan_hits;
        launches.plan_misses += s.sim.plan_misses;
        if (pass == 0) {
          ++outcome[q.cls][s.cache];
          first_pass.sim_time += s.sim.sim_time;
          first_pass.tasks += s.sim.tasks;
          first_pass.messages += s.sim.messages;
          first_pass.inter_node_bytes += s.sim.inter_node_bytes;
        }
        auto it = oracle.find(q.key());
        if (it == oracle.end()) {
          it = oracle.emplace(q.key(), ref::eval(*b.stmt)).first;
        }
        if (!(ref::max_abs_diff(b.out, it->second) <= 1e-9)) {
          ++out.failed;
          out.notes.push_back(std::string("wrong output: ") +
                              kCombos[q.combo].name);
        }
      } catch (const std::exception& e) {
        ++out.failed;
        out.notes.push_back(std::string("request threw (") +
                            kCombos[q.combo].name + "): " + e.what());
      }
    }
    out.setup_s.push_back(pass_ms / 1e3);
    if (pass + 1 == kMinPasses) out.peak_rss_mb = peak_rss_mb();
    const auto& cache = autosched::PlanCache::global();
    hits = static_cast<double>(cache.hits() + cache.fuzzy_hits());
    lookups = hits + static_cast<double>(cache.misses());
    enumerated = pass_enumerated;
    simulated = pass_simulated;
  }
  out.sim = sim_counts(first_pass, kStream);

  out.counters["runtime.plan_hit_frac"] = plan_hit_frac(launches);
  out.counters["autosched.enumerated"] = enumerated;
  out.counters["autosched.simulated"] = simulated;
  out.counters["autosched.plan_hit_frac"] = lookups > 0 ? hits / lookups : 0;
  out.counters["mix.near_repeat_hit_frac"] =
      per_class[kNear] > 0
          ? static_cast<double>(outcome[kNear][kExactHit] +
                                outcome[kNear][kFuzzyHit]) /
                per_class[kNear]
          : 0;

  std::string traffic = "compile_mix: " + std::to_string(kStream) +
                        " requests per pass over " +
                        std::to_string(kCombosN) +
                        " kernel/format pairs, class split assumed;";
  char share[16];
  for (int c = 0; c < kClasses; ++c) {
    std::snprintf(share, sizeof(share), "%.3f",
                  static_cast<double>(per_class[c]) / kStream);
    traffic += std::string(" ") + kClassName[c] + " " +
               std::to_string(per_class[c]) + " = " + share + " (exact hit " +
               std::to_string(outcome[c][kExactHit]) + ", fuzzy hit " +
               std::to_string(outcome[c][kFuzzyHit]) + ", miss " +
               std::to_string(outcome[c][kMiss]) + ")";
  }
  out.notes.push_back(traffic);
  return out;
}

}  // namespace bench
