// pagerank: the power iteration of examples/graph_analytics.cpp. A Zipf 1.3
// web graph, column-stochastic, CSR with the fused non-zero distribution
// (~g) and one exec context. Each op is one step: a host damping update of
// the rank vector, invalidate(rank), then the distributed SpMV. Because the
// rank vector is invalidated every step, every step re-fetches it through
// crd-preimage subsets and folds a REDUCE output, so nearly all wall time
// sits in the runtime's enqueue and retire layers.
#include <memory>
#include <optional>

#include "harness.h"
#include "kernels/leaf_kernels.h"

namespace bench {
namespace {

using namespace spdistal;

constexpr Coord kPages = 20000;
constexpr int64_t kLinks = 300000;
constexpr double kZipf = 1.3;
constexpr double kDamping = 0.85;

fmt::Coo web_graph(uint64_t seed) {
  fmt::Coo web = data::powerlaw_matrix(kPages, kPages, kLinks, kZipf, seed);
  std::vector<double> out_degree(static_cast<size_t>(kPages), 0.0);
  for (const auto& c : web.coords) out_degree[static_cast<size_t>(c[1])] += 1;
  for (size_t e = 0; e < web.vals.size(); ++e) {
    web.vals[e] = 1.0 / out_degree[static_cast<size_t>(web.coords[e][1])];
  }
  return web;
}

// Independent reference: y = A x over the COO list.
std::vector<double> coo_spmv(const fmt::Coo& a, const std::vector<double>& x) {
  std::vector<double> y(x.size(), 0.0);
  for (size_t e = 0; e < a.vals.size(); ++e) {
    y[static_cast<size_t>(a.coords[e][0])] +=
        a.vals[e] * x[static_cast<size_t>(a.coords[e][1])];
  }
  return y;
}

bool same_vector(const std::vector<double>& got,
                 const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (size_t k = 0; k < got.size(); ++k) {
    if (!close_enough(got[k], want[k])) return false;
  }
  return true;
}

struct Ranker {
  Tensor next, A, rank;
  Statement* stmt = nullptr;
  std::optional<comp::CompiledKernel> kernel;
  std::shared_ptr<rt::Runtime> runtime;
  std::unique_ptr<comp::Instance> instance;  // declared last: drains first

  // Pack -> compile -> instantiate -> first step.
  void setup(const fmt::Coo& web, const rt::Machine& M) {
    Span root("setup");
    IndexVar i("i"), j("j"), f("f"), fo("fo"), fi("fi");
    next = Tensor("next", {kPages}, fmt::dense_vector(),
                  tdn::parse_tdn("T(x) -> M(x)"));
    A = Tensor("A", {kPages, kPages}, fmt::csr(),
               tdn::parse_tdn("T(x, y) fuse(x, y -> g) -> M(~g)"));
    rank = Tensor("rank", {kPages}, fmt::dense_vector(),
                  tdn::parse_tdn("T(x) -> M(q)"));
    pack(A, web);
    rank.init_dense([](const auto&) { return 1.0 / kPages; });
    stmt = &(next(i) = A(i, j) * rank(j));
    next.schedule().fuse(i, j, f)
        .divide_pos(f, fo, fi, M.num_procs(), "A")
        .distribute(fo)
        .parallelize(fi, sched::ParallelUnit::CPUThread);
    runtime = std::make_shared<rt::Runtime>(M, /*exec_threads=*/1);
    {
      Span s("compiler.compile");
      kernel.emplace(comp::CompiledKernel::compile(*stmt, M));
    }
    {
      Span s("compiler.instantiate");
      instance = kernel->instantiate(runtime);
    }
    Span first("runtime.first_op");
    launch();
  }

  void launch() {
    exec::Future done;
    {
      Span s("runtime.enqueue");
      done = instance->run_async(1);
    }
    Span s("exec.drain");
    done.wait();
  }

  void step() {
    {
      Span s("host.update");
      auto& r = rank.storage().vals()->data();
      const auto& nx = next.storage().vals()->data();
      for (size_t k = 0; k < r.size(); ++k) {
        r[k] = (1.0 - kDamping) / kPages + kDamping * nx[k];
      }
    }
    {
      Span s("runtime.invalidate");
      runtime->invalidate(*rank.storage().vals());  // host rewrote the vector
    }
    launch();
  }

  bool correct(const fmt::Coo& web) const {
    return same_vector(next.storage().vals()->data(),
                       coo_spmv(web, rank.storage().vals()->data()));
  }
};

}  // namespace

Outcome run_pagerank(const Config& cfg, const Phase& phase) {
  Outcome out;
  const rt::Machine M = bench_machine();
  const fmt::Coo web = web_graph(cfg.seed);
  out.notes.push_back("pagerank: " + std::to_string(kPages) + " pages, " +
                      std::to_string(kLinks) + " links drawn, " +
                      std::to_string(web.nnz()) +
                      " distinct, Zipf 1.3, csr ~g, 1 exec context");
  Tracer& tracer = Tracer::get();

  // One timed setup of a fresh instance, checked against the reference.
  const auto set_up = [&] {
    auto ranker = std::make_unique<Ranker>();
    tracer.set_op(-1);
    const double t0 = now_ms();
    ranker->setup(web, M);
    out.setup_s.push_back((now_ms() - t0) / 1e3);
    ++out.attempted;
    if (!ranker->correct(web)) ++out.failed;
    return ranker;
  };
  const std::unique_ptr<Ranker> ranker = set_up();
  out.notes.push_back("compiled leaf: " + ranker->kernel->leaf_kernel_name());

  // The direct leaf on the same operands, into a private output.
  Tensor leaf_out("next_leaf", {kPages}, fmt::dense_vector());
  leaf_out.init_dense([](const auto&) { return 0.0; });
  const kern::Leaf leaf = kern::make_spmv_nz(leaf_out, ranker->A, ranker->rank);

  run_ops(
      out, phase, *ranker->runtime, [&] { ranker->step(); },
      [&] { return ranker->correct(web); },
      [&] {
        leaf_out.zero();
        {
          Span s("kernels.leaf");
          leaf(kern::PieceBounds{});
        }
        return same_vector(leaf_out.storage().vals()->data(),
                           coo_spmv(web, ranker->rank.storage().vals()->data()));
      },
      [&] { set_up(); });
  return out;
}

}  // namespace bench
