// gnn_layer: one graph-attention-style layer per op. An SDDMM computes edge
// scores S = G o (H H^T) as a sparse output with G's pattern, and an SpMM
// aggregates Y = S H. Both are row-distributed with matched TDN placements
// and run on two exec contexts; the host rewrites nothing between ops, so
// writes are disjoint, there is no reduction fold, and the only inter-launch
// dependence is the SpMM's read of S. Most wall time sits in the leaves.
#include <memory>
#include <optional>
#include <unordered_map>

#include "harness.h"
#include "kernels/leaf_kernels.h"

namespace bench {
namespace {

using namespace spdistal;

constexpr Coord kNodes = 20000;
constexpr int64_t kEdges = 600000;
constexpr double kZipf = 1.2;
constexpr Coord kFeatures = 32;

// Node features, row-major kNodes x kFeatures, from the benchmark's seed.
std::vector<double> features(uint64_t seed) {
  SplitMix rng{seed ^ 0x6E6E5F6C61796572ull};
  std::vector<double> h(static_cast<size_t>(kNodes * kFeatures));
  for (double& x : h) x = rng.uniform(-1.0, 1.0);
  return h;
}

// Independent references from the COO list: the edge score per stored
// coordinate (duplicates summed, as packing combines them) and Y.
struct Reference {
  std::unordered_map<int64_t, double> score;  // key i * kNodes + j
  std::vector<double> y;

  Reference(const fmt::Coo& g, const std::vector<double>& h)
      : y(static_cast<size_t>(kNodes * kFeatures), 0.0) {
    for (size_t e = 0; e < g.vals.size(); ++e) {
      const Coord i = g.coords[e][0], j = g.coords[e][1];
      const double* hi = &h[static_cast<size_t>(i * kFeatures)];
      const double* hj = &h[static_cast<size_t>(j * kFeatures)];
      double dot = 0;
      for (Coord k = 0; k < kFeatures; ++k) dot += hi[k] * hj[k];
      const double s = g.vals[e] * dot;
      score[i * kNodes + j] += s;
      double* yi = &y[static_cast<size_t>(i * kFeatures)];
      for (Coord l = 0; l < kFeatures; ++l) yi[l] += s * hj[l];
    }
  }

  // The reference scores in S's storage order, or empty when S's stored
  // coordinates are not exactly G's. Checked once per assembled pattern;
  // per-op checks then compare values position by position.
  std::vector<double> in_storage_order(const Tensor& S) const {
    std::vector<double> want;
    bool ok = S.storage().nnz() == static_cast<int64_t>(score.size());
    S.storage().for_each([&](const auto& c, double) {
      const auto it = score.find(c[0] * kNodes + c[1]);
      ok = ok && it != score.end();
      if (ok) want.push_back(it->second);
    });
    if (!ok) want.clear();
    return want;
  }

  bool matches(const Tensor& S, const std::vector<double>& s_want,
               const Tensor& Y) const {
    const auto& s_got = S.storage().vals()->data();
    const auto& y_got = Y.storage().vals()->data();
    if (s_want.empty() || s_got.size() != s_want.size()) return false;
    for (size_t k = 0; k < s_got.size(); ++k) {
      if (!close_enough(s_got[k], s_want[k])) return false;
    }
    for (size_t k = 0; k < y.size(); ++k) {
      if (!close_enough(y_got[k], y[k])) return false;
    }
    return true;
  }
};

struct Layer {
  Tensor G, H, Ht, S, Y;
  std::optional<comp::CompiledKernel> sddmm_kernel, spmm_kernel;
  std::shared_ptr<rt::Runtime> runtime;
  std::unique_ptr<comp::Instance> sddmm, spmm;  // declared last: drain first

  // Pack -> compile -> instantiate (both launches) -> first op.
  void setup(const fmt::Coo& g, const std::vector<double>& h,
             const rt::Machine& M, int contexts) {
    Span root("setup");
    IndexVar i("i"), j("j"), k("k"), l("l"), io("io"), ii("ii");
    const auto rows = [] { return tdn::parse_tdn("T(x, y) -> M(x)"); };
    G = Tensor("G", {kNodes, kNodes}, fmt::csr(), rows());
    H = Tensor("H", {kNodes, kFeatures}, fmt::dense_matrix(), rows());
    Ht = Tensor("Ht", {kFeatures, kNodes}, fmt::dense_matrix(),
                tdn::parse_tdn("T(x, y) -> M(q)"));
    S = Tensor("S", {kNodes, kNodes}, fmt::csr(), rows());
    Y = Tensor("Y", {kNodes, kFeatures}, fmt::dense_matrix(), rows());
    pack(G, g);
    H.init_dense([&h](const auto& x) {
      return h[static_cast<size_t>(x[0] * kFeatures + x[1])];
    });
    Ht.init_dense([&h](const auto& x) {
      return h[static_cast<size_t>(x[1] * kFeatures + x[0])];
    });
    Statement& score = (S(i, j) = G(i, j) * H(i, k) * Ht(k, j));
    S.schedule().divide(i, io, ii, M.num_procs()).distribute(io)
        .parallelize(ii, sched::ParallelUnit::CPUThread);
    Statement& aggregate = (Y(i, l) = S(i, j) * H(j, l));
    Y.schedule().divide(i, io, ii, M.num_procs()).distribute(io)
        .parallelize(ii, sched::ParallelUnit::CPUThread);
    runtime = std::make_shared<rt::Runtime>(M, contexts);
    {
      Span s("compiler.compile");
      sddmm_kernel.emplace(comp::CompiledKernel::compile(score, M));
    }
    {
      Span s("compiler.instantiate");
      sddmm = sddmm_kernel->instantiate(runtime);  // assembles S's pattern
    }
    {
      Span s("compiler.compile");
      spmm_kernel.emplace(comp::CompiledKernel::compile(aggregate, M));
    }
    {
      Span s("compiler.instantiate");
      spmm = spmm_kernel->instantiate(runtime);
    }
    Span first("runtime.first_op");
    launch();
  }

  void launch() {
    exec::Future scored, aggregated;
    {
      Span s("runtime.enqueue");
      scored = sddmm->run_async(1);
      aggregated = spmm->run_async(1);
    }
    Span s("exec.drain");
    scored.wait();
    aggregated.wait();
  }
};

}  // namespace

Outcome run_gnn_layer(const Config& cfg, const Phase& phase) {
  Outcome out;
  const rt::Machine M = bench_machine();
  const fmt::Coo g = data::powerlaw_matrix(kNodes, kNodes, kEdges, kZipf,
                                           cfg.seed);
  const std::vector<double> h = features(cfg.seed);
  const Reference ref(g, h);
  out.notes.push_back("gnn_layer: " + std::to_string(kNodes) + " nodes, " +
                      std::to_string(kEdges) + " edges drawn, " +
                      std::to_string(g.nnz()) + " distinct, " +
                      std::to_string(kFeatures) + " features, csr rows, " +
                      std::to_string(cfg.contexts) + " exec contexts");
  Tracer& tracer = Tracer::get();

  // One timed setup of a fresh instance, checked against the reference.
  const auto set_up = [&] {
    auto layer = std::make_unique<Layer>();
    tracer.set_op(-1);
    const double t0 = now_ms();
    layer->setup(g, h, M, cfg.contexts);
    out.setup_s.push_back((now_ms() - t0) / 1e3);
    ++out.attempted;
    if (!ref.matches(layer->S, ref.in_storage_order(layer->S), layer->Y)) {
      ++out.failed;
    }
    return layer;
  };
  const std::unique_ptr<Layer> layer = set_up();
  const std::vector<double> s_want = ref.in_storage_order(layer->S);
  out.notes.push_back("compiled leaves: " +
                      layer->sddmm_kernel->leaf_kernel_name() + ", " +
                      layer->spmm_kernel->leaf_kernel_name());

  // The direct leaves on the same operands, chained through private
  // outputs: S_leaf packed with G's pattern, then Y_leaf = S_leaf H.
  Tensor S_leaf("S_leaf", {kNodes, kNodes}, fmt::csr());
  S_leaf.from_coo(g);
  Tensor Y_leaf("Y_leaf", {kNodes, kFeatures}, fmt::dense_matrix());
  Y_leaf.init_dense([](const auto&) { return 0.0; });
  const kern::Leaf score_leaf =
      kern::make_sddmm_row(S_leaf, layer->G, layer->H, layer->Ht);
  const kern::Leaf aggregate_leaf =
      kern::make_spmm_row(Y_leaf, S_leaf, layer->H);
  const std::vector<double> s_leaf_want = ref.in_storage_order(S_leaf);

  run_ops(
      out, phase, *layer->runtime, [&] { layer->launch(); },
      [&] { return ref.matches(layer->S, s_want, layer->Y); },
      [&] {
        S_leaf.zero();
        Y_leaf.zero();
        {
          Span s("kernels.leaf");
          score_leaf(kern::PieceBounds{});
          aggregate_leaf(kern::PieceBounds{});
        }
        return ref.matches(S_leaf, s_leaf_want, Y_leaf);
      },
      [&] { set_up(); });
  return out;
}

}  // namespace bench
