#include "autosched/cache.h"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "autosched/plan_store.h"
#include "common/str_util.h"
#include "obs/metrics.h"

namespace spdistal::autosched {

using rt::Coord;
using tin::IndexVar;

namespace {

// Prints an expression with index variables renamed v0, v1, ... by
// first-appearance order in the statement, so the key is independent of the
// concrete IndexVar objects (and their user-chosen names).
void canonical_expr(const tin::Expr& e,
                    const std::map<uint32_t, std::string>& names,
                    std::ostringstream& os) {
  switch (e->kind) {
    case tin::ExprKind::Access: {
      os << e->tensor << "(";
      for (size_t k = 0; k < e->vars.size(); ++k) {
        if (k > 0) os << ",";
        os << names.at(e->vars[k].id());
      }
      os << ")";
      return;
    }
    case tin::ExprKind::Literal:
      os << e->value;
      return;
    case tin::ExprKind::Mul:
    case tin::ExprKind::Add: {
      const char* op = e->kind == tin::ExprKind::Mul ? "*" : "+";
      os << "(";
      for (size_t k = 0; k < e->operands.size(); ++k) {
        if (k > 0) os << op;
        canonical_expr(e->operands[k], names, os);
      }
      os << ")";
      return;
    }
  }
}

// Per-tensor sparsity fingerprint. The output is fingerprinted structurally
// (dims only): its non-zero pattern is derived from the inputs (assembly may
// materialize it between compiles of the same computation, and that must not
// turn cache hits into misses). Dense and unpacked tensors likewise carry no
// pattern. Packed sparse inputs are sketched here, once per key.
data::SparsityFingerprint tensor_fingerprint(const std::string& name,
                                             const Tensor& t,
                                             const std::string& output) {
  if (name == output || t.format().all_dense() || !t.has_storage()) {
    return data::dense_fingerprint(t.dims());
  }
  return data::fingerprint(t.storage());
}

}  // namespace

PlanKey plan_key(const Statement& stmt, const rt::Machine& machine) {
  PlanKey key;
  std::ostringstream os;

  // --- expression, variables canonicalized ------------------------------------
  std::map<uint32_t, std::string> names;
  for (const auto& v : tin::statement_vars(stmt.assignment)) {
    names.emplace(v.id(), strprintf("v%zu", names.size()));
  }
  os << stmt.assignment.lhs.tensor << "(";
  for (size_t k = 0; k < stmt.assignment.lhs.vars.size(); ++k) {
    if (k > 0) os << ",";
    os << names.at(stmt.assignment.lhs.vars[k].id());
  }
  os << (stmt.assignment.accumulate ? ")+=" : ")=");
  canonical_expr(stmt.assignment.rhs, names, os);

  // --- format signature per tensor (dimensions and sparsity live in the
  // fingerprint half, so the fuzzy tier can match across them) ----------------
  for (const auto& [name, t] : stmt.bindings) {
    os << ";" << name << ":" << t.format().str() << ":ord["
       << join(t.format().ordering(), ",") << "]";
    key.fps.push_back(
        tensor_fingerprint(name, t, stmt.assignment.lhs.tensor));
  }

  // --- machine signature -------------------------------------------------------
  const rt::MachineConfig& c = machine.config();
  os << ";M:" << rt::proc_kind_name(machine.kind()) << ":grid["
     << join(machine.grid().dims(), ",") << "]"
     << strprintf(":n%d:c%d:s%d:g%d", c.nodes, c.cores_per_node,
                  c.sockets_per_node, c.gpus_per_node)
     << strprintf(":%g:%g:%g:%g:%g:%g:%g:%g", c.cpu_core_gflops,
                  c.cpu_mem_bw_gbs, c.gpu_gflops, c.gpu_mem_bw_gbs,
                  c.nvlink_bw_gbs, c.net_bw_gbs, c.task_overhead_s,
                  c.net_latency_s)
     << strprintf(":cap%g:t%g", c.capacity_scale, c.time_scale);

  key.structural = os.str();
  key.sig = data::fingerprints_str(key.fps);
  return key;
}

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

std::shared_ptr<const PlanCache::Map> PlanCache::snapshot() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return snap_;
}

template <typename Fn>
void PlanCache::mutate(Fn&& fn) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto next = std::make_shared<Map>(*snap_);
  fn(*next);
  snap_ = std::move(next);
}

std::optional<PlanCache::Hit> PlanCache::lookup(const PlanKey& key) {
  static obs::Counter& hit_metric =
      obs::Metrics::global().counter("plan_store.hits");
  static obs::Counter& fuzzy_metric =
      obs::Metrics::global().counter("plan_store.fuzzy_hits");
  static obs::Counter& miss_metric =
      obs::Metrics::global().counter("plan_store.misses");
  // May trigger the one-time SPDISTAL_PLAN_STORE load (which inserts into
  // this cache); resolve it before taking any lock.
  const bool store_ok = plan_store_enabled();
  const double fuzz = store_ok ? plan_fuzz() : 0.0;

  const auto snap = snapshot();

  // Tier 1: exact key.
  auto it = snap->find(key.exact());
  if (it != snap->end() && (store_ok || !it->second.from_store)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    hit_metric.add(1);
    it->second.used->store(tick(), std::memory_order_relaxed);
    return Hit{it->second.recipe, it->second.cost, false};
  }

  // Tier 2: nearest fingerprint within tolerance among entries that share
  // the structural half (a contiguous range of the ordered map).
  if (fuzz > 0) {
    const std::string prefix = key.structural + PlanKey::kSep;
    const CachedPlan* best = nullptr;
    double best_d = std::numeric_limits<double>::infinity();
    for (auto e = snap->lower_bound(prefix);
         e != snap->end() && e->first.compare(0, prefix.size(), prefix) == 0;
         ++e) {
      const double d = data::fingerprints_distance(key.fps, e->second.fps);
      if (d <= fuzz && d < best_d) {
        best = &e->second;
        best_d = d;
      }
    }
    if (best != nullptr) {
      fuzzy_hits_.fetch_add(1, std::memory_order_relaxed);
      fuzzy_metric.add(1);
      best->used->store(tick(), std::memory_order_relaxed);
      return Hit{best->recipe, best->cost, true};
    }
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  miss_metric.add(1);
  return std::nullopt;
}

int64_t PlanCache::tick() {
  return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
}

void PlanCache::insert(const PlanKey& key, const Recipe& recipe,
                       double cost) {
  CachedPlan plan{recipe, cost, key.fps, false};
  plan.used->store(tick(), std::memory_order_relaxed);
  mutate([&](Map& m) { m[key.exact()] = std::move(plan); });
}

size_t PlanCache::insert_stored(const std::vector<StoredPlan>& entries) {
  size_t merged = 0;
  int64_t max_stamp = 0;
  mutate([&](Map& m) {
    for (const StoredPlan& e : entries) {
      CachedPlan plan = e.plan;
      plan.from_store = true;
      max_stamp = std::max(
          max_stamp, plan.used->load(std::memory_order_relaxed));
      if (m.emplace(e.structural + PlanKey::kSep + e.sig, std::move(plan))
              .second) {
        ++merged;
      }
    }
  });
  // Seed the LRU clock past the store's history so fresh activity in this
  // process always stamps newer than anything merely loaded.
  int64_t cur = clock_.load(std::memory_order_relaxed);
  while (cur < max_stamp &&
         !clock_.compare_exchange_weak(cur, max_stamp,
                                       std::memory_order_relaxed)) {
  }
  if (merged > 0) {
    loaded_.fetch_add(static_cast<int64_t>(merged),
                      std::memory_order_relaxed);
    obs::Metrics::global().counter("plan_store.loaded").add(
        static_cast<int64_t>(merged));
  }
  return merged;
}

std::vector<StoredPlan> PlanCache::entries() const {
  const auto snap = snapshot();
  std::vector<StoredPlan> out;
  out.reserve(snap->size());
  for (const auto& [k, plan] : *snap) {
    const size_t sep = k.find(PlanKey::kSep);
    StoredPlan e;
    e.structural = k.substr(0, sep);
    e.sig = sep == std::string::npos ? std::string() : k.substr(sep + 1);
    e.plan = plan;
    out.push_back(std::move(e));
  }
  return out;
}

void PlanCache::clear() {
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    snap_ = std::make_shared<Map>();
  }
  hits_.store(0, std::memory_order_relaxed);
  fuzzy_hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  loaded_.store(0, std::memory_order_relaxed);
  clock_.store(0, std::memory_order_relaxed);
}

size_t PlanCache::size() const { return snapshot()->size(); }

int64_t PlanCache::hits() const {
  return hits_.load(std::memory_order_relaxed);
}

int64_t PlanCache::fuzzy_hits() const {
  return fuzzy_hits_.load(std::memory_order_relaxed);
}

int64_t PlanCache::misses() const {
  return misses_.load(std::memory_order_relaxed);
}

int64_t PlanCache::loaded() const {
  return loaded_.load(std::memory_order_relaxed);
}

}  // namespace spdistal::autosched
