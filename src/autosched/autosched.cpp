#include "autosched/autosched.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "autosched/cost.h"
#include "common/str_util.h"
#include "exec/executor.h"
#include "obs/obs.h"

namespace spdistal::autosched {

std::string Result::summary() const {
  if (from_cache) {
    return strprintf("plan cache %shit: %s (cost %.3g s/iter)",
                     fuzzy ? "fuzzy " : "", recipe.str().c_str(), best_cost);
  }
  return strprintf("searched %d candidates (%d simulated): %s (cost %.3g "
                   "s/iter)",
                   enumerated, simulated, recipe.str().c_str(), best_cost);
}

Result autoschedule_search(const Statement& stmt, const rt::Machine& machine,
                           const Options& options) {
  static obs::Counter& cache_hits =
      obs::Metrics::global().counter("autosched.cache_hits");
  static obs::Counter& cache_misses =
      obs::Metrics::global().counter("autosched.cache_misses");
  static obs::Counter& enumerated_metric =
      obs::Metrics::global().counter("autosched.enumerated");
  static obs::Counter& simulated_metric =
      obs::Metrics::global().counter("autosched.simulated");
  Result result;

  const PlanKey key = plan_key(stmt, machine);
  if (options.use_cache) {
    if (auto cached = PlanCache::global().lookup(key)) {
      try {
        result.schedule = materialize(cached->recipe, stmt);
        result.recipe = cached->recipe;
        result.from_cache = true;
        result.fuzzy = cached->fuzzy;
        // A fuzzy hit's stored cost was simulated for a *sibling* shape;
        // re-price the reused recipe analytically against this statement's
        // actual tensors so Result::best_cost and the [plan] bench lines
        // report this data's cost, not the neighbor's.
        result.best_cost = cached->fuzzy
                               ? AnalyticModel(stmt, machine)
                                     .estimate(cached->recipe)
                               : cached->cost;
        cache_hits.add(1);
        return result;
      } catch (const ScheduleError&) {
        // A fuzzy-matched recipe is priced for a sibling shape and may not
        // fit this statement (e.g. its split tensor has too few levels
        // here); fall through to a real search.
      }
    }
  }
  cache_misses.add(1);
  // Scoped below the cache check on purpose: a warm process serves every
  // compile from the store and its trace carries zero search/enumerate
  // spans.
  OBS_SPAN("autosched", "search");

  std::vector<Candidate> candidates;
  {
    OBS_SPAN("autosched", "enumerate");
    candidates = enumerate_candidates(stmt, machine);
  }
  SPD_CHECK(!candidates.empty(), ScheduleError,
            "auto-scheduler found no legal schedule for " << stmt.str());
  result.enumerated = static_cast<int>(candidates.size());
  enumerated_metric.add(result.enumerated);

  // Rank by the analytic fast path; simulate the most promising prefix.
  OBS_SPAN("autosched", "rank+proxy-sim");
  AnalyticModel model(stmt, machine);
  {
    OBS_SPAN("autosched", "analytic_rank");
    for (auto& c : candidates) {
      c.est_time = model.estimate(c.recipe);
    }
  }
  std::vector<size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return candidates[a].est_time < candidates[b].est_time;
  });
  const size_t top_k = options.sim_top_k <= 0
                           ? candidates.size()
                           : std::min<size_t>(
                                 static_cast<size_t>(options.sim_top_k),
                                 candidates.size());

  // Proxy simulations fan out across the worker pool. The downsampled
  // proxy is built once; each candidate shares its input tensors (read-only
  // during simulation) and gets a private output clone, so concurrent
  // candidates never touch the same mutable storage and the search result
  // is independent of the pool size. Each simulation runs its own Runtime
  // over the shared pool, helping execute while it waits (no nested-pool
  // deadlock).
  const Statement base_proxy = make_proxy(stmt, options);
  std::vector<Statement> proxies;
  proxies.reserve(top_k);
  for (size_t k = 0; k < top_k; ++k) {
    proxies.push_back(clone_proxy_output(base_proxy));
  }
  {
    exec::Executor fan(exec::WorkerPool::shared());
    for (size_t k = 0; k < top_k; ++k) {
      Candidate& c = candidates[order[k]];
      fan.submit("simulate " + c.recipe.str(), [&c, &proxies, &machine, k] {
        try {
          c.sim_time = simulate_candidate(proxies[k], c.schedule, machine);
          c.simulated = true;
        } catch (const SpdError&) {
          // Cannot be instantiated on this machine (e.g. simulated OOM):
          // infinite cost.
          c.sim_time = std::numeric_limits<double>::infinity();
        }
      });
    }
    fan.flush();
  }
  for (size_t k = 0; k < top_k; ++k) {
    if (candidates[order[k]].simulated) ++result.simulated;
  }
  simulated_metric.add(result.simulated);

  // Winner: lowest simulated makespan; analytic estimate and enumeration
  // order break ties deterministically. Candidates that survived legality
  // but failed every simulation fall back to the analytic ranking.
  const Candidate* best = nullptr;
  for (size_t idx : order) {
    const Candidate& c = candidates[idx];
    if (!c.simulated) continue;
    if (best == nullptr || c.sim_time < best->sim_time) best = &c;
  }
  if (best == nullptr) best = &candidates[order[0]];

  result.recipe = best->recipe;
  result.schedule = best->schedule;
  result.best_cost = best->simulated ? best->sim_time : best->est_time;
  if (options.use_cache) {
    PlanCache::global().insert(key, result.recipe, result.best_cost);
  }
  return result;
}

sched::Schedule autoschedule(const Statement& stmt, const rt::Machine& machine,
                             const Options& options) {
  return autoschedule_search(stmt, machine, options).schedule;
}

}  // namespace spdistal::autosched

namespace spdistal {

// Defined here rather than in tensor.cpp so the tensor module does not
// depend on the search machinery above it.
sched::Schedule& Tensor::autoschedule(const rt::Machine& machine) {
  schedule() = autosched::autoschedule(definition(), machine);
  return schedule();
}

}  // namespace spdistal
