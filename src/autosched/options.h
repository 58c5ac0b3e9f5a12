// Auto-scheduler knobs. Defaults favor search quality over search time: the
// candidate space per statement is small (a dozen or so recipes), so the
// default simulates most of it and relies on the analytic fast path only to
// order the work and to cut obviously-bad plans on large candidate sets.
#pragma once

#include <cstdint>

namespace spdistal::autosched {

struct Options {
  // Candidates fully simulated after analytic ranking (<= 0 simulates all).
  int sim_top_k = 8;
  // Sparse operands above this non-zero count are downsampled to a proxy of
  // roughly this size before candidate simulation.
  int64_t max_sim_nnz = 1 << 15;
  // Consult / populate the global PlanCache.
  bool use_cache = true;
};

}  // namespace spdistal::autosched
