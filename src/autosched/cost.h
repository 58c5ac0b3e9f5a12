// Candidate pricing, in two tiers.
//
// The analytic fast path estimates seconds/iteration from the statement's
// stored non-zeros alone: per-piece work profiles (bucketing each sparse
// operand's non-zeros over the distributed dimension — the universe split's
// load imbalance; equal blocks for non-zero splits), bytes moved per
// iteration from placement diffs (reduction merges for overlapping output
// partitions), and task launch overhead. It exists to *rank* candidates so
// the search only pays for full simulation on the promising ones.
//
// When profile-guided calibration is enabled (SPDISTAL_CALIB), the analytic
// tier prices compute from *measured* leaf wall-per-flop/byte rates for the
// statement's kernel family instead of the static machine tables, scaled by
// the machine model's thread-speedup ratio. The calib.hits / calib.misses
// metric pair counts how often learned rates were available; with
// obs::set_calibration(false) the static path is bit-identical to a build
// that never saw a calibration file.
//
// The simulation tier is ground truth: the candidate is compiled and
// instantiated against a scratch rt::Runtime on proxy tensors (exact clones,
// downsampled above Options::max_sim_nnz) and priced by SimReport::sim_time
// over warm steady-state iterations — the same protocol the benchmark
// harnesses use.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "autosched/options.h"
#include "autosched/recipe.h"
#include "obs/calibrate.h"
#include "runtime/machine.h"

namespace spdistal::autosched {

// Throughput multiplier of the register-tiled blocked leaves over scalar
// CSR traversal: the unrolled R x C FMA tiles keep the (4-wide double) FMA
// units fed where the scalar gather-dot cannot.
inline constexpr double kBlockedVecGain = 4.0;

// Rescales a CSR work profile (flops and bytes per true non-zero) to a
// blocked operand with `lanes` (R*C) value lanes per block and `pad` stored
// lanes per true non-zero: `pad` lanes of vector-rate FMA, and one 4-byte
// block coordinate per `lanes` lanes in place of the per-entry coordinate.
// AnalyticModel and format_select's candidate pricing both call it, so the
// two agree on the blocked/CSR crossover density.
inline void rescale_for_blocks(double pad, double lanes, double& fpn,
                               double& bpn) {
  fpn = fpn * pad / kBlockedVecGain;
  bpn = std::max(bpn - 12.0, 0.0) + pad * (8.0 + 4.0 / lanes);
}

// Analytic estimator for one (statement, machine) pair. The per-coordinate
// non-zero histograms it buckets universe splits with depend only on
// (tensor, distributed dimension), so they are computed once and shared
// across every candidate of a search rather than re-scanning each operand's
// non-zeros per candidate.
class AnalyticModel {
 public:
  AnalyticModel(const Statement& stmt, const rt::Machine& machine);

  // Estimated seconds/iteration of `recipe`.
  double estimate(const Recipe& recipe);

 private:
  const std::vector<int64_t>& histogram(const std::string& tensor, int dim);

  const Statement& stmt_;
  const rt::Machine& machine_;
  double fpn_ = 2.0;   // flops per stored non-zero of the kernel class
  double bpn_ = 20.0;  // streamed bytes per stored non-zero
  // Measured wall-time rates for this statement's kernel family, resolved
  // once per model from the calibration store (empty when calibration is
  // off or nothing relevant has been learned yet).
  std::optional<obs::CalibRates> learned_;
  std::map<std::string, std::vector<int64_t>> hists_;  // "name:dim" keyed
};

// One-shot convenience wrapper around AnalyticModel.
double analytic_estimate(const Statement& stmt, const Recipe& recipe,
                         const rt::Machine& machine);

// Clones every binding of `stmt` (sharing nothing), downsampling sparse
// operands above options.max_sim_nnz. The returned statement is safe to
// instantiate and run without touching the user's tensors.
Statement make_proxy(const Statement& stmt, const Options& options);

// Clones only the output binding of a proxy (fresh storage for a candidate
// simulation to zero/assemble); input bindings are shared handles, read-only
// during simulation — so concurrent candidates reuse one downsampled proxy
// instead of re-running make_proxy's convert/sample/pack per candidate.
Statement clone_proxy_output(const Statement& proxy);

// Simulated seconds/iteration of `schedule` applied to `proxy` (built once
// via make_proxy and reused across candidates). Throws OutOfMemoryError /
// SpdError when the candidate cannot be instantiated; callers treat that as
// an infinite cost.
double simulate_candidate(Statement& proxy, const sched::Schedule& schedule,
                          const rt::Machine& machine);

}  // namespace spdistal::autosched
