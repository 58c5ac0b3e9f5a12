// The Runtime facade: region management, data placement, index task
// launches with region requirements, and inferred communication — the
// SpDISTAL-visible surface of the Legion-like substrate.
//
// Placement model: every region carries a set of *instances*, (memory,
// subset) pairs naming which parts of the region are valid where. Tensor
// distribution statements install an initial placement; at compute time each
// point task's read requirements are diffed against the placements and only
// the missing bytes travel (the runtime "infers what data to communicate and
// the source and destination of transfers", paper §II-C). Instances persist
// across launches, so steady-state iterations of a kernel — what the paper
// times — incur only the communication its algorithm fundamentally needs.
//
// Execution model: execute() is a *deferred* enqueue (Legion's non-blocking
// pipeline, §II-C). Point-task bodies run for real — concurrently, on the
// exec::WorkerPool, under dependence edges derived from region requirement
// privileges — while the simulated cost accounting (fetches, task costs,
// write-back, reduction combines) replays in exact submission order inside
// per-launch retirement tasks chained one after another. The SimReport is
// therefore bit-identical for any worker count, including the serial
// fallback (SPDISTAL_EXEC_THREADS=1). Overlapping REDUCE point tasks
// accumulate into private scratch buffers folded in color order at
// retirement, so numerical results are also bit-identical across worker
// counts. flush() (or Future::wait()) is the synchronization boundary;
// reading region data or the report before it is a race.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "exec/dep_graph.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "runtime/index_space.h"
#include "runtime/machine.h"
#include "runtime/memory.h"
#include "runtime/network.h"
#include "runtime/partition.h"
#include "runtime/region.h"
#include "runtime/simulator.h"

namespace spdistal::rt {

enum class Privilege { RO, WO, RW, REDUCE };

// One region requirement of an index launch. With a partition, point p
// accesses partition.subset(p); without, the whole region. The partition is
// borrowed and must stay alive for the duration of the execute() call (its
// subsets are captured at submission; it is not consulted afterwards).
struct RegionReq {
  std::shared_ptr<RegionBase> region;
  const Partition* partition = nullptr;  // borrowed; see above
  Privilege priv = Privilege::RO;
};

// Handed to each point task body.
class TaskContext {
 public:
  // `subsets` is the point's row of the launch plan: one subset per
  // requirement, captured at submission.
  TaskContext(int color, Proc proc, const std::vector<IndexSubset>& subsets)
      : color_(color), proc_(proc), subsets_(subsets) {}

  int color() const { return color_; }
  const Proc& proc() const { return proc_; }
  // The subset of requirement `req` this point accesses.
  const IndexSubset& subset(size_t req) const;

 private:
  int color_;
  Proc proc_;
  const std::vector<IndexSubset>& subsets_;
};

struct IndexLaunch {
  std::string name;
  int domain = 1;  // number of points (colors)
  // Shape of the launch domain as a grid, row-major (empty = 1-D {domain}).
  // When its rank matches the machine grid's, points map onto processors
  // axis-by-axis (with per-axis wrap for overdecomposition) so neighbors
  // along the innermost axis share nodes where the hardware allows.
  std::vector<int> domain_shape;
  std::vector<RegionReq> reqs;
  // Hardware threads the leaf exploits on a CPU (parallelize(_, CPUThread)
  // grants the node's cores; an unparallelized leaf gets 1). Ignored on GPU.
  int leaf_threads = 1;
  // Point task body; runs for real, returns measured work. May execute on
  // any worker thread; bodies only touch their requirements' regions.
  std::function<WorkEstimate(const TaskContext&)> body;
};

// A host-side access of run_host_task (whole-region granularity).
struct HostAccess {
  std::shared_ptr<RegionBase> region;
  Privilege priv = Privilege::RW;
};

// Aggregate simulation results, reported by benchmark harnesses.
struct SimReport {
  double sim_time = 0;           // makespan, seconds
  double inter_node_bytes = 0;
  double intra_node_bytes = 0;
  int64_t messages = 0;
  int64_t tasks = 0;
  double imbalance = 1.0;        // max/mean processor busy time
  double peak_sysmem = 0;
  double peak_fbmem = 0;
  // LaunchPlan memo effectiveness over the runtime's lifetime (not zeroed
  // by reset_timing — a cache hit-rate, not a clock). A hit means the
  // enqueue skipped subset capture and every O(P^2) overlap scan; an
  // eviction means the LRU cache was full and dropped its coldest plan.
  int64_t plan_hits = 0;
  int64_t plan_misses = 0;
  int64_t plan_evictions = 0;
  // Per-kernel breakdown keyed by launch name: leaf point tasks only
  // (reduction combines and host tasks are excluded). Accounted in the
  // serialized retirement replay, so bit-identical across worker counts.
  // Zeroed by reset_timing alongside clocks.
  obs::KernelTable kernels;

  // This report minus `base` for the additive fields (sim_time, traffic,
  // messages, tasks, plan counters, per-kernel rows present in both).
  // Level-like fields (imbalance, peaks) keep this report's values. Lets
  // callers isolate a phase: report().diff(before).
  SimReport diff(const SimReport& base) const;
};

class Runtime {
 public:
  // `exec_threads` < 0 draws execution contexts from the process-wide
  // worker pool ($SPDISTAL_EXEC_THREADS); an explicit count creates a
  // private pool (1 = strictly serial, no worker threads).
  explicit Runtime(Machine machine, int exec_threads = -1);
  ~Runtime();

  const Machine& machine() const { return machine_; }
  Simulator& sim() { return sim_; }
  Network& net() { return net_; }
  MemorySystem& mems() { return mems_; }
  exec::Executor& executor() { return *ex_; }

  template <typename T>
  RegionRef<T> create_region(IndexSpace space, std::string name) {
    return make_region<T>(space, std::move(name));
  }

  // --- Data distribution ----------------------------------------------------

  // Installs the placement named by a tensor distribution statement: color c
  // of `part` becomes valid in `mems[c]`. Replaces prior placement. Traffic
  // for the initial distribution is charged (it is a one-time setup cost;
  // benchmarks reset timing afterwards, matching the paper's warm trials).
  // Drains in-flight launches first.
  void set_placement(RegionBase& region, const Partition& part,
                     const std::vector<Mem>& mems);

  // Valid everywhere: one instance per node's system memory (ReplDense).
  void replicate_sys(RegionBase& region);

  // Whole region valid in a single memory (freshly loaded data).
  void place_whole(RegionBase& region, Mem mem);

  // Drops all instances (e.g. host rewrote the data out-of-band).
  void invalidate(RegionBase& region);

  // --- Execution -------------------------------------------------------------

  // Enqueues an index launch: point bodies run concurrently on the worker
  // pool under dependence edges derived from the requirements; the
  // simulated costs (communication inference, task pricing, write-back)
  // are accounted in exact submission order when the launch retires.
  // Returns a Future for the launch's retirement; errors (e.g. simulated
  // OutOfMemoryError) surface at the next wait()/flush().
  //
  // Steady-state fast path: the launch analysis — per-point subset capture,
  // the per-requirement O(P^2) overlap classification, privatization
  // decisions, intra-launch conflict edges, the reduction-combine replay
  // script, and scratch-buffer shapes — is memoized in an immutable
  // LaunchPlan keyed by the launch's region ids, partition uids, privileges
  // and domain shape. Re-executing the same launch (what Instance::run does
  // every iteration) walks the cached plan; repartitioning or swapping a
  // region's backing storage changes the key, so a fresh plan is built
  // automatically. Warm and cold paths are bit-identical by construction:
  // the plan stores the analysis *results*, never accounting state.
  exec::Future execute(const IndexLaunch& launch);

  // LaunchPlan memo control: disabling forces every execute() onto the
  // cold path (used by tests/benches to compare warm vs cold), clearing
  // explicitly invalidates all cached plans.
  void set_plan_memo(bool enabled) { plan_memo_ = enabled; }
  void invalidate_plans() {
    plan_cache_.clear();
    plan_lru_.clear();
  }

  // Verification mode (ISSUE 7). When on, every execute() runs the
  // dependence-race auditor over the (possibly cached) plan, leaf tasks
  // record touched bounds for the privilege checker, and read-only operands
  // are fingerprinted across the launch. Defaults to the process-wide
  // SPDISTAL_VERIFY setting at construction; enabling here also flips the
  // global accessor touch-logging switch (disabling leaves the global
  // switch alone — other runtimes may still be verifying).
  void set_verify(bool on);
  bool verify() const { return verify_; }

  // Fault injection for the verify fault-injection tests: corrupts the
  // most-recently-used cached plan in place. Returns false when there is
  // no cached plan (or no edge) to corrupt.
  enum class PlanFault {
    DropConflictEdge,  // delete one memoized happens-before edge (a race)
    AddSpuriousEdge,   // add an unjustified edge (lost parallelism)
  };
  bool inject_plan_fault(PlanFault fault);

  // Enqueues a host-side callback ordered against launches through
  // whole-region accesses (e.g. zeroing an output between iterations). No
  // simulated cost is charged.
  exec::Future run_host_task(std::string name,
                             std::vector<HostAccess> accesses,
                             std::function<void()> fn);

  // Drains every enqueued task; re-throws the first deferred error.
  void flush();

  // Bulk-synchronous barrier (used by MPI-style baselines; SpDISTAL's
  // Legion-like deferred execution never calls this between launches).
  void barrier();

  // Explicitly charges a data transfer (baselines with hand-rolled comm).
  // Drains in-flight launches first.
  void charge_transfer(const Mem& src, const Mem& dst, double bytes);
  void charge_broadcast(const Mem& src, const std::vector<int>& dst_nodes,
                        double bytes);

  // Zeroes clocks/traffic for steady-state measurement; placements persist.
  void reset_timing();

  // Drains in-flight launches, then reports.
  SimReport report() const;

  // Observability attachment. On by default: the simulator and network feed
  // the global trace recorder and the sim.*/net.*/plan.* metrics mirrors
  // (each individually gated on obs::enabled()). Scratch runtimes used for
  // proxy simulations (autosched cost model) must detach — they run
  // concurrently, and their events would break the simulated track's
  // bit-identity and pollute process metrics.
  void set_observability(bool on);
  bool observed() const { return observed_; }

  // Maps launch point `p` of a `domain`-point launch onto the machine grid.
  Proc proc_for_point(int p, int domain) const;
  // Grid-aware mapping honoring the launch's domain shape: point (x, y) of
  // a 2-D launch runs on grid processor (x mod gx, y mod gy) instead of a
  // flat modulo, keeping row-neighbors on the same node.
  Proc proc_for_point(int p, const IndexLaunch& launch) const;

 private:
  struct PlacementInfo {
    // Valid subsets per memory and bytes allocated there for this region.
    std::map<Mem, IndexSubset> valid;
    std::map<Mem, double> alloc_bytes;
    // Simulated time at which the instance in a memory becomes usable.
    std::map<Mem, double> ready;
  };

  // The memoized launch analysis (immutable once built; shared by every
  // execution that hits it).
  struct LaunchPlan;
  // Identity of a launch for plan lookup.
  struct PlanKey {
    int domain = 1;
    std::vector<int> domain_shape;
    // (region id, partition uid or 0, privilege) per requirement.
    std::vector<std::tuple<RegionId, uint64_t, int>> reqs;
    bool operator<(const PlanKey& o) const {
      return std::tie(domain, domain_shape, reqs) <
             std::tie(o.domain, o.domain_shape, o.reqs);
    }
  };
  // Everything one deferred launch needs after submission: the captured
  // launch (keeps regions + body alive), the plan, per-point work
  // measurements, and reduction scratch buffers.
  struct LaunchRecord;

  // Cold path: runs the full launch analysis.
  std::shared_ptr<const LaunchPlan> build_plan(const IndexLaunch& launch);

  // Replays the launch's simulated cost accounting (fetches, task pricing,
  // write-back, reduction combines) — called from retirement tasks, which
  // the retire chain serializes in submission order.
  void account_launch(LaunchRecord& rec);

  // Ensures `subset` of `region` is valid in `mem` by `ready_time`;
  // returns the time all data has arrived.
  double fetch(RegionBase& region, const IndexSubset& subset, const Mem& mem,
               double ready_time);

  // Whole-region instance bookkeeping (no flush; safe inside retirement
  // tasks).
  void install_whole(RegionBase& region, Mem mem);

  void drop_placement(RegionBase& region);
  PlacementInfo& placement(const RegionBase& region) {
    return placements_[region.id()];  // creates lazily for foreign regions
  }

  // LRU-ordered plan store: most-recently-used entries at the front, the
  // index map points into the list. Capacity-bounded with true LRU
  // eviction (only the coldest plan is dropped, never the whole cache).
  struct PlanEntry {
    PlanKey key;
    std::shared_ptr<const LaunchPlan> plan;
  };
  static constexpr size_t kDefaultPlanCapacity = 256;

  Machine machine_;
  Simulator sim_;
  Network net_;
  MemorySystem mems_;
  std::map<RegionId, PlacementInfo> placements_;
  std::list<PlanEntry> plan_lru_;
  std::map<PlanKey, std::list<PlanEntry>::iterator> plan_cache_;
  bool plan_memo_ = true;
  bool verify_ = false;
  int64_t plan_hits_ = 0;
  int64_t plan_misses_ = 0;
  int64_t plan_evictions_ = 0;
  bool observed_ = false;
  // Per-launch-name leaf-task stats (SimReport::kernels). Plain data:
  // updated only from the serialized retirement chain.
  obs::KernelTable kernel_rows_;
  std::shared_ptr<exec::WorkerPool> pool_;
  // Declared after all state the retirement tasks touch, so the destructor
  // drains in-flight tasks while that state is still alive. Mutable: const
  // observers (report) drain first.
  mutable std::unique_ptr<exec::Executor> ex_;
  std::unique_ptr<exec::DepTracker> tracker_;
  exec::TaskId last_retire_ = 0;
};

}  // namespace spdistal::rt
