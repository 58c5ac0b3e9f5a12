// Shared pieces of the benchmark: the in-memory span recorder that times
// calls into the library's public layers from the benchmark's own code,
// sample statistics, and the per-run outcome each workload returns.
//
// Span names are "<layer>.<call>" for the library layers (format, autosched,
// compiler, runtime, exec, kernels), "host.<what>" for work the benchmark
// itself does inside an op, and "setup" / "op" for the roots. All spans are
// opened and closed on the main thread, so parents nest strictly.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "spdistal/spdistal.h"

namespace bench {

using spdistal::Coord;

// Milliseconds since the first call, on the steady clock.
double now_ms();

struct SpanRec {
  std::string name;
  int64_t op = -1;   // id shared by every span of one op (-1: none)
  int parent = -1;   // index into the recorder's spans (-1: root)
  double start_ms = 0;
  double end_ms = 0;
  double dur() const { return end_ms - start_ms; }
};

class Tracer {
 public:
  static Tracer& get();

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  // The op id stamped on spans opened from now on.
  void set_op(int64_t op) { op_ = op; }

  int open(const char* name);
  void close(int index);

  // Counts recorded at the same boundaries as the spans (while tracing).
  void count(const std::string& name, double v) {
    if (on_) counts_[name] += v;
  }
  double counted(const std::string& name) const;

  // Durations of spans called `name` whose outermost ancestor is called
  // `root` (any root when empty).
  std::vector<double> durations(const std::string& name,
                                const std::string& root = "") const;
  // Self time (duration minus the time covered by child spans) summed per
  // layer, the text before the first '.' of the span name.
  std::map<std::string, double> self_ms_by_layer() const;
  // Chrome trace-event JSON (loadable in Perfetto).
  bool write_json(const std::string& path) const;

 private:
  bool on_ = false;
  int64_t op_ = -1;
  std::vector<SpanRec> spans_;
  std::vector<int> stack_;
  std::map<std::string, double> counts_;
};

// Records one span while tracing is on; free when it is off.
class Span {
 public:
  explicit Span(const char* name)
      : index_(Tracer::get().on() ? Tracer::get().open(name) : -1) {}
  ~Span() {
    if (index_ >= 0) Tracer::get().close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

// Tensor::from_coo inside a "format.pack" span, counting the packed
// non-zeros. The list is taken by value, so the caller's copy is made before
// the span opens.
void pack(spdistal::Tensor& t, spdistal::fmt::Coo coo);

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

// Peak resident set of this process, MB.
double peak_rss_mb();

// splitmix64: the benchmark's own seeded generator for dense operands and
// request streams (independent of the library's generators).
struct SplitMix {
  uint64_t state;
  uint64_t next();
  double uniform(double lo, double hi);  // [lo, hi)
  uint64_t below(uint64_t n);            // [0, n)
};

// Simulated cost of a fixed window of ops: the paper's metric. Compared bit
// for bit between the untraced and traced phases of a traced run.
struct SimCounts {
  double ms_per_op = 0;
  double tasks_per_op = 0;
  double messages_per_op = 0;
  double inter_node_bytes_per_op = 0;
  bool operator==(const SimCounts& o) const {
    return ms_per_op == o.ms_per_op && tasks_per_op == o.tasks_per_op &&
           messages_per_op == o.messages_per_op &&
           inter_node_bytes_per_op == o.inter_node_bytes_per_op;
  }
};
SimCounts sim_counts(const spdistal::rt::SimReport& window, int ops);

// Share of launches whose analysis came from the runtime's LaunchPlan memo.
double plan_hit_frac(const spdistal::rt::SimReport& report);

struct Phase {
  bool traced = false;
  double seconds = 10;
};

// Ops every run makes at least, so ten samples lie beyond p90.
constexpr int64_t kMinOps = 100;

// Timed setups per run (pagerank, gnn_layer): one before the ops, the rest
// spread evenly over the run's time, so their median sees the same host
// conditions as the ops do.
constexpr int kSetups = 16;

// True while an op loop should go on: until `seconds` have passed and at
// least kMinOps ops ran, but never past three times `seconds`.
bool more_ops(int64_t done, double start_ms, const Phase& phase);

struct Outcome {
  int64_t attempted = 0;  // ops attempted (setup first ops included)
  int64_t failed = 0;     // wrong output, threw, or did not complete
  std::vector<double> setup_s;
  std::vector<double> op_ms;
  SimCounts sim;
  // Peak resident set once a fixed amount of work is done (one setup and
  // the kSimWindow ops; compile_mix: its first passes), so the figure does
  // not grow with the number of ops a run fits.
  double peak_rss_mb = 0;
  // Counters read from the library (SimReport, PlanCache) and request-mix
  // figures, keyed by per-layer metric name.
  std::map<std::string, double> counters;
  // Human-readable notes printed with the result.
  std::vector<std::string> notes;
};

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  int contexts = 1;  // exec contexts a workload may use (<= nproc)
};

// Relative-and-absolute tolerance used by every output check.
inline bool close_enough(double got, double want) {
  const double d = got > want ? got - want : want - got;
  return d <= 1e-9 * (1.0 + (want < 0 ? -want : want));
}

// The simulated 8-node CPU machine of examples/graph_analytics.cpp.
spdistal::rt::Machine bench_machine();

// The steady-state op loop pagerank and gnn_layer share. Runs `op` as the
// timed root span until the phase ends and checks each result with
// `correct`. Every op must also add exactly the simulated tasks and
// messages of the first op, so an op whose launches were skipped fails even
// when its outputs already hold the right values. When tracing, each op is
// followed by `probe`, the direct-leaf call, which returns false when the
// leaves disagree with the reference. Between ops, `set_up` runs the
// remaining kSetups - 1 timed setups of fresh instances. The first
// kSimWindow ops give out.sim and, before any further setup, the peak RSS.
constexpr int kSimWindow = 4;
void run_ops(Outcome& out, const Phase& phase, spdistal::rt::Runtime& runtime,
             const std::function<void()>& op,
             const std::function<bool()>& correct,
             const std::function<bool()>& probe,
             const std::function<void()>& set_up);

Outcome run_pagerank(const Config& cfg, const Phase& phase);
Outcome run_gnn_layer(const Config& cfg, const Phase& phase);
Outcome run_compile_mix(const Config& cfg, const Phase& phase);

}  // namespace bench
