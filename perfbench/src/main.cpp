// The repository benchmark: runs one seeded workload against the public
// API, checks every output against an independent reference, and prints
// each metric by name. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: value}}; run.py
// checks the names against BENCHMARK.json and adds the declared units.
//
//   perfbench --workload pagerank|gnn_layer|compile_mix --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload twice, S/2 seconds each: untraced, then with spans
// around every call into a library layer. Per-layer metrics come from the
// traced half; the simulated counts of both halves must agree bit for bit,
// and their op-time difference is reported as the tracing overhead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <thread>

#include "harness.h"

namespace {

using namespace bench;

// Library knobs read from the environment. Cleared so a stale plan store,
// calibration file, verifier or trace sink cannot change what is measured.
constexpr const char* kClearedEnv[] = {
    "SPDISTAL_PLAN_STORE", "SPDISTAL_PLAN_STORE_MAX", "SPDISTAL_PLAN_FUZZ",
    "SPDISTAL_PLAN_MEMO",  "SPDISTAL_CALIB",          "SPDISTAL_VERIFY",
    "SPDISTAL_VERIFY_SAMPLE", "SPDISTAL_TRACE",       "SPDISTAL_TRACE_RING",
    "SPDISTAL_TRACE_SAMPLE", "SPDISTAL_METRICS",      "SPDISTAL_OBS",
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "pagerank|gnn_layer|compile_mix --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Config parse(int argc, char** argv) {
  Config cfg;
  bool have_workload = false;
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    if (a + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++a];
    if (flag == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      cfg.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--trace-out") {
      cfg.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(cfg.seconds > 0)) usage("--seconds must be positive");
  return cfg;
}

Outcome run(const Config& cfg, const Phase& phase) {
  if (cfg.workload == "pagerank") return run_pagerank(cfg, phase);
  if (cfg.workload == "gnn_layer") return run_gnn_layer(cfg, phase);
  return run_compile_mix(cfg, phase);
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::map<std::string, double> end_to_end(const Outcome& o) {
  return {
      {"setup_s", median(o.setup_s)},
      {"op_ms_p50", quantile(o.op_ms, 0.5)},
      {"op_ms_p90", quantile(o.op_ms, 0.9)},
      {"ops_per_s", ratio(static_cast<double>(o.op_ms.size()),
                          sum(o.op_ms) / 1e3)},
      {"sim_ms_per_op", o.sim.ms_per_op},
      {"peak_rss_mb", o.peak_rss_mb > 0 ? o.peak_rss_mb : peak_rss_mb()},
  };
}

// Per-layer metrics of the traced phase `t`, against the untraced `u`.
// kernels.leaf_share divides the serial direct-leaf time by the context
// time of an op (op time x exec contexts): the share of the op's compute
// that the leaves alone need.
std::map<std::string, double> per_layer(const Outcome& u, const Outcome& t,
                                        int contexts) {
  const Tracer& tr = Tracer::get();
  const auto counter = [&t](const char* name) {
    const auto it = t.counters.find(name);
    return it == t.counters.end() ? 0.0 : it->second;
  };
  const std::vector<double> pack = tr.durations("format.pack");
  const std::vector<double> search = tr.durations("autosched.search");
  const std::vector<double> ops = tr.durations("op");
  const std::vector<double> drain = tr.durations("exec.drain", "op");
  const double op_p50 = quantile(t.op_ms, 0.5);
  const double leaf_p50 = median(tr.durations("kernels.leaf"));
  const double base = quantile(u.op_ms, 0.5);
  return {
      {"format.pack_ms", median(pack)},
      {"format.pack_nnz_per_s",
       ratio(tr.counted("format.nnz"), sum(pack) / 1e3)},
      {"autosched.search_ms", median(search)},
      {"autosched.search_share",
       ratio(sum(search), sum(ops) + sum(tr.durations("setup")))},
      {"autosched.enumerated", counter("autosched.enumerated")},
      {"autosched.simulated", counter("autosched.simulated")},
      {"autosched.plan_hit_frac", counter("autosched.plan_hit_frac")},
      {"compiler.compile_ms", median(tr.durations("compiler.compile"))},
      {"compiler.instantiate_ms",
       median(tr.durations("compiler.instantiate"))},
      {"runtime.first_op_ms", median(tr.durations("runtime.first_op"))},
      {"runtime.enqueue_ms_p50",
       median(tr.durations("runtime.enqueue", "op"))},
      {"runtime.plan_hit_frac", counter("runtime.plan_hit_frac")},
      {"exec.drain_ms_p50", median(drain)},
      {"exec.drain_share", ratio(sum(drain), sum(ops))},
      {"kernels.leaf_ms_p50", leaf_p50},
      {"kernels.leaf_share", ratio(leaf_p50, op_p50 * contexts)},
      {"sim.tasks_per_op", t.sim.tasks_per_op},
      {"sim.messages_per_op", t.sim.messages_per_op},
      {"sim.inter_node_bytes_per_op", t.sim.inter_node_bytes_per_op},
      {"mix.near_repeat_hit_frac", counter("mix.near_repeat_hit_frac")},
      {"trace.overhead_frac", ratio(op_p50 - base, base)},
  };
}

// "Where did wall time go": self time per layer over the traced phase.
std::string self_time_line() {
  const auto by_layer = Tracer::get().self_ms_by_layer();
  double total = 0;
  for (const auto& [layer, ms] : by_layer) total += ms;
  std::string line = "self time by layer (traced phase):";
  char buf[96];
  for (const auto& [layer, ms] : by_layer) {
    std::snprintf(buf, sizeof(buf), " %s %.1f ms (%.1f%%)", layer.c_str(), ms,
                  100 * ratio(ms, total));
    line += buf;
  }
  return line;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Config cfg = parse(argc, argv);
  if (cfg.workload != "pagerank" && cfg.workload != "gnn_layer" &&
      cfg.workload != "compile_mix") {
    usage(("unknown workload " + cfg.workload).c_str());
  }

  // Hermetic environment: clear every library knob, then pin the worker
  // pool the auto-scheduler's proxy simulations share.
  for (const char* name : kClearedEnv) unsetenv(name);
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int pool = std::min(2, nproc);
  setenv("SPDISTAL_EXEC_THREADS", std::to_string(pool).c_str(), 1);
  cfg.contexts = cfg.workload == "gnn_layer" ? std::min(2, nproc) : 1;
  std::printf(
      "# workload=%s seed=%llu seconds=%g trace=%d\n"
      "# env: nproc=%d runtime exec contexts=%d SPDISTAL_EXEC_THREADS=%d "
      "(shared pool: autosched proxies), plan store %s, plan fuzz %g, "
      "other SPDISTAL_* knobs cleared\n",
      cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.seconds, cfg.trace ? 1 : 0, nproc, cfg.contexts, pool,
      spdistal::autosched::plan_store_enabled() ? "on (no file)" : "off",
      spdistal::autosched::plan_fuzz());

  std::map<std::string, double> metrics;
  std::vector<const Outcome*> outcomes;
  Outcome untraced, traced;
  bool sim_identical = true;
  try {
    if (!cfg.trace) {
      untraced = run(cfg, Phase{false, cfg.seconds});
      outcomes = {&untraced};
      metrics = end_to_end(untraced);
    } else {
      untraced = run(cfg, Phase{false, cfg.seconds / 2});
      Tracer::get().set_on(true);
      traced = run(cfg, Phase{true, cfg.seconds / 2});
      Tracer::get().set_on(false);
      outcomes = {&untraced, &traced};
      sim_identical = untraced.sim == traced.sim;
      metrics = per_layer(untraced, traced, cfg.contexts);
      if (!cfg.trace_out.empty() &&
          !Tracer::get().write_json(cfg.trace_out)) {
        std::printf("# could not write spans to %s\n", cfg.trace_out.c_str());
      }
    }
  } catch (const std::exception& e) {
    std::printf("# setup failed: %s\n", e.what());
    std::printf(
        "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
        "\"metrics\": {}}\n");
    return 1;
  }

  int64_t attempted = 0, failed = 0;
  std::vector<std::string> notes;
  for (const Outcome* o : outcomes) {
    attempted += o->attempted;
    failed += o->failed;
    for (const std::string& note : o->notes) {
      if (std::find(notes.begin(), notes.end(), note) == notes.end()) {
        notes.push_back(note);
        std::printf("# %s\n", note.c_str());
      }
    }
  }
  const Outcome& main_phase = cfg.trace ? traced : untraced;
  std::printf("# setups: %zu, op samples: %zu, fail_frac: %.6f\n",
              main_phase.setup_s.size(), main_phase.op_ms.size(),
              ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  if (cfg.trace) {
    std::printf("# %s\n", self_time_line().c_str());
    std::printf("# simulated counts traced vs untraced: %s\n",
                sim_identical ? "identical" : "DIFFER");
  }

  // Values only: run.py names each metric's unit from BENCHMARK.json.
  bool finite = true;
  std::string json = "{";
  char buf[160];
  for (const auto& [name, v] : metrics) {
    finite = finite && std::isfinite(v);
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g",
                  json.size() > 1 ? ", " : "", name.c_str(),
                  std::isfinite(v) ? v : 0);
    json += buf;
    std::printf("# %-30s %.6g\n", name.c_str(), v);
  }
  json += "}";
  const bool correct = failed == 0 && sim_identical && finite;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed), json.c_str());
  return correct ? 0 : 1;
}
