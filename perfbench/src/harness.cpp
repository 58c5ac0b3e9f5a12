#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace bench {

double now_ms() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::open(const char* name) {
  SpanRec s;
  s.name = name;
  s.op = op_;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ms = now_ms();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<size_t>(index)].end_ms = now_ms();
  stack_.pop_back();
}

double Tracer::counted(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0 : it->second;
}

std::vector<double> Tracer::durations(const std::string& name,
                                      const std::string& root) const {
  std::vector<double> out;
  for (const SpanRec& s : spans_) {
    if (s.name != name) continue;
    const SpanRec* top = &s;
    while (top->parent >= 0) top = &spans_[static_cast<size_t>(top->parent)];
    if (root.empty() || top->name == root) out.push_back(s.dur());
  }
  return out;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::vector<double> self(spans_.size());
  for (size_t k = 0; k < spans_.size(); ++k) self[k] = spans_[k].dur();
  for (const SpanRec& s : spans_) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.dur();
  }
  std::map<std::string, double> by_layer;
  for (size_t k = 0; k < spans_.size(); ++k) {
    const std::string& n = spans_[k].name;
    by_layer[n.substr(0, n.find('.'))] += self[k];
  }
  return by_layer;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\":[\n";
  char buf[256];
  for (size_t k = 0; k < spans_.size(); ++k) {
    const SpanRec& s = spans_[k];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld,"
                  "\"span\":%zu,\"parent\":%d}}\n",
                  k == 0 ? "" : ",", s.name.c_str(), s.start_ms * 1e3,
                  s.dur() * 1e3, static_cast<long long>(s.op), k, s.parent);
    f << buf;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

void pack(spdistal::Tensor& t, spdistal::fmt::Coo coo) {
  Tracer::get().count("format.nnz", static_cast<double>(coo.nnz()));
  Span s("format.pack");
  t.from_coo(std::move(coo));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

uint64_t SplitMix::next() {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SplitMix::uniform(double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
}

uint64_t SplitMix::below(uint64_t n) { return next() % n; }

bool more_ops(int64_t done, double start_ms, const Phase& phase) {
  const double elapsed = now_ms() - start_ms;
  if (elapsed >= 3 * phase.seconds * 1e3) return false;
  return elapsed < phase.seconds * 1e3 || done < kMinOps;
}

SimCounts sim_counts(const spdistal::rt::SimReport& window, int ops) {
  SimCounts c;
  c.ms_per_op = window.sim_time * 1e3 / ops;
  c.tasks_per_op = static_cast<double>(window.tasks) / ops;
  c.messages_per_op = static_cast<double>(window.messages) / ops;
  c.inter_node_bytes_per_op = window.inter_node_bytes / ops;
  return c;
}

double plan_hit_frac(const spdistal::rt::SimReport& report) {
  const int64_t lookups = report.plan_hits + report.plan_misses;
  return lookups > 0 ? static_cast<double>(report.plan_hits) /
                           static_cast<double>(lookups)
                     : 0;
}

void run_ops(Outcome& out, const Phase& phase, spdistal::rt::Runtime& runtime,
             const std::function<void()>& op,
             const std::function<bool()>& correct,
             const std::function<bool()>& probe,
             const std::function<void()>& set_up) {
  const spdistal::rt::SimReport before = runtime.report();
  spdistal::rt::SimReport last = before, first_op;
  const double start = now_ms();
  int setups = 1;  // the caller's setup of the live instance
  for (int64_t n = 0;; ++n) {
    if (n == kSimWindow) {
      out.sim = sim_counts(runtime.report().diff(before), kSimWindow);
      out.peak_rss_mb = peak_rss_mb();
    }
    if (n >= kSimWindow && !more_ops(n, start, phase)) break;
    if (n > kSimWindow && setups < kSetups &&
        now_ms() - start >= setups * phase.seconds * 1e3 / kSetups) {
      set_up();
      ++setups;
    }
    Tracer::get().set_op(n);
    ++out.attempted;
    try {
      const double t0 = now_ms();
      {
        Span root("op");
        op();
      }
      out.op_ms.push_back(now_ms() - t0);
      const spdistal::rt::SimReport now = runtime.report();
      const spdistal::rt::SimReport added = now.diff(last);
      last = now;
      if (n == 0) first_op = added;
      const bool launched = added.tasks > 0 &&
                            added.tasks == first_op.tasks &&
                            added.messages == first_op.messages;
      if (!launched) {
        ++out.failed;
        out.notes.push_back("an op's simulated tasks or messages differ "
                            "from the first op's");
      }
      if (!correct()) ++out.failed;
    } catch (const std::exception& e) {
      ++out.failed;
      out.notes.push_back(std::string("op threw: ") + e.what());
    }
    if (phase.traced && !probe()) {
      ++out.failed;
      out.notes.push_back("direct leaves disagree with the reference");
    }
  }
  for (; setups < kSetups; ++setups) set_up();
  out.counters["runtime.plan_hit_frac"] = plan_hit_frac(runtime.report());
}

spdistal::rt::Machine bench_machine() {
  using namespace spdistal;
  const int nodes = 8;
  rt::MachineConfig config;
  config.nodes = nodes;
  config.time_scale = 8192;
  config.capacity_scale = 8192;
  return rt::Machine(config, rt::Grid(nodes), rt::ProcKind::CPU);
}

}  // namespace bench
