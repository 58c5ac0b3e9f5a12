#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "common/str_util.h"
#include "obs/persist.h"

namespace spdistal::obs {

namespace {

// Thread-local host-track id; -1 until assigned by host_tid().
thread_local int tls_host_tid = -1;

// One trace-event JSON object. Timestamps are rendered with fixed precision
// so identical inputs always produce identical bytes (the simulated track's
// bit-identity contract rides on this).
std::string event_line(int pid, int tid, const char* cat,
                       const std::string& name, double ts_us, double dur_us,
                       const std::string& args_json) {
  std::string line = strprintf(
      "{\"name\": %s, \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
      "\"dur\": %.3f, \"pid\": %d, \"tid\": %d",
      json_string(name).c_str(), cat, ts_us, dur_us, pid, tid);
  if (!args_json.empty()) {
    line += ", \"args\": " + args_json;
  }
  line += "}";
  return line;
}

// A flow event (ph "s"/"t"/"f"). Flow ends carry binding point "e" so the
// arrow terminates at the enclosing slice's end.
std::string flow_line(int pid, int tid, char ph, uint64_t id, const char* cat,
                      const std::string& name, double ts_us) {
  return strprintf(
      "{\"name\": %s, \"cat\": \"%s\", \"ph\": \"%c\", \"id\": %llu, "
      "\"ts\": %.3f, \"pid\": %d, \"tid\": %d%s}",
      json_string(name).c_str(), cat, ph, static_cast<unsigned long long>(id),
      ts_us, pid, tid, ph == 'f' ? ", \"bp\": \"e\"" : "");
}

}  // namespace

double wall_us() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point start = clock::now();
  return std::chrono::duration<double, std::micro>(clock::now() - start)
      .count();
}

TraceRecorder& TraceRecorder::global() {
  // Leaked so instrumentation in static destructors stays safe; the atexit
  // hook below has already written any env-configured sink by then.
  static TraceRecorder* rec = new TraceRecorder();
  return *rec;
}

TraceRecorder::TraceRecorder() {
  wall_us();  // pin the wall-clock epoch
  if (const char* ring = std::getenv("SPDISTAL_TRACE_RING")) {
    const long n = std::atol(ring);
    if (n > 0) ring_.store(static_cast<size_t>(n), std::memory_order_relaxed);
  }
  if (const char* every = std::getenv("SPDISTAL_TRACE_SAMPLE")) {
    const long k = std::atol(every);
    if (k > 1) sample_every_.store(static_cast<uint64_t>(k),
                                   std::memory_order_relaxed);
  }
  if (const char* path = std::getenv("SPDISTAL_TRACE")) {
    if (enabled() && path[0] != '\0') {
      capturing_.store(true, std::memory_order_relaxed);
      static std::string out_path;  // read back by the atexit hook
      out_path = path;
      std::atexit([] {
        TraceRecorder& r = TraceRecorder::global();
        if (!r.write(out_path)) {
          std::fprintf(stderr, "spdistal: failed to write trace to %s\n",
                       out_path.c_str());
        }
      });
    }
  }
}

void TraceRecorder::start() {
  std::lock_guard<std::mutex> lk(mu_);
  sim_events_.clear();
  host_events_.clear();
  meas_events_.clear();
  sim_track_names_.clear();
  // Flow ids and the sampling sequence restart with the capture, so two
  // captures of the same program are comparable byte-for-byte on the
  // deterministic tracks.
  next_flow_id_.store(1, std::memory_order_relaxed);
  launch_seq_.store(0, std::memory_order_relaxed);
  capturing_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::push(Buffer& buf, Event e) {
  const size_t cap = ring_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  if (cap > 0) {
    while (buf.size() >= cap) {
      buf.pop_front();
      static Counter& dropped =
          Metrics::global().counter("obs.dropped_events");
      dropped.add(1);
    }
  }
  buf.push_back(std::move(e));
}

void TraceRecorder::sim_span(int tid, const char* cat, const std::string& name,
                             double t0_s, double t1_s,
                             const std::string& args_json) {
  if (!active()) return;
  // Virtual seconds -> trace microseconds.
  push(sim_events_, Event{event_line(kSimPid, tid, cat, name, t0_s * 1e6,
                                     (t1_s - t0_s) * 1e6, args_json),
                          0, 0});
}

void TraceRecorder::name_sim_track(int tid, const std::string& name) {
  if (!active()) return;
  std::lock_guard<std::mutex> lk(mu_);
  sim_track_names_.emplace(tid, name);  // first writer wins
}

int TraceRecorder::host_tid() {
  if (tls_host_tid < 0) {
    std::lock_guard<std::mutex> lk(mu_);
    tls_host_tid = next_host_tid_++;
    host_thread_names_.emplace(
        tls_host_tid, tls_host_tid == 0
                          ? std::string("main")
                          : strprintf("thread-%d", tls_host_tid));
  }
  return tls_host_tid;
}

void TraceRecorder::host_span(const char* cat, const std::string& name,
                              double ts_us, double dur_us) {
  if (!active()) return;
  const int tid = host_tid();
  push(host_events_,
       Event{event_line(kHostPid, tid, cat, name, ts_us, dur_us, ""), 0, 0});
}

void TraceRecorder::host_instant(const char* cat, const std::string& name) {
  if (!active()) return;
  const int tid = host_tid();
  push(host_events_,
       Event{strprintf(
                 "{\"name\": %s, \"cat\": \"%s\", \"ph\": \"i\", "
                 "\"ts\": %.3f, \"pid\": %d, \"tid\": %d, \"s\": \"t\"}",
                 json_string(name).c_str(), cat, wall_us(), kHostPid, tid),
             0, 0});
}

void TraceRecorder::host_counter(const char* cat, const char* name,
                                 int64_t value) {
  if (!active()) return;
  push(host_events_,
       Event{strprintf(
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"C\", "
                 "\"ts\": %.3f, \"pid\": %d, \"tid\": 0, \"args\": "
                 "{\"value\": %lld}}",
                 name, cat, wall_us(), kHostPid,
                 static_cast<long long>(value)),
             0, 0});
}

void TraceRecorder::name_host_thread(const std::string& name) {
  const int tid = host_tid();
  std::lock_guard<std::mutex> lk(mu_);
  host_thread_names_[tid] = name;
}

void TraceRecorder::meas_span(const char* cat, const std::string& name,
                              double ts_us, double dur_us,
                              const std::string& args_json) {
  if (!active()) return;
  const int tid = host_tid();
  push(meas_events_,
       Event{event_line(kMeasPid, tid, cat, name, ts_us, dur_us, args_json),
             0, 0});
}

uint64_t TraceRecorder::alloc_flow_ids(uint64_t n) {
  return next_flow_id_.fetch_add(n, std::memory_order_relaxed);
}

void TraceRecorder::host_flow(char ph, uint64_t id, const char* cat,
                              const std::string& name) {
  if (!active()) return;
  const int tid = host_tid();
  push(host_events_,
       Event{flow_line(kHostPid, tid, ph, id, cat, name, wall_us()), id, ph});
}

void TraceRecorder::sim_flow_end(uint64_t id, int tid, const char* cat,
                                 const std::string& name, double t_s) {
  if (!active()) return;
  push(sim_events_,
       Event{flow_line(kSimPid, tid, 'f', id, cat, name, t_s * 1e6), id, 'f'});
}

void TraceRecorder::meas_flow_end(uint64_t id, const char* cat,
                                  const std::string& name, double ts_us) {
  if (!active()) return;
  const int tid = host_tid();
  push(meas_events_,
       Event{flow_line(kMeasPid, tid, 'f', id, cat, name, ts_us), id, 'f'});
}

size_t TraceRecorder::events() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sim_events_.size() + host_events_.size() + meas_events_.size();
}

std::vector<std::string> TraceRecorder::sim_events() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  out.reserve(sim_events_.size());
  for (const Event& e : sim_events_) out.push_back(e.line);
  return out;
}

std::string TraceRecorder::json() const {
  std::lock_guard<std::mutex> lk(mu_);
  // Drop-oldest may have evicted a flow's "s" start while later steps/ends
  // survive; a dangling flow reference confuses the UI, so only flows whose
  // start is still buffered keep their steps and ends.
  std::set<uint64_t> live_flows;
  for (const Buffer* buf : {&sim_events_, &host_events_, &meas_events_}) {
    for (const Event& e : *buf) {
      if (e.ph == 's') live_flows.insert(e.flow);
    }
  }
  auto keep = [&live_flows](const Event& e) {
    return e.ph == 0 || e.ph == 's' || live_flows.count(e.flow) > 0;
  };
  std::string out = "{\"traceEvents\": [\n";
  std::vector<std::string> lines;
  lines.reserve(8 + sim_track_names_.size() + 2 * host_thread_names_.size() +
                sim_events_.size() + host_events_.size() +
                meas_events_.size());
  auto meta = [](int pid, int tid, const char* what, const std::string& name) {
    return strprintf(
        "{\"name\": \"%s\", \"ph\": \"M\", \"pid\": %d%s, \"args\": "
        "{\"name\": %s}}",
        what, pid,
        tid >= 0 ? strprintf(", \"tid\": %d", tid).c_str() : "",
        json_string(name).c_str());
  };
  lines.push_back(meta(kSimPid, -1, "process_name", "simulated timeline"));
  lines.push_back(meta(kHostPid, -1, "process_name", "host timeline"));
  lines.push_back(meta(kMeasPid, -1, "process_name", "measured timeline"));
  for (const auto& [tid, name] : sim_track_names_) {
    lines.push_back(meta(kSimPid, tid, "thread_name", name));
  }
  for (const auto& [tid, name] : host_thread_names_) {
    lines.push_back(meta(kHostPid, tid, "thread_name", name));
    // Measured spans live on the same worker threads.
    lines.push_back(meta(kMeasPid, tid, "thread_name", name));
  }
  for (const Event& e : sim_events_) {
    if (keep(e)) lines.push_back(e.line);
  }
  for (const Event& e : host_events_) {
    if (keep(e)) lines.push_back(e.line);
  }
  for (const Event& e : meas_events_) {
    if (keep(e)) lines.push_back(e.line);
  }
  out += join(lines, ",\n");
  out += "\n]}\n";
  return out;
}

bool TraceRecorder::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = json();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace spdistal::obs
