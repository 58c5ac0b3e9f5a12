#include "obs/calibrate.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/str_util.h"
#include "obs/metrics.h"
#include "obs/persist.h"

namespace spdistal::obs {

namespace {

// EWMA weight of one new sample, and the clamp band around the current
// estimate an outlier sample is squeezed into before blending.
constexpr double kAlpha = 0.2;
constexpr double kClampFactor = 8.0;

constexpr int kSchemaVersion = 1;

std::atomic<bool> g_enabled{false};
std::once_flag g_env_once;

std::string& env_path() {
  static std::string p;
  return p;
}

// The file's rate set as loaded at startup — the baseline the atexit merge
// diffs the file against, so a process never re-merges samples it already
// absorbed (only what concurrent writers appended since).
std::map<std::string, CalibRates>& startup_snapshot() {
  static std::map<std::string, CalibRates> snap;
  return snap;
}

std::string rate_key(const std::string& kernel, const std::string& kind) {
  return kernel + "|" + kind;
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

// Clamped EWMA blend of `sample` into `cur` (zero-valued sides pass
// through: a kernel with no byte traffic keeps wall_per_byte at 0).
double blend(double cur, double sample) {
  if (sample <= 0) return cur;
  if (cur <= 0) return sample;
  const double clamped =
      std::min(std::max(sample, cur / kClampFactor), cur * kClampFactor);
  return (1.0 - kAlpha) * cur + kAlpha * clamped;
}

// Samples-weighted average of two rate estimates (file merge).
CalibRates merge_rates(const CalibRates& a, const CalibRates& b) {
  if (a.samples == 0) return b;
  if (b.samples == 0) return a;
  const double wa = static_cast<double>(a.samples);
  const double wb = static_cast<double>(b.samples);
  auto avg = [&](double x, double y) {
    if (x <= 0) return y;
    if (y <= 0) return x;
    return (x * wa + y * wb) / (wa + wb);
  };
  CalibRates r;
  r.wall_per_flop = avg(a.wall_per_flop, b.wall_per_flop);
  r.wall_per_byte = avg(a.wall_per_byte, b.wall_per_byte);
  r.samples = a.samples + b.samples;
  return r;
}

// The versioned document: {"version": 1, "rates": {"kernel|KIND":
// {"wall_per_flop": f, "wall_per_byte": b, "samples": n}, ...}}.
std::string rates_json(const std::map<std::string, CalibRates>& rates) {
  std::string out = strprintf("{\"version\": %d, \"rates\": {", kSchemaVersion);
  bool first = true;
  for (const auto& [key, r] : rates) {
    out += first ? "\n  " : ",\n  ";
    first = false;
    append_escaped(out, key);
    out += strprintf(
        ": {\"wall_per_flop\": %.17g, \"wall_per_byte\": %.17g, "
        "\"samples\": %llu}",
        r.wall_per_flop, r.wall_per_byte,
        static_cast<unsigned long long>(r.samples));
  }
  out += "\n}}\n";
  return out;
}

// Empty for a malformed document or another schema version; an entry
// without samples is skipped on its own.
std::map<std::string, CalibRates> parse_rates(const std::string& doc) {
  std::map<std::string, CalibRates> out;
  int version = 0;
  JsonCursor c(doc);
  c.object([&](const std::string& field) {
    if (field == "version") {
      version = static_cast<int>(c.number());
    } else if (field == "rates") {
      c.object([&](const std::string& key) {
        CalibRates r;
        double samples = 0;
        c.object([&](const std::string& f) {
          if (f == "wall_per_flop") {
            r.wall_per_flop = c.number();
          } else if (f == "wall_per_byte") {
            r.wall_per_byte = c.number();
          } else if (f == "samples") {
            samples = c.number();
          } else {
            c.skip_value();
          }
        });
        if (samples >= 1 && samples < 1e19) {
          r.samples = static_cast<uint64_t>(samples);
          out[key] = r;
        }
      });
    } else {
      c.skip_value();
    }
  });
  if (!c.ok || !c.at_end() || version != kSchemaVersion) return {};
  return out;
}

void init_from_env() {
  const char* p = std::getenv("SPDISTAL_CALIB");
  if (p == nullptr || p[0] == '\0') return;
  env_path() = p;
  g_enabled.store(true, std::memory_order_relaxed);
  Calibration::global().load(env_path());  // absent file on cold start is fine
  std::atexit([] {
    // Merge what concurrent writers appended since startup, then rewrite
    // atomically. In the common single-writer case the file is unchanged
    // and this saves exactly the learned state.
    Calibration& c = Calibration::global();
    std::string doc;
    if (read_text_file(env_path(), &doc)) {
      const auto& base = startup_snapshot();
      std::map<std::string, CalibRates> appended;
      for (const auto& [key, r] : parse_rates(doc)) {
        auto it = base.find(key);
        const uint64_t seen = it != base.end() ? it->second.samples : 0;
        if (r.samples <= seen) continue;
        CalibRates delta = r;
        delta.samples = r.samples - seen;
        appended[key] = delta;
      }
      c.merge_json(rates_json(appended));
    }
    if (!c.save(env_path())) {
      std::fprintf(stderr, "spdistal: failed to write calibration to %s\n",
                   env_path().c_str());
    }
  });
}

}  // namespace

bool calibration_enabled() {
  std::call_once(g_env_once, init_from_env);
  return g_enabled.load(std::memory_order_relaxed);
}

void set_calibration(bool on) {
  std::call_once(g_env_once, init_from_env);
  g_enabled.store(on, std::memory_order_relaxed);
}

Calibration& Calibration::global() {
  // Leaked: record() may run from worker threads during static destruction.
  static Calibration* c = new Calibration();
  return *c;
}

Calibration::Calibration() = default;

void Calibration::record(const char* kernel, const char* proc_kind,
                         double flops, double bytes, double wall_s) {
  if (!calibration_enabled()) return;
  if (wall_s <= 0 || (flops <= 0 && bytes <= 0)) return;
  static Counter& samples = Metrics::global().counter("calib.samples");
  samples.add(1);
  const std::string key = rate_key(kernel, proc_kind);
  const double wpf = flops > 0 ? wall_s / flops : 0.0;
  const double wpb = bytes > 0 ? wall_s / bytes : 0.0;
  std::lock_guard<std::mutex> lk(mu_);
  CalibRates& r = rates_[key];
  if (r.samples == 0) {
    r.wall_per_flop = wpf;
    r.wall_per_byte = wpb;
  } else {
    r.wall_per_flop = blend(r.wall_per_flop, wpf);
    r.wall_per_byte = blend(r.wall_per_byte, wpb);
  }
  ++r.samples;
}

std::optional<CalibRates> Calibration::lookup(
    const std::string& kernel, const std::string& proc_kind) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = rates_.find(rate_key(kernel, proc_kind));
  if (it == rates_.end()) return std::nullopt;
  return it->second;
}

std::optional<CalibRates> Calibration::lookup_family(
    const std::string& family, const std::string& proc_kind) const {
  const std::string suffix = "|" + proc_kind;
  const std::string prefix = lower(family);
  std::lock_guard<std::mutex> lk(mu_);
  if (auto it = rates_.find(rate_key(family, proc_kind));
      it != rates_.end()) {
    return it->second;
  }
  // Tier 2: samples-weighted blend over kernels of the family on this
  // processor kind; tier 3: blend over everything on this processor kind.
  CalibRates fam, any;
  for (const auto& [key, r] : rates_) {
    if (key.size() < suffix.size() ||
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    any = merge_rates(any, r);
    const std::string kernel = lower(key.substr(0, key.size() - suffix.size()));
    if (kernel.compare(0, prefix.size(), prefix) == 0) {
      fam = merge_rates(fam, r);
    }
  }
  if (fam.samples > 0) return fam;
  if (any.samples > 0) return any;
  return std::nullopt;
}

size_t Calibration::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return rates_.size();
}

uint64_t Calibration::total_samples() const {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t n = 0;
  for (const auto& [key, r] : rates_) n += r.samples;
  return n;
}

void Calibration::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  rates_.clear();
}

std::string Calibration::json() const {
  std::lock_guard<std::mutex> lk(mu_);
  return rates_json(rates_);
}

size_t Calibration::merge_json(const std::string& doc) {
  const auto parsed = parse_rates(doc);
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [key, r] : parsed) {
    auto it = rates_.find(key);
    if (it == rates_.end()) {
      rates_[key] = r;
    } else {
      it->second = merge_rates(it->second, r);
    }
  }
  return parsed.size();
}

bool Calibration::load(const std::string& path) {
  std::string doc;
  if (!read_text_file(path, &doc)) return false;
  const size_t n = merge_json(doc);
  if (n > 0) {
    startup_snapshot() = parse_rates(doc);
    Metrics::global().counter("calib.loaded_rates").add(
        static_cast<int64_t>(n));
  }
  return true;
}

bool Calibration::save(const std::string& path) const {
  return write_text_file_atomic(path, json());
}

}  // namespace spdistal::obs
