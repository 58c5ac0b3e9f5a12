#include "autosched/plan_store.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <utility>

#include "common/str_util.h"
#include "obs/metrics.h"
#include "obs/persist.h"

namespace spdistal::autosched {

namespace {

// v2 added the per-entry "used" stamp (last-used LRU clock) that
// oldest-first eviction sorts by. v1 documents still load: their entries
// simply carry stamp 0, making them the first to evict.
constexpr int kSchemaVersion = 2;
constexpr int kOldestReadableVersion = 1;

std::atomic<bool> g_enabled{true};
std::atomic<double> g_fuzz{0.0};
std::atomic<int64_t> g_store_max{0};  // 0 = uncapped
std::once_flag g_env_once;

std::string& env_path() {
  static std::string p;
  return p;
}

// Parses one plan entry object. Returns false (entry skipped) if required
// fields are missing or its content is from a future build; structural
// damage poisons the cursor instead, rejecting the whole document.
bool parse_entry(obs::JsonCursor& c, StoredPlan* e) {
  bool have_key = false;
  bool have_sig = false;
  std::string unit;
  Recipe& r = e->plan.recipe;
  c.object([&](const std::string& f) {
    if (f == "key") {
      e->structural = c.string();
      have_key = true;
    } else if (f == "sig") {
      e->sig = c.string();
      have_sig = true;
    } else if (f == "cost") {
      e->plan.cost = c.number();
    } else if (f == "used") {
      e->plan.used->store(static_cast<int64_t>(c.number()),
                          std::memory_order_relaxed);
    } else if (f == "pos") {
      r.position_space = c.number() != 0;
    } else if (f == "pieces") {
      r.pieces = static_cast<int>(c.number());
    } else if (f == "py") {
      r.pieces_y = static_cast<int>(c.number());
    } else if (f == "pz") {
      r.pieces_z = static_cast<int>(c.number());
    } else if (f == "fuse") {
      r.fuse_depth = static_cast<int>(c.number());
    } else if (f == "split") {
      r.split_tensor = c.string();
    } else if (f == "comm") {
      r.communicate_all = c.number() != 0;
    } else if (f == "unit") {
      unit = c.string();
    } else {
      c.skip_value();
    }
  });
  if (!c.ok || !have_key || !have_sig) return false;
  auto fps = data::parse_fingerprints(e->sig);
  if (!fps) return false;
  e->plan.fps = std::move(*fps);
  if (!unit.empty()) {
    const auto u = sched::parse_parallel_unit(unit);
    if (!u) return false;
    r.unit = *u;
  }
  return true;
}

void init_from_env() {
  if (const char* f = std::getenv("SPDISTAL_PLAN_FUZZ")) {
    if (f[0] != '\0') {
      g_fuzz.store(std::strtod(f, nullptr), std::memory_order_relaxed);
    }
  }
  if (const char* m = std::getenv("SPDISTAL_PLAN_STORE_MAX")) {
    if (m[0] != '\0') {
      g_store_max.store(std::strtoll(m, nullptr, 10),
                        std::memory_order_relaxed);
    }
  }
  const char* p = std::getenv("SPDISTAL_PLAN_STORE");
  if (p == nullptr || p[0] == '\0') return;
  env_path() = p;
  load_plan_store(env_path());  // absent file on cold start is fine
  std::atexit([] {
    if (!g_enabled.load(std::memory_order_relaxed)) return;
    if (!save_plan_store(env_path())) {
      std::fprintf(stderr, "spdistal: failed to write plan store to %s\n",
                   env_path().c_str());
    }
  });
}

}  // namespace

bool plan_store_enabled() {
  std::call_once(g_env_once, init_from_env);
  return g_enabled.load(std::memory_order_relaxed);
}

void set_plan_store(bool on) {
  std::call_once(g_env_once, init_from_env);
  g_enabled.store(on, std::memory_order_relaxed);
}

double plan_fuzz() {
  std::call_once(g_env_once, init_from_env);
  return g_fuzz.load(std::memory_order_relaxed);
}

void set_plan_fuzz(double tolerance) {
  std::call_once(g_env_once, init_from_env);
  g_fuzz.store(tolerance, std::memory_order_relaxed);
}

int64_t plan_store_max() {
  std::call_once(g_env_once, init_from_env);
  return g_store_max.load(std::memory_order_relaxed);
}

void set_plan_store_max(int64_t cap) {
  std::call_once(g_env_once, init_from_env);
  g_store_max.store(cap, std::memory_order_relaxed);
}

std::string plan_store_json(const std::vector<StoredPlan>& entries) {
  std::string out =
      strprintf("{\n  \"version\": %d,\n  \"plans\": [", kSchemaVersion);
  bool first = true;
  for (const StoredPlan& e : entries) {
    out += first ? "\n" : ",\n";
    first = false;
    const Recipe& r = e.plan.recipe;
    out += "    {\"key\": ";
    obs::append_escaped(out, e.structural);
    out += ", \"sig\": ";
    obs::append_escaped(out, e.sig);
    out += strprintf(
        ", \"cost\": %.17g, \"used\": %lld, \"pos\": %d, \"pieces\": %d, "
        "\"py\": %d, \"pz\": %d, \"fuse\": %d",
        e.plan.cost,
        static_cast<long long>(
            e.plan.used->load(std::memory_order_relaxed)),
        r.position_space ? 1 : 0, r.pieces, r.pieces_y, r.pieces_z,
        r.fuse_depth);
    out += ", \"split\": ";
    obs::append_escaped(out, r.split_tensor);
    out += strprintf(", \"comm\": %d", r.communicate_all ? 1 : 0);
    out += ", \"unit\": ";
    obs::append_escaped(out,
                        r.unit ? sched::parallel_unit_name(*r.unit) : "");
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::vector<StoredPlan> parse_plan_store(const std::string& doc) {
  std::vector<StoredPlan> out;
  int version = 0;
  obs::JsonCursor c(doc);
  c.object([&](const std::string& field) {
    if (field == "version") {
      version = static_cast<int>(c.number());
    } else if (field == "plans") {
      c.array([&] {
        StoredPlan e;
        if (parse_entry(c, &e)) out.push_back(std::move(e));
      });
    } else {
      c.skip_value();
    }
  });
  if (!c.ok || !c.at_end() || version < kOldestReadableVersion ||
      version > kSchemaVersion) {
    return {};
  }
  return out;
}

size_t load_plan_store(const std::string& path) {
  std::string doc;
  if (!obs::read_text_file(path, &doc)) return 0;
  const std::vector<StoredPlan> entries = parse_plan_store(doc);
  if (entries.empty()) return 0;
  return PlanCache::global().insert_stored(entries);
}

bool save_plan_store(const std::string& path) {
  std::vector<StoredPlan> merged = PlanCache::global().entries();
  std::set<std::string> have;
  for (const StoredPlan& e : merged) {
    have.insert(e.structural + PlanKey::kSep + e.sig);
  }
  // Union with what concurrent writers persisted since we loaded: our
  // entries win on collisions, theirs ride along.
  std::string doc;
  if (obs::read_text_file(path, &doc)) {
    for (StoredPlan& e : parse_plan_store(doc)) {
      if (have.insert(e.structural + PlanKey::kSep + e.sig).second) {
        merged.push_back(std::move(e));
      }
    }
  }
  // Fleet GC: the file otherwise grows monotonically across every process
  // that ever touched it. Under SPDISTAL_PLAN_STORE_MAX, keep the `cap`
  // most recently used entries and evict the rest oldest-first; stamp ties
  // (v1 entries all carry 0) break by key so the surviving set is
  // deterministic regardless of merge order.
  const int64_t cap = plan_store_max();
  if (cap > 0 && static_cast<int64_t>(merged.size()) > cap) {
    std::stable_sort(
        merged.begin(), merged.end(),
        [](const StoredPlan& a, const StoredPlan& b) {
          const int64_t ua = a.plan.used->load(std::memory_order_relaxed);
          const int64_t ub = b.plan.used->load(std::memory_order_relaxed);
          if (ua != ub) return ua > ub;
          if (a.structural != b.structural) {
            return a.structural < b.structural;
          }
          return a.sig < b.sig;
        });
    obs::Metrics::global().counter("plan_store.evicted").add(
        static_cast<int64_t>(merged.size()) - cap);
    merged.resize(static_cast<size_t>(cap));
  }
  return obs::write_text_file_atomic(path, plan_store_json(merged));
}

}  // namespace spdistal::autosched
