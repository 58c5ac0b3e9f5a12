// The plan cache: schedules found by search, keyed so that repeated
// compiles of the same logical computation in a serving loop hit in O(1) —
// and, with the plan service armed (plan_store.h), shared across processes
// and served fuzzily to "similar enough" tensors.
//
// A key has two halves. The *structural* half captures everything a recipe
// replay requires exactly: the expression (with index variables
// canonicalized by first-appearance order, so two structurally identical
// statements built from distinct IndexVar objects collide), each tensor's
// format signature and mode ordering, and the machine signature (processor
// kind, grid, hardware rates). The *sparsity* half is a per-tensor
// data::SparsityFingerprint sequence (dimensions, nnz, mass and row-degree
// sketches) — exact-matched in tier 1, nearest-within-tolerance in the
// fuzzy tier 2.
//
// Lookups are the hot path of a warm serving process and never take an
// exclusive lock: the entry map is an immutable snapshot behind a
// shared_ptr, read under a briefly-held shared lock (pointer copy only) and
// replaced copy-on-write by the rare insert. Concurrent Runtimes and
// autosched proxy fan-outs therefore never serialize on cache reads.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "autosched/recipe.h"
#include "data/fingerprint.h"
#include "runtime/machine.h"

namespace spdistal::autosched {

// Canonical cache key for (statement, machine).
struct PlanKey {
  std::string structural;  // expr + formats + machine; must match exactly
  std::string sig;         // canonical encoding of fps (fuzzy-matchable)
  std::vector<data::SparsityFingerprint> fps;  // one per binding, name order

  // Exact-tier map key. The separator sorts below every printable
  // character, so all entries sharing a structural half are contiguous in
  // the ordered map and the fuzzy tier scans exactly that range.
  std::string exact() const { return structural + kSep + sig; }
  static constexpr char kSep = '\x1f';
};

PlanKey plan_key(const Statement& stmt, const rt::Machine& machine);

struct CachedPlan {
  Recipe recipe;
  double cost = 0;  // proxy-simulated seconds/iteration of the winner
  std::vector<data::SparsityFingerprint> fps;
  // Loaded from a persisted store rather than searched in this process;
  // only served while plan_store_enabled() (set_plan_store(false) restores
  // bit-identical searched schedules).
  bool from_store = false;
  // Last-used stamp: a process-logical LRU clock, monotonic and seeded past
  // the largest stamp loaded from the store, bumped on insert and on every
  // lookup that serves the entry. Held behind a shared_ptr so lookups can
  // stamp entries through the immutable map snapshot without copy-on-write.
  // plan_store.h persists it (schema v2) and evicts oldest-first at save
  // when SPDISTAL_PLAN_STORE_MAX caps the file.
  std::shared_ptr<std::atomic<int64_t>> used =
      std::make_shared<std::atomic<int64_t>>(0);
};

// One serializable entry (plan_store.h round-trips these).
struct StoredPlan {
  std::string structural;
  std::string sig;
  CachedPlan plan;
};

class PlanCache {
 public:
  // Process-wide cache consulted by autoschedule(); thread-safe.
  static PlanCache& global();

  struct Hit {
    Recipe recipe;
    double cost = 0;
    bool fuzzy = false;  // served by the fingerprint tier, not exact match
  };

  // Two-tier lookup: exact key, then (when the plan store is enabled and
  // fuzz tolerance > 0) the nearest fingerprint within tolerance among
  // entries sharing the structural half. Counts a hit, fuzzy hit, or miss.
  // With the plan store disabled, entries that came from the persisted
  // store are ignored.
  std::optional<Hit> lookup(const PlanKey& key);
  void insert(const PlanKey& key, const Recipe& recipe, double cost);

  // Bulk-inserts entries loaded from a persisted store. Entries already
  // present (searched in this process) win over stored ones. Returns the
  // number merged in.
  size_t insert_stored(const std::vector<StoredPlan>& entries);

  // Snapshot of all entries, for serialization.
  std::vector<StoredPlan> entries() const;

  void clear();

  size_t size() const;
  int64_t hits() const;
  int64_t fuzzy_hits() const;
  int64_t misses() const;
  int64_t loaded() const;

 private:
  using Map = std::map<std::string, CachedPlan>;

  std::shared_ptr<const Map> snapshot() const;
  template <typename Fn>
  void mutate(Fn&& fn);  // copy-on-write under the exclusive lock

  // Next CachedPlan::used stamp; advances past any stamp merged from a
  // persisted store so process-local activity always outranks history.
  int64_t tick();

  mutable std::shared_mutex mu_;  // guards the snap_ pointer only
  std::shared_ptr<const Map> snap_ = std::make_shared<Map>();
  std::atomic<int64_t> clock_{0};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> fuzzy_hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> loaded_{0};
};

}  // namespace spdistal::autosched
