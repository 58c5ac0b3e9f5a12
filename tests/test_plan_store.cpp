// Tests for the persistent plan service (src/autosched/plan_store.*,
// src/autosched/cache.*): the versioned JSON store round-trips every recipe
// field, corrupt or version-mismatched documents are rejected wholesale, a
// warm process compiles with zero searches, concurrent writers sharing one
// file lose no entries, the fuzzy fingerprint tier respects its tolerance
// boundary exactly, concurrent Runtimes sharing one store are race-free,
// and set_plan_store(false) restores bit-identical searched schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>

#include "autosched/autosched.h"
#include "autosched/cost.h"
#include "autosched/plan_store.h"
#include "common/str_util.h"
#include "compiler/lower.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "tensor/dense_ref.h"

namespace spdistal::autosched {
namespace {

using rt::Coord;

rt::Machine cpu_machine(int nodes) {
  return rt::Machine(data::paper_machine_config(nodes), rt::Grid(nodes),
                     rt::ProcKind::CPU);
}

// Arms the plan service for one test (clean cache, store on, fuzz off) and
// restores the previous global state on exit.
struct StoreGuard {
  bool prev_on;
  double prev_fuzz;
  StoreGuard() : prev_on(plan_store_enabled()), prev_fuzz(plan_fuzz()) {
    PlanCache::global().clear();
    set_plan_store(true);
    set_plan_fuzz(0.0);
  }
  ~StoreGuard() {
    PlanCache::global().clear();
    set_plan_store(prev_on);
    set_plan_fuzz(prev_fuzz);
  }
};

struct BuiltStmt {
  Tensor out;
  Statement* stmt = nullptr;
};

BuiltStmt build_spmv(uint64_t seed) {
  IndexVar i("i"), j("j");
  const Coord n = 300;
  Tensor a("a", {n}, fmt::dense_vector());
  Tensor B("B", {n, n}, fmt::csr());
  Tensor c("c", {n}, fmt::dense_vector());
  B.from_coo(data::powerlaw_matrix(n, n, 4000, 1.3, seed));
  c.init_dense([](const auto& x) {
    return 1.0 + 0.01 * static_cast<double>(x[0] % 17);
  });
  BuiltStmt b;
  b.stmt = &(a(i) = B(i, j) * c(j));
  b.out = a;
  return b;
}

// A pattern-bearing fingerprint with deterministic sketch content.
data::SparsityFingerprint pattern_fp(int64_t nnz) {
  data::SparsityFingerprint fp;
  fp.dims = {100, 100};
  fp.has_pattern = true;
  fp.nnz = nnz;
  for (int b = 0; b < data::SparsityFingerprint::kHistBuckets; ++b) {
    fp.hist[static_cast<size_t>(b)] = nnz / 16;
  }
  fp.degree[3] = 100;
  return fp;
}

StoredPlan make_entry(const std::string& structural, const Recipe& r,
                      const std::vector<data::SparsityFingerprint>& fps,
                      double cost) {
  StoredPlan e;
  e.structural = structural;
  e.sig = data::fingerprints_str(fps);
  e.plan = CachedPlan{r, cost, fps, false};
  return e;
}

void write_file(const std::string& path, const std::string& doc) {
  std::ofstream out(path, std::ios::trunc);
  out << doc;
}

// --- serialization ------------------------------------------------------------

TEST(PlanStore, JsonRoundTripPreservesEveryRecipeField) {
  Recipe universe;
  universe.position_space = false;
  universe.pieces = 4;
  universe.pieces_y = 2;
  universe.pieces_z = 2;
  universe.communicate_all = true;
  universe.unit = sched::ParallelUnit::CPUThread;

  Recipe pos;
  pos.position_space = true;
  pos.pieces = 8;
  pos.split_tensor = "B";
  pos.fuse_depth = 2;
  pos.unit = sched::ParallelUnit::GPUWarp;

  Recipe minimal;  // defaults: 1 piece, no unit

  // Structural halves carry format signatures with JSON-hostile punctuation
  // ({}, [], quotes, backslashes) — the codec must escape them losslessly.
  const std::string s1 = "a(i)=B(i,j)*c(j);B:{d,s}ord[0,1];m:CPUx4";
  const std::string s2 = "odd \"quoted\" and back\\slashed key";
  const std::vector<StoredPlan> in = {
      make_entry(s1, universe, {data::dense_fingerprint({300}),
                                pattern_fp(4000)}, 1.25e-3),
      make_entry(s2, pos, {pattern_fp(777)}, 3.5e-2),
      make_entry("minimal", minimal, {data::dense_fingerprint({7, 9})}, 0.0),
  };
  const std::vector<StoredPlan> out = parse_plan_store(plan_store_json(in));
  ASSERT_EQ(out.size(), in.size());
  for (size_t k = 0; k < in.size(); ++k) {
    EXPECT_EQ(out[k].structural, in[k].structural) << k;
    EXPECT_EQ(out[k].sig, in[k].sig) << k;
    EXPECT_EQ(out[k].plan.recipe, in[k].plan.recipe) << k;
    EXPECT_DOUBLE_EQ(out[k].plan.cost, in[k].plan.cost) << k;
    EXPECT_EQ(out[k].plan.fps, in[k].plan.fps) << k;
  }
}

TEST(PlanStore, CorruptDocumentsAreRejectedWholesale) {
  EXPECT_TRUE(parse_plan_store("").empty());
  EXPECT_TRUE(parse_plan_store("not json at all").empty());
  EXPECT_TRUE(parse_plan_store("{}").empty());  // no version field
  const std::string good = plan_store_json(
      {make_entry("k", Recipe{}, {pattern_fp(100)}, 1.0),
       make_entry("k2", Recipe{}, {pattern_fp(200)}, 2.0)});
  ASSERT_EQ(parse_plan_store(good).size(), 2u);
  // Structural damage anywhere poisons the whole document — a half-written
  // file must never be partially applied.
  EXPECT_TRUE(parse_plan_store(good.substr(0, good.size() / 2)).empty());
  std::string truncated = good;
  truncated.resize(truncated.find("k2") + 1);
  EXPECT_TRUE(parse_plan_store(truncated).empty());
}

TEST(PlanStore, UnknownSchemaVersionIsRejected) {
  std::string doc = plan_store_json(
      {make_entry("k", Recipe{}, {pattern_fp(100)}, 1.0)});
  const std::string needle = "\"version\": 2";
  const size_t at = doc.find(needle);
  ASSERT_NE(at, std::string::npos);
  doc.replace(at, needle.size(), "\"version\": 99");
  EXPECT_TRUE(parse_plan_store(doc).empty());
  // Below the readable floor is rejected too.
  std::string old = plan_store_json({});
  const size_t at0 = old.find(needle);
  ASSERT_NE(at0, std::string::npos);
  old.replace(at0, needle.size(), "\"version\": 0");
  EXPECT_TRUE(parse_plan_store(old).empty());
}

TEST(PlanStore, EntryFromNewerBuildIsSkippedAlone) {
  std::string doc = plan_store_json(
      {make_entry("k1", Recipe{}, {pattern_fp(100)}, 1.0),
       make_entry("k2", Recipe{}, {pattern_fp(200)}, 2.0)});
  // A parallel unit this build does not know: that entry is unusable, but
  // the rest of a well-formed document still loads.
  const std::string needle = "\"key\": \"k1\"";
  const size_t at = doc.find(needle);
  ASSERT_NE(at, std::string::npos);
  std::string mutated = doc;
  const std::string unit_needle = "\"unit\": \"\"";
  const size_t ua = mutated.find(unit_needle, at);
  ASSERT_NE(ua, std::string::npos);
  mutated.replace(ua, unit_needle.size(), "\"unit\": \"QPULane\"");
  const auto out = parse_plan_store(mutated);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].structural, "k2");
}

TEST(PlanStore, LoadRejectsMissingAndCorruptFiles) {
  StoreGuard guard;
  EXPECT_EQ(load_plan_store("definitely_missing_plan_store.json"), 0u);
  const std::string path = "test_plan_store_corrupt.json";
  write_file(path, "{\"version\": 1, \"plans\": [{\"key\": \"trunc");
  EXPECT_EQ(load_plan_store(path), 0u);
  EXPECT_EQ(PlanCache::global().size(), 0u);
  std::remove(path.c_str());
}

// --- warm-process serving -----------------------------------------------------

TEST(PlanStore, WarmProcessCompilesWithZeroSearches) {
  StoreGuard guard;
  const rt::Machine m = cpu_machine(4);
  const std::string path = "test_plan_store_warm.json";
  std::remove(path.c_str());

  BuiltStmt a = build_spmv(3);
  const Result cold = autoschedule_search(*a.stmt, m);
  EXPECT_FALSE(cold.from_cache);
  EXPECT_GT(cold.enumerated, 0);
  ASSERT_TRUE(save_plan_store(path));

  // A warm sibling process: empty cache, store loaded from disk.
  PlanCache::global().clear();
  ASSERT_GE(load_plan_store(path), 1u);
  EXPECT_GE(PlanCache::global().loaded(), 1);

  BuiltStmt b = build_spmv(3);  // fresh tensors, same logical computation
  const Result warm = autoschedule_search(*b.stmt, m);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_FALSE(warm.fuzzy);
  EXPECT_EQ(warm.enumerated, 0);
  EXPECT_EQ(warm.simulated, 0);
  EXPECT_EQ(warm.recipe, cold.recipe);
  EXPECT_GE(PlanCache::global().hits(), 1);

  // The served schedule must still compute the right answer.
  rt::Runtime runtime(m);
  auto inst = comp::CompiledKernel::compile(*b.stmt, warm.schedule, m)
                  .instantiate(runtime);
  inst->run(1);
  EXPECT_LE(ref::max_abs_diff(b.out, ref::eval(*b.stmt)), 1e-10);
  std::remove(path.c_str());
}

TEST(PlanStore, ConcurrentWritersUnionThroughOneFile) {
  StoreGuard guard;
  const std::string path = "test_plan_store_union.json";
  std::remove(path.c_str());

  // Writer 1 persists entry A.
  Recipe ra;
  ra.pieces = 2;
  PlanCache::global().insert_stored(
      {make_entry("shape-A", ra, {pattern_fp(100)}, 1.0)});
  ASSERT_TRUE(save_plan_store(path));

  // Writer 2 (a sibling process that never saw A) persists entry B to the
  // same file: the save re-reads, unions, and loses nothing.
  PlanCache::global().clear();
  Recipe rb;
  rb.pieces = 8;
  PlanCache::global().insert_stored(
      {make_entry("shape-B", rb, {pattern_fp(200)}, 2.0)});
  ASSERT_TRUE(save_plan_store(path));

  PlanCache::global().clear();
  EXPECT_EQ(load_plan_store(path), 2u);
  EXPECT_EQ(PlanCache::global().size(), 2u);

  // On a key collision the in-memory entry (fresher) wins over the disk one.
  PlanCache::global().clear();
  Recipe ra2;
  ra2.pieces = 16;
  PlanCache::global().insert_stored(
      {make_entry("shape-A", ra2, {pattern_fp(100)}, 9.0)});
  ASSERT_TRUE(save_plan_store(path));
  PlanCache::global().clear();
  EXPECT_EQ(load_plan_store(path), 2u);
  bool saw_a = false;
  for (const StoredPlan& e : PlanCache::global().entries()) {
    if (e.structural == "shape-A") {
      saw_a = true;
      EXPECT_EQ(e.plan.recipe.pieces, 16);
    }
  }
  EXPECT_TRUE(saw_a);
  std::remove(path.c_str());
}

// --- fuzzy tier ---------------------------------------------------------------

TEST(PlanStore, FuzzyTierRespectsToleranceBoundary) {
  StoreGuard guard;
  PlanCache& cache = PlanCache::global();

  const data::SparsityFingerprint fp_a = pattern_fp(1000);
  const data::SparsityFingerprint fp_b = pattern_fp(1150);  // nearby nnz
  const double d = fp_a.distance(fp_b);
  ASSERT_GT(d, 0.0);
  ASSERT_LT(d, 1.0);

  Recipe r;
  r.pieces = 4;
  PlanKey key_a{"same-structural", data::fingerprints_str({fp_a}), {fp_a}};
  PlanKey key_b{"same-structural", data::fingerprints_str({fp_b}), {fp_b}};
  cache.insert(key_a, r, 1.0);

  // Exact tier: only the identical fingerprint hits.
  auto exact = cache.lookup(key_a);
  ASSERT_TRUE(exact.has_value());
  EXPECT_FALSE(exact->fuzzy);

  // Fuzz off: a nearby fingerprint is a miss.
  set_plan_fuzz(0.0);
  EXPECT_FALSE(cache.lookup(key_b).has_value());

  // Tolerance below the distance: still a miss.
  set_plan_fuzz(d * 0.5);
  EXPECT_FALSE(cache.lookup(key_b).has_value());

  // Tolerance at/above the distance: served by the fuzzy tier.
  set_plan_fuzz(d * 1.01);
  auto fuzzy = cache.lookup(key_b);
  ASSERT_TRUE(fuzzy.has_value());
  EXPECT_TRUE(fuzzy->fuzzy);
  EXPECT_EQ(fuzzy->recipe, r);
  EXPECT_GE(cache.fuzzy_hits(), 1);

  // A different structural half never fuzzy-matches, whatever the tolerance.
  PlanKey other{"other-structural", key_b.sig, key_b.fps};
  set_plan_fuzz(0.99);
  EXPECT_FALSE(cache.lookup(other).has_value());

  // The fuzzy tier is part of the plan service: disabling the store
  // disables it too.
  set_plan_store(false);
  EXPECT_FALSE(cache.lookup(key_b).has_value());
  // ... but exact hits on plans searched in this process survive.
  EXPECT_TRUE(cache.lookup(key_a).has_value());
}

TEST(PlanStore, FingerprintDistanceSeparatesShapes) {
  const auto fp = pattern_fp(1000);
  EXPECT_EQ(fp.distance(fp), 0.0);
  // Different dimensionality: incomparable.
  EXPECT_TRUE(std::isinf(fp.distance(data::dense_fingerprint({100}))));
  // Pattern vs structural-only of the same dims: incomparable.
  EXPECT_TRUE(std::isinf(fp.distance(data::dense_fingerprint({100, 100}))));
  // Round-trip through the canonical encoding is exact.
  const auto parsed = data::SparsityFingerprint::parse(fp.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, fp);
  EXPECT_EQ(fp.distance(*parsed), 0.0);
}

// The fingerprint reads levels through flat loops; it must equal the sketch
// of the coordinate walk (every stored value, padding lanes and explicit
// zeros included, bucketed by its top storage coordinate) on every format.
data::SparsityFingerprint walked_fingerprint(const fmt::TensorStorage& st) {
  data::SparsityFingerprint fp;
  fp.dims = st.dims();
  fp.has_pattern = true;
  fp.nnz = st.nnz();
  const int top = st.format().dim_of_level(0);
  const Coord extent = std::max<Coord>(st.dims()[static_cast<size_t>(top)], 1);
  std::map<Coord, int64_t> degree;
  st.for_each([&](const std::array<Coord, rt::kMaxDim>& c, double) {
    const Coord row = c[static_cast<size_t>(top)];
    const size_t b = static_cast<size_t>(
        row * data::SparsityFingerprint::kHistBuckets / extent);
    fp.hist[std::min<size_t>(b, data::SparsityFingerprint::kHistBuckets - 1)]++;
    degree[row]++;
  });
  for (const auto& [row, deg] : degree) {
    int b = 0;
    while ((int64_t{1} << (b + 1)) <= deg &&
           b + 1 < data::SparsityFingerprint::kDegreeBuckets) {
      ++b;
    }
    fp.degree[static_cast<size_t>(b)]++;
  }
  return fp;
}

TEST(PlanStore, FingerprintMatchesCoordinateWalkOnEveryFormat) {
  const fmt::Coo m = data::powerlaw_matrix(203, 197, 2500, 1.2, 5);
  const fmt::Format compressed_dense(
      {fmt::ModeFormat::Compressed(), fmt::ModeFormat::Dense()});
  for (const fmt::Format& f :
       {fmt::csr(), fmt::csc(), fmt::dcsr(), fmt::coo(2), fmt::bcsr(4, 4),
        fmt::bcsr(3, 5), compressed_dense}) {
    const fmt::TensorStorage st = fmt::pack("M", f, m.dims, m);
    EXPECT_EQ(data::fingerprint(st), walked_fingerprint(st)) << f.str();
  }
  const fmt::Coo t = data::uniform_3tensor(31, 17, 23, 900, 6);
  for (const fmt::Format& f : {fmt::csf3(), fmt::ddc3(), fmt::coo(3)}) {
    const fmt::TensorStorage st = fmt::pack("T", f, t.dims, t);
    EXPECT_EQ(data::fingerprint(st), walked_fingerprint(st)) << f.str();
  }
  // A coalesce-off COO root repeats coordinates across positions.
  fmt::Coo dup = m;
  dup.push(m.coords[0], 1.0);
  dup.push(m.coords[7], 2.0);
  fmt::PackOptions raw;
  raw.coalesce = false;
  const fmt::TensorStorage st = fmt::pack("D", fmt::coo(2), dup.dims, dup, raw);
  EXPECT_EQ(data::fingerprint(st), walked_fingerprint(st));
}

// --- concurrency --------------------------------------------------------------

// Concurrent Runtimes in one process sharing the global plan service:
// threads search (warm store hits), insert fresh synthetic plans, and
// save/load the same file. Run under TSan in CI; values checked here.
TEST(PlanStore, ConcurrentRuntimesShareOneStoreCleanly) {
  StoreGuard guard;
  const rt::Machine m = cpu_machine(2);
  const std::string path = "test_plan_store_conc.json";
  std::remove(path.c_str());

  // One cold search seeds the store.
  BuiltStmt seed = build_spmv(11);
  const Result cold = autoschedule_search(*seed.stmt, m);
  ASSERT_TRUE(save_plan_store(path));
  PlanCache::global().clear();
  ASSERT_GE(load_plan_store(path), 1u);

  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  std::vector<int> warm_hits(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int it = 0; it < 3; ++it) {
        // Each iteration: its own Runtime compiling the shared shape.
        BuiltStmt b = build_spmv(11);
        const Result r = autoschedule_search(*b.stmt, m);
        if (r.from_cache) ++warm_hits[static_cast<size_t>(t)];
        rt::Runtime runtime(m);
        auto inst =
            comp::CompiledKernel::compile(*b.stmt, r.schedule, m)
                .instantiate(runtime);
        inst->run(1);
        EXPECT_LE(ref::max_abs_diff(b.out, ref::eval(*b.stmt)), 1e-10);
        // Interleave service traffic: fresh inserts and file round-trips.
        Recipe synth;
        synth.pieces = 2 + t;
        PlanCache::global().insert(
            PlanKey{strprintf("synthetic-%d-%d", t, it),
                    data::fingerprints_str({pattern_fp(100 + t)}),
                    {pattern_fp(100 + t)}},
            synth, 1.0);
        if (t % 2 == 0) {
          save_plan_store(path);
        } else {
          load_plan_store(path);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  // Every search after the seed was served warm from the shared store.
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(warm_hits[static_cast<size_t>(t)], 3) << "thread " << t;
  }
  EXPECT_EQ(PlanCache::global().misses(), 0);
  BuiltStmt check = build_spmv(11);
  EXPECT_EQ(autoschedule_search(*check.stmt, m).recipe, cold.recipe);
  std::remove(path.c_str());
}

// --- bit-identity with the store disabled -------------------------------------

TEST(PlanStore, DisabledStoreRestoresSearchedSchedules) {
  StoreGuard guard;
  const rt::Machine m = cpu_machine(4);

  // Baseline: two cold full searches are deterministic and bit-identical.
  BuiltStmt a = build_spmv(7);
  set_plan_store(false);
  const Result base = autoschedule_search(*a.stmt, m);
  EXPECT_FALSE(base.from_cache);
  PlanCache::global().clear();
  const Result again = autoschedule_search(*a.stmt, m);
  EXPECT_EQ(again.recipe, base.recipe);
  EXPECT_EQ(again.schedule.str(), base.schedule.str());

  // Poison the cache with a *stored* entry for this exact key whose recipe
  // differs from the searched winner.
  const PlanKey key = plan_key(*a.stmt, m);
  Recipe poison = base.recipe;
  poison.pieces = base.recipe.pieces == 2 ? 4 : 2;
  StoredPlan sp;
  sp.structural = key.structural;
  sp.sig = key.sig;
  sp.plan = CachedPlan{poison, 123.0, key.fps, false};
  PlanCache::global().clear();
  ASSERT_EQ(PlanCache::global().insert_stored({sp}), 1u);

  // Store on: the poisoned entry is served.
  set_plan_store(true);
  const Result served = autoschedule_search(*a.stmt, m);
  EXPECT_TRUE(served.from_cache);
  EXPECT_EQ(served.recipe, poison);

  // Store off: the stored entry is invisible; the full search reproduces
  // the bit-identical baseline even though the entry is still cached.
  set_plan_store(false);
  const Result fresh = autoschedule_search(*a.stmt, m);
  EXPECT_FALSE(fresh.from_cache);
  EXPECT_EQ(fresh.recipe, base.recipe);
  EXPECT_EQ(fresh.schedule.str(), base.schedule.str());
}

// --- fuzzy re-pricing ---------------------------------------------------------

// A fuzzy hit's stored cost was simulated for a *sibling* shape; the plan
// service re-prices the served recipe with the analytic model against the
// actual operand fingerprints before reporting it.
TEST(PlanStore, FuzzyHitsRepriceAgainstActualFingerprints) {
  StoreGuard guard;
  const rt::Machine m = cpu_machine(4);

  auto build = [](int64_t nnz) {
    IndexVar i("i"), j("j");
    const Coord n = 300;
    Tensor a("a", {n}, fmt::dense_vector());
    Tensor B("B", {n, n}, fmt::csr());
    Tensor c("c", {n}, fmt::dense_vector());
    B.from_coo(data::powerlaw_matrix(n, n, nnz, 1.3, 3));
    c.init_dense([](const auto&) { return 1.0; });
    BuiltStmt b;
    b.stmt = &(a(i) = B(i, j) * c(j));
    b.out = a;
    return b;
  };

  BuiltStmt a = build(4000);
  const Result cold = autoschedule_search(*a.stmt, m);
  ASSERT_FALSE(cold.from_cache);

  set_plan_fuzz(0.9);
  BuiltStmt b = build(4400);  // nearby shape: served by the fuzzy tier
  const Result warm = autoschedule_search(*b.stmt, m);
  ASSERT_TRUE(warm.from_cache);
  ASSERT_TRUE(warm.fuzzy);
  AnalyticModel model(*b.stmt, m);
  EXPECT_DOUBLE_EQ(warm.best_cost, model.estimate(warm.recipe));
}

// --- eviction -----------------------------------------------------------------

// SPDISTAL_PLAN_STORE_MAX (set_plan_store_max) caps the saved document:
// save keeps the most recently *used* entries and evicts the rest
// oldest-first. Lookups refresh an entry's stamp, so a hot plan survives
// entries inserted after it.
TEST(PlanStore, SaveEvictsLeastRecentlyUsedBeyondCap) {
  StoreGuard guard;
  const int64_t prev_cap = plan_store_max();
  const std::string path = "test_plan_store_evict.json";
  std::remove(path.c_str());
  set_plan_store_max(2);

  std::vector<PlanKey> keys;
  for (int k = 0; k < 4; ++k) {
    Recipe r;
    r.pieces = 1 << k;
    PlanKey key{strprintf("shape-%d", k),
                data::fingerprints_str({pattern_fp(100 + k)}),
                {pattern_fp(100 + k)}};
    keys.push_back(key);
    PlanCache::global().insert(key, r, static_cast<double>(k));
  }
  // Touch 0 and 2: despite being inserted earlier, they are now the two
  // most recently used entries.
  ASSERT_TRUE(PlanCache::global().lookup(keys[0]).has_value());
  ASSERT_TRUE(PlanCache::global().lookup(keys[2]).has_value());

  ASSERT_TRUE(save_plan_store(path));
  PlanCache::global().clear();
  EXPECT_EQ(load_plan_store(path), 2u);
  std::vector<int> survivors;
  for (const StoredPlan& e : PlanCache::global().entries()) {
    survivors.push_back(e.plan.recipe.pieces);
  }
  std::sort(survivors.begin(), survivors.end());
  EXPECT_EQ(survivors, (std::vector<int>{1 << 0, 1 << 2}));

  // Cap 0 disables eviction: everything persists.
  set_plan_store_max(0);
  PlanCache::global().clear();
  for (int k = 0; k < 4; ++k) {
    Recipe r;
    r.pieces = 1 << k;
    PlanCache::global().insert(keys[static_cast<size_t>(k)], r, 0.0);
  }
  std::remove(path.c_str());
  ASSERT_TRUE(save_plan_store(path));
  PlanCache::global().clear();
  EXPECT_EQ(load_plan_store(path), 4u);

  set_plan_store_max(prev_cap);
  std::remove(path.c_str());
}

// --- schema compatibility -----------------------------------------------------

// v1 documents (no per-entry "used" stamp) still load: their entries carry
// stamp 0, making them the first candidates for eviction.
TEST(PlanStore, V1DocumentsStillLoad) {
  StoreGuard guard;
  Recipe r;
  r.pieces = 4;
  std::string doc =
      plan_store_json({make_entry("v1-shape", r, {pattern_fp(100)}, 2.5)});
  const std::string vneedle = "\"version\": 2";
  const size_t at = doc.find(vneedle);
  ASSERT_NE(at, std::string::npos);
  doc.replace(at, vneedle.size(), "\"version\": 1");
  // Strip the v2-only "used" stamps, turning the document into exactly
  // what a v1 build would have written.
  for (size_t u = doc.find("\"used\": "); u != std::string::npos;
       u = doc.find("\"used\": ", u)) {
    const size_t comma = doc.find(',', u);
    ASSERT_NE(comma, std::string::npos);
    doc.erase(u, comma + 2 - u);
  }
  const auto parsed = parse_plan_store(doc);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].structural, "v1-shape");
  EXPECT_EQ(parsed[0].plan.recipe, r);
  EXPECT_DOUBLE_EQ(parsed[0].plan.cost, 2.5);
  EXPECT_EQ(parsed[0].plan.used->load(), 0);

  const std::string path = "test_plan_store_v1.json";
  write_file(path, doc);
  EXPECT_EQ(load_plan_store(path), 1u);
  EXPECT_EQ(PlanCache::global().size(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace spdistal::autosched
