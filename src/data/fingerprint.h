// Sparsity fingerprints: the fuzzy-matchable half of a plan-cache key.
//
// The structural half of a key (expression, formats, machine) must match
// exactly for a cached recipe to be replayable at all; the *sparsity* half —
// dimensions, non-zero count, how mass and row degrees are distributed —
// only changes which recipe is fastest, and nearby patterns almost always
// share a winner. A SparsityFingerprint summarizes a packed tensor's
// non-zero structure into a fixed-size sketch (dimension sizes, nnz, a
// 16-bucket mass histogram over the top storage dimension, and a log2
// row-degree histogram) with a normalized distance, so the plan service can
// serve "similar enough" tensors from a recipe priced for a sibling.
//
// Fingerprints are computed on demand, when a plan-cache key is built
// (autosched::plan_key), so tensors that never reach the plan service cost
// nothing; they round-trip through a canonical string so persisted
// plan-store entries stay fuzzy-matchable across processes.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/index_space.h"

namespace spdistal::fmt {
class TensorStorage;
}

namespace spdistal::data {

struct SparsityFingerprint {
  static constexpr int kHistBuckets = 16;
  static constexpr int kDegreeBuckets = 12;

  // Logical dimension sizes (always present).
  std::vector<rt::Coord> dims;
  // True when the non-zero pattern was sketched (sparse, packed input);
  // false for structural-only fingerprints (dense tensors, outputs whose
  // pattern is derived from the inputs, unpacked operands).
  bool has_pattern = false;
  int64_t nnz = 0;
  // Non-zero mass over kHistBuckets equal slices of the top storage
  // dimension: separates banded from power-law from uniform without hashing
  // every coordinate.
  std::array<int64_t, kHistBuckets> hist{};
  // Row-degree sketch: bucket b counts top-dimension coordinates whose
  // stored degree d has floor(log2(d)) == b (last bucket open-ended).
  std::array<int64_t, kDegreeBuckets> degree{};

  // Canonical exact encoding, e.g. "d[4096,4096];n163840;h[...];g[...]"
  // (structural-only fingerprints encode just "d[...]"). Contains no '|',
  // '=', '"' or control characters, so it can be embedded in cache keys and
  // JSON values verbatim.
  std::string str() const;
  static std::optional<SparsityFingerprint> parse(const std::string& s);

  // Normalized dissimilarity: 0 for indistinguishable sketches, growing
  // with relative differences in dims / nnz / mass and degree shape, and
  // +infinity when the two are not comparable at all (different order, or
  // pattern vs structural-only). Each finite component is a relative error
  // in [0, 1], combined by max, so a tolerance t reads as "no aspect of the
  // sparsity differs by more than a fraction t".
  double distance(const SparsityFingerprint& o) const;

  bool operator==(const SparsityFingerprint&) const = default;
};

// Sketch of a packed storage, linear in its stored positions (flat loops
// over pos/crd, no coordinate walk). All-dense storages (whose "pattern"
// is the whole box) get a structural-only fingerprint.
SparsityFingerprint fingerprint(const fmt::TensorStorage& st);

// Structural-only fingerprint: dimensions, no pattern.
SparsityFingerprint dense_fingerprint(const std::vector<rt::Coord>& dims);

// Canonical encoding of a per-tensor fingerprint sequence ('|'-joined) and
// its inverse; parse returns nullopt on any malformed element.
std::string fingerprints_str(const std::vector<SparsityFingerprint>& fps);
std::optional<std::vector<SparsityFingerprint>> parse_fingerprints(
    const std::string& s);

// Max pairwise distance; +infinity when the sequences differ in length.
double fingerprints_distance(const std::vector<SparsityFingerprint>& a,
                             const std::vector<SparsityFingerprint>& b);

}  // namespace spdistal::data
