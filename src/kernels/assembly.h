// Two-phase sparse output assembly (paper §V-B, Chou et al.).
//
// When the output tensor is sparse, SpDISTAL first executes the computation
// symbolically to discover which output coordinates can be non-zero, builds
// the output's pos/crd structure from that pattern, and only then runs the
// numeric kernel, which scatters values into the assembled pattern without
// further synchronization.
//
// Pattern rules implemented (covering the paper's kernels and the statement
// classes the co-iteration engine accepts):
//   * a term with a single sparse access whose variables cover the output's:
//     the projection of that access's stored coordinates (SpTTV, SDDMM);
//   * a term whose sparse accesses all use identical variable lists:
//     the intersection of their patterns (element-wise products);
//   * across terms: the union of term patterns (SpAdd3).
// Patterns are flat coordinate vectors sorted in the output's storage order
// (sorted only when the projection is not already in order), so
// intersections and unions are linear merges. When the output preserves
// its one sparse input's pattern exactly (single term, single sparse
// access with the output's variables, e.g. SDDMM) and both share dims and a
// format with unique, non-blocked levels, the output's pos/crd are copies
// of the input's — the paper's metadata-copying fast path — and nothing is
// projected or packed.
#pragma once

#include "tensor/tensor.h"

namespace spdistal::kern {

struct AssemblyResult {
  // Work performed by the symbolic phase (charged once at instantiation).
  rt::WorkEstimate symbolic_work;
  // True if the output pattern is a verbatim copy of one input's pattern
  // (the paper's §V-B "copy the coordinate metadata" case).
  bool pattern_preserved = false;
  int64_t output_nnz = 0;
};

// True if the statement's output is sparse (requires assembly before
// numeric execution).
bool needs_assembly(const Statement& stmt);

// Runs the symbolic phase and installs assembled (zero-valued) storage into
// the output tensor. No-op for dense outputs.
AssemblyResult assemble_output(Statement& stmt);

}  // namespace spdistal::kern
