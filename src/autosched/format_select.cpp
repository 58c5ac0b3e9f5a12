#include "autosched/format_select.h"

#include <algorithm>
#include <cmath>

#include "autosched/cost.h"
#include "common/error.h"
#include "obs/calibrate.h"

namespace spdistal::autosched {

using rt::Coord;

namespace {

// Per-true-nonzero work profiles of the scalar leaves, mirroring
// base::flops_per_nnz / bytes_per_nnz (the 12 bytes are the stored value
// plus its 4-byte coordinate; the rest is operand/output streaming).
double csr_fpn(base::KernelKind kind, Coord cols) {
  return kind == base::KernelKind::SpMM ? 2.0 * static_cast<double>(cols)
                                        : 2.0;
}

double csr_bpn(base::KernelKind kind, Coord cols) {
  return kind == base::KernelKind::SpMM
             ? 8.0 * static_cast<double>(cols) + 12.0
             : 20.0;
}

// Seconds for one pass over `nnz` stored non-zeros at the given per-nonzero
// profile. Measured leaf rates are used only on an exact calibration match
// for `kernel` (a prefix blend would mix bcsr and scalar samples and blur
// exactly the comparison this function exists to make); otherwise the
// static machine tables price both sides identically.
double price(double nnz, double fpn, double bpn, const rt::Machine& machine,
             const std::string& kernel) {
  const rt::Proc p0 = machine.proc(0);
  if (obs::calibration_enabled()) {
    if (const auto r = obs::Calibration::global().lookup(
            kernel, rt::proc_kind_name(p0.kind))) {
      return std::max(nnz * fpn * r->wall_per_flop,
                      nnz * bpn * r->wall_per_byte);
    }
  }
  return std::max(nnz * fpn / machine.proc_flops(p0, 1),
                  nnz * bpn / machine.proc_mem_bw(p0, 1));
}

}  // namespace

BlockStats block_stats(const fmt::Coo& coo, int block_r, int block_c) {
  SPD_CHECK(coo.order() == 2, NotationError,
            "block_stats requires a 2-D coordinate list, got order "
                << coo.order());
  SPD_CHECK(block_r > 0 && block_c > 0, NotationError,
            "block_stats requires positive block extents, got "
                << block_r << "x" << block_c);
  BlockStats s;
  s.nnz = coo.nnz();
  if (s.nnz == 0) return s;
  const int64_t nbc =
      (static_cast<int64_t>(coo.dims[1]) + block_c - 1) / block_c;
  std::vector<int64_t> ids;
  ids.reserve(coo.coords.size());
  for (const auto& c : coo.coords) {
    ids.push_back(static_cast<int64_t>(c[0] / block_r) * std::max<int64_t>(
                      nbc, 1) +
                  static_cast<int64_t>(c[1] / block_c));
  }
  std::sort(ids.begin(), ids.end());
  s.blocks = static_cast<int64_t>(
      std::unique(ids.begin(), ids.end()) - ids.begin());
  const double lanes =
      static_cast<double>(s.blocks) * block_r * block_c;
  s.fill = static_cast<double>(s.nnz) / lanes;
  s.padding = lanes / static_cast<double>(s.nnz);
  return s;
}

std::vector<FormatCandidate> enumerate_matrix_formats(
    const fmt::Coo& coo, base::KernelKind kind, const rt::Machine& machine,
    Coord dense_cols) {
  SPD_CHECK(coo.order() == 2, NotationError,
            "format enumeration requires a 2-D coordinate list, got order "
                << coo.order());
  const double nnz = static_cast<double>(std::max<int64_t>(coo.nnz(), 1));
  const double fpn = csr_fpn(kind, dense_cols);
  const double bpn = csr_bpn(kind, dense_cols);
  const bool spmm = kind == base::KernelKind::SpMM;
  const std::string scalar_kernel = spmm ? "spmm_row" : "spmv_row";
  const std::string tiled_kernel = spmm ? "spmm_bcsr" : "spmv_bcsr";

  std::vector<FormatCandidate> out;
  out.push_back({fmt::csr(), scalar_kernel,
                 price(nnz, fpn, bpn, machine, scalar_kernel)});
  if (kind != base::KernelKind::SpMV && kind != base::KernelKind::SpMM) {
    return out;  // no register-tiled leaves for the other kernel classes
  }
  // The shapes with compile-time micro-kernel instantiations (bcsr.cpp).
  constexpr int kShapes[][2] = {{2, 2}, {4, 4}, {4, 8}, {8, 8}};
  for (const auto& [r, c] : kShapes) {
    const BlockStats s = block_stats(coo, r, c);
    const double pad = s.nnz > 0 ? s.padding : static_cast<double>(r * c);
    double bfpn = fpn;
    double bbpn = bpn;
    rescale_for_blocks(pad, r * c, bfpn, bbpn);
    out.push_back({fmt::bcsr(r, c), tiled_kernel,
                   price(nnz, bfpn, bbpn, machine, tiled_kernel)});
  }
  return out;
}

fmt::Format select_matrix_format(const fmt::Coo& coo, base::KernelKind kind,
                                 const rt::Machine& machine,
                                 Coord dense_cols) {
  const auto candidates =
      enumerate_matrix_formats(coo, kind, machine, dense_cols);
  const FormatCandidate* best = &candidates.front();
  for (const FormatCandidate& c : candidates) {
    if (c.est_time < best->est_time) best = &c;  // ties keep CSR
  }
  return best->format;
}

}  // namespace spdistal::autosched
