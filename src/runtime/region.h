// Regions: typed multi-dimensional arrays over index spaces (paper §III-A).
//
// A region is a function from indices of its index space to values. Values
// may be primitives (double, int32) or index-space-valued: the pos arrays of
// Compressed levels store PosRange values — inclusive [lo, hi] ranges naming
// indices of the crd region — which is precisely what makes the dependent
// partitioning operators image/preimage applicable (paper §III-B, Figure 7).
//
// Data lives once in the simulation's single address space; placement of
// sub-region *instances* into simulated memories is tracked by the Runtime
// (see memory.h / runtime.h), not here.
//
// Access paths, fastest first:
//  * RegionAccessor<T, DIM, Logged> / LinearAccessor<T, Logged>: the kernel
//    ABI. The reduction-redirect lookup (atomic load + TLS walk) happens
//    once at accessor construction. An unlogged accessor's element access
//    is plain pointer arithmetic the compiler can vectorize; a logged one
//    also records each access for verify mode. Leaves pick one of the two
//    once per invocation (dispatch_logged below).
//  * Region<T>::operator[] / at2 / at3 / at_linear: per-element access that
//    re-checks the redirect each call — fine for host-side code and tests,
//    too slow for kernel inner loops.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "runtime/index_space.h"
#include "runtime/touch_log.h"

namespace spdistal::rt {

using RegionId = uint32_t;

// Value type of pos regions: an inclusive range of crd positions.
// Mirrors the paper's choice (§III-B) to store {lo, hi} tuples rather than
// TACO's offset pairs so that image/preimage apply directly.
struct PosRange {
  Coord lo = 0;
  Coord hi = -1;
  bool empty() const { return lo > hi; }
  Coord size() const { return empty() ? 0 : hi - lo + 1; }
  bool operator==(const PosRange&) const = default;
};

// Descriptor of one reduction scratch buffer: a private accumulator covering
// `box` — the bounding box of the point's REDUCE subset, not the whole
// region — so very large outputs do not cost a full-region copy per point.
// Accessors (and the per-element Region paths) address the buffer relative
// to box; fold_scratch translates back to region coordinates.
struct ScratchHeader {
  RectN box;             // region-coordinate bounding box this buffer covers
  void* base = nullptr;  // typed element base (T*), null when box is empty
};

// Type-erased base so the Runtime can own heterogeneous regions.
// Region ids are process-global so that regions created by any component
// (tensor storage, tests, the Runtime) can participate in placement
// tracking without coordination.
class RegionBase {
 public:
  RegionBase(IndexSpace space, size_t elem_size, std::string name)
      : id_(next_id()),
        space_(space),
        elem_size_(elem_size),
        name_(std::move(name)) {}
  virtual ~RegionBase() = default;

  RegionId id() const { return id_; }
  const IndexSpace& space() const { return space_; }
  size_t elem_size() const { return elem_size_; }
  const std::string& name() const { return name_; }
  int64_t size_bytes() const {
    return space_.volume() * static_cast<int64_t>(elem_size_);
  }

  // Version counter, bumped on every write launch; used by the Runtime to
  // invalidate cached instances in remote memories.
  uint64_t version() const { return version_; }
  void bump_version() { ++version_; }

  // --- reduction privatization (deferred executor) ---------------------------
  // Concurrent REDUCE point tasks with overlapping subsets each accumulate
  // into a private scratch buffer (installed as a thread-local redirect for
  // the task's duration); the launch's retirement task folds the scratches
  // into the real data in color order, making parallel reductions
  // bit-identical to the serial schedule.

  // Whether this region's element type supports scratch + fold (arithmetic
  // element types; pos/crd metadata does not, and overlapping reducers on
  // such regions serialize instead).
  virtual bool can_privatize() const { return false; }
  // A zero-initialized scratch buffer covering `box` (clipped to the
  // region's bounds). The LaunchPlan computes the box once — the bounding
  // box of the point's REDUCE subset.
  virtual std::shared_ptr<ScratchHeader> make_scratch(const RectN& box) const {
    (void)box;
    return nullptr;
  }
  // data += scratch over `subset` (which must lie inside scratch->box).
  virtual void fold_scratch(const ScratchHeader* scratch,
                            const IndexSubset& subset) {
    (void)scratch;
    (void)subset;
    SPD_ASSERT(false, "fold_scratch on non-privatizable region " << name_);
  }

  // Verify-mode content fingerprint of the elements inside `subset` (FNV-1a
  // over raw bytes, redirect-free). The privilege checker hashes RO operands
  // before and after a launch to catch writes under read-only privileges.
  // Base regions (type-erased use) report 0: "no fingerprint available".
  virtual uint64_t content_hash(const IndexSubset& subset) const {
    (void)subset;
    return 0;
  }

  // One redirect epoch is open per in-flight privatized launch touching this
  // region; accessors consult the thread-local redirect table only while an
  // epoch is open (a relaxed load on the hot path otherwise).
  bool maybe_redirected() const {
    return redirect_epochs_.load(std::memory_order_relaxed) > 0;
  }
  void begin_redirect_epoch() {
    redirect_epochs_.fetch_add(1, std::memory_order_relaxed);
  }
  void end_redirect_epoch() {
    redirect_epochs_.fetch_sub(1, std::memory_order_relaxed);
  }

  struct Redirect {
    RegionId region = 0;
    const ScratchHeader* scratch = nullptr;
  };
  // One link of the thread-local redirect chain; lives by value inside a
  // ScopedRedirects on the task's stack (no allocation per task).
  struct RedirectFrame {
    const Redirect* entries = nullptr;
    size_t count = 0;
    const RedirectFrame* prev = nullptr;
  };
  // Installs redirects for the current thread for the lifetime of the
  // scope; used by executor workers around privatized point-task bodies.
  class ScopedRedirects {
   public:
    ScopedRedirects(const Redirect* entries, size_t count);
    ~ScopedRedirects();
    ScopedRedirects(const ScopedRedirects&) = delete;
    ScopedRedirects& operator=(const ScopedRedirects&) = delete;

   private:
    RedirectFrame frame_;
  };

 protected:
  // The scratch installed for this region on the current thread, or nullptr.
  const ScratchHeader* thread_redirect() const;

 private:
  static RegionId next_id();

  RegionId id_;
  IndexSpace space_;
  size_t elem_size_;
  std::string name_;
  uint64_t version_ = 0;
  std::atomic<int> redirect_epochs_{0};
};

template <typename T>
class Region final : public RegionBase {
 public:
  Region(IndexSpace space, std::string name)
      : RegionBase(space, sizeof(T), std::move(name)),
        data_(static_cast<size_t>(space.volume())) {}

  // 1-D element access.
  T& operator[](Coord i) {
    SPDISTAL_DCHECK(space().dim() == 1,
                    "1-D access on " << space().dim() << "-D");
    if (touch_logging_enabled()) record_touch(1, i, 0, 0);
    const Backing b = backing();
    return b.base[static_cast<size_t>(i - b.box->lo[0])];
  }
  const T& operator[](Coord i) const {
    return const_cast<Region*>(this)->operator[](i);
  }

  // 2-D element access (row-major).
  T& at2(Coord i, Coord j) {
    if (touch_logging_enabled()) record_touch(2, i, j, 0);
    const Backing bk = backing();
    const RectN& b = *bk.box;
    SPDISTAL_DCHECK(b.dim == 2, "2-D access on " << b.dim << "-D region");
    return bk.base[static_cast<size_t>(
        (i - b.lo[0]) * (b.hi[1] - b.lo[1] + 1) + (j - b.lo[1]))];
  }
  const T& at2(Coord i, Coord j) const {
    return const_cast<Region*>(this)->at2(i, j);
  }

  // 3-D element access (row-major).
  T& at3(Coord i, Coord j, Coord k) {
    if (touch_logging_enabled()) record_touch(3, i, j, k);
    const Backing bk = backing();
    const RectN& b = *bk.box;
    SPDISTAL_DCHECK(b.dim == 3, "3-D access on " << b.dim << "-D region");
    const Coord nj = b.hi[1] - b.lo[1] + 1;
    const Coord nk = b.hi[2] - b.lo[2] + 1;
    return bk.base[static_cast<size_t>(
        ((i - b.lo[0]) * nj + (j - b.lo[1])) * nk + (k - b.lo[2]))];
  }
  const T& at3(Coord i, Coord j, Coord k) const {
    return const_cast<Region*>(this)->at3(i, j, k);
  }

  // Direct row-major linearized access (any dimensionality). The row-major
  // layout matches the coordinate-tree position numbering of dense levels,
  // so sparse-storage walkers can address N-D dense vals by position. The
  // linear index is always relative to the region's *full* bounds; a
  // bounding-box scratch redirect translates.
  T& at_linear(Coord idx) {
    if (touch_logging_enabled()) {
      if (TouchLog* log = active_touch_log()) {
        log->sink(id(), space().dim())
            ->touch_linear(space().bounds(), idx);
      }
    }
    if (maybe_redirected()) {
      if (const ScratchHeader* s = thread_redirect()) {
        return static_cast<T*>(s->base)[static_cast<size_t>(
            translate_linear(space().bounds(), s->box, idx))];
      }
    }
    return data_[static_cast<size_t>(idx)];
  }
  const T& at_linear(Coord idx) const {
    return const_cast<Region*>(this)->at_linear(idx);
  }

  // Raw backing store: host-side use only (bulk init, I/O). Never consulted
  // through a task's reduction redirect.
  std::vector<T>& data() { return data_; }
  const std::vector<T>& data() const { return data_; }

  void fill(const T& v) { std::fill(data_.begin(), data_.end(), v); }

  // --- reduction privatization -----------------------------------------------
  bool can_privatize() const override { return std::is_arithmetic_v<T>; }

  std::shared_ptr<ScratchHeader> make_scratch(const RectN& box) const override {
    if constexpr (std::is_arithmetic_v<T>) {
      auto s = std::make_shared<TypedScratch>();
      s->hdr.box = box.intersect(space().bounds());
      const int64_t vol = s->hdr.box.volume();
      s->buf.assign(static_cast<size_t>(vol > 0 ? vol : 0), T{});
      s->hdr.base = s->buf.empty() ? nullptr : s->buf.data();
      return std::shared_ptr<ScratchHeader>(s, &s->hdr);
    } else {
      return nullptr;
    }
  }

  void fold_scratch(const ScratchHeader* scratch,
                    const IndexSubset& subset) override {
    if constexpr (std::is_arithmetic_v<T>) {
      const T* s = static_cast<const T*>(scratch->base);
      const RectN& box = scratch->box;
      const RectN& b = space().bounds();
      for (const RectN& rect : subset.rects()) {
        const RectN r = rect.intersect(b);
        if (r.empty()) continue;
        SPD_ASSERT(box.contains(r),
                   "fold_scratch: subset escapes scratch box on " << name());
        // Row-major odometer over the rectangle; the innermost dimension is
        // contiguous in both the region and the scratch box.
        std::array<Coord, kMaxDim> p{};
        for (int d = 0; d < r.dim; ++d) p[static_cast<size_t>(d)] = r.lo[d];
        while (true) {
          const int64_t dst = linearize(b, p);
          const int64_t src = linearize(box, p);
          const int64_t run = r.hi[r.dim - 1] - r.lo[r.dim - 1] + 1;
          for (int64_t k = 0; k < run; ++k) {
            data_[static_cast<size_t>(dst + k)] +=
                s[static_cast<size_t>(src + k)];
          }
          int d = r.dim - 2;
          for (; d >= 0; --d) {
            if (++p[static_cast<size_t>(d)] <= r.hi[d]) break;
            p[static_cast<size_t>(d)] = r.lo[d];
          }
          if (d < 0) break;
        }
      }
    } else {
      RegionBase::fold_scratch(scratch, subset);
    }
  }

  uint64_t content_hash(const IndexSubset& subset) const override {
    const RectN& b = space().bounds();
    uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
    const auto mix = [&h](const unsigned char* p, size_t n) {
      for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
      }
    };
    // Hashes the raw backing store (never a redirect): callers fingerprint
    // quiescent regions between launches.
    for (const RectN& rect : subset.rects()) {
      const RectN r = rect.intersect(b);
      if (r.empty()) continue;
      std::array<Coord, kMaxDim> p{};
      for (int d = 0; d < r.dim; ++d) p[static_cast<size_t>(d)] = r.lo[d];
      while (true) {
        const int64_t off = linearize(b, p);
        const int64_t run = r.hi[r.dim - 1] - r.lo[r.dim - 1] + 1;
        mix(reinterpret_cast<const unsigned char*>(data_.data() + off),
            static_cast<size_t>(run) * sizeof(T));
        int d = r.dim - 2;
        for (; d >= 0; --d) {
          if (++p[static_cast<size_t>(d)] <= r.hi[d]) break;
          p[static_cast<size_t>(d)] = r.lo[d];
        }
        if (d < 0) break;
      }
    }
    return h;
  }

 private:
  template <typename, int, bool>
  friend class RegionAccessor;
  template <typename, bool>
  friend class LinearAccessor;

  struct TypedScratch {
    ScratchHeader hdr;
    std::vector<T> buf;
  };

  // Verify-mode touch recording for the per-element paths (never taken when
  // touch logging is off; the enabled() relaxed load gates the call).
  void record_touch(int dim, Coord i, Coord j, Coord k) {
    if (TouchLog* log = active_touch_log()) {
      TouchSink* s = log->sink(id(), dim);
      if (dim == 1) {
        s->touch1(i);
      } else if (dim == 2) {
        s->touch2(i, j);
      } else {
        s->touch3(i, j, k);
      }
    }
  }

  // Backing buffer for element access: the thread's scratch (with its
  // bounding box) while a reduction redirect is installed for this region,
  // the real data (with the region's bounds) otherwise.
  struct Backing {
    T* base;
    const RectN* box;
  };
  Backing backing() {
    if (maybe_redirected()) {
      if (const ScratchHeader* s = thread_redirect()) {
        return Backing{static_cast<T*>(s->base), &s->box};
      }
    }
    return Backing{data_.data(), &space().bounds()};
  }

  // Row-major linear offset within `outer` -> offset of the same point
  // within `inner` (delinearize, then relinearize).
  static int64_t translate_linear(const RectN& outer, const RectN& inner,
                                  Coord idx) {
    std::array<Coord, kMaxDim> p{};
    int64_t rest = idx;
    for (int d = outer.dim - 1; d >= 0; --d) {
      const Coord extent = outer.hi[d] - outer.lo[d] + 1;
      p[static_cast<size_t>(d)] = outer.lo[d] + rest % extent;
      rest /= extent;
    }
    return linearize(inner, p);
  }

  std::vector<T> data_;
};

template <typename T>
using RegionRef = std::shared_ptr<Region<T>>;

// Convenience factory.
template <typename T>
RegionRef<T> make_region(IndexSpace space, std::string name) {
  return std::make_shared<Region<T>>(space, std::move(name));
}

// --- accessors (the kernel ABI) ----------------------------------------------

// Calls body.template operator()<Logged>() with Logged read once from
// touch_logging_enabled(). Leaves wrap each invocation in it and build every
// accessor with that flag, so with verify mode off their inner loops carry
// no per-element touch-log test:
//   return rt::dispatch_logged([&]<bool L>() { ... });
template <typename Body>
decltype(auto) dispatch_logged(Body&& body) {
  if (touch_logging_enabled()) return body.template operator()<true>();
  return body.template operator()<false>();
}

// The touch sink a new accessor records into: the thread's sink for the
// region when a logged accessor is built in verify mode, nullptr otherwise.
// An unlogged accessor built while touch logging is on fails: its accesses
// would escape the privilege checker.
template <bool Logged>
TouchSink* sink_for(RegionId id, int dim, const std::string& name) {
  if constexpr (Logged) {
    if (touch_logging_enabled()) {
      if (TouchLog* log = active_touch_log()) return log->sink(id, dim);
    }
  } else {
    (void)id;
    (void)dim;
    SPD_ASSERT(!touch_logging_enabled(),
               "unlogged accessor on " << name
                                       << " built while touch logging is on");
  }
  return nullptr;
}

// Coordinate-addressed accessor of a DIM-dimensional region, resolved once
// per leaf invocation: the redirect check happens at construction, element
// access is plain indexing off a raw pointer. Must be constructed *inside*
// the point-task body (after the executor installed the task's reduction
// redirects) and must not outlive it.
//
// `Logged` accessors record every element access into the thread's active
// touch log (verify mode) and pay a branch per access for it; unlogged ones
// pay nothing and must not be built while touch logging is on, since their
// accesses would escape the privilege checker.
//
// Writable by design even when constructed from a const reference — leaves
// receive operand and output tensors through the same storage handles, and
// const-ness of the underlying data is governed by the launch's privileges,
// not the C++ type.
template <typename T, int DIM = 1, bool Logged = true>
class RegionAccessor {
 public:
  RegionAccessor() = default;
  // `intent` tags the direction of every access made through this accessor
  // for the verify-mode touch log: kernels pass Access::Read on operand
  // accessors (values, pos, crd); outputs keep the ReadWrite default. The
  // tag has no effect on element access itself.
  explicit RegionAccessor(const Region<T>& region,
                          Access intent = Access::ReadWrite)
      : intent_(intent) {
    auto& r = const_cast<Region<T>&>(region);
    SPDISTAL_CHECK(r.space().dim() == DIM,
                   DIM << "-D accessor on " << r.space().dim() << "-D region "
                       << r.name());
    const auto b = r.backing();
    base_ = b.base;
    const RectN& box = *b.box;
    Coord stride = 1;
    for (int d = DIM - 1; d >= 0; --d) {
      lo_[static_cast<size_t>(d)] = box.lo[d];
      stride_[static_cast<size_t>(d)] = stride;
      stride *= box.hi[d] - box.lo[d] + 1;
    }
    sink_ = sink_for<Logged>(r.id(), DIM, r.name());
  }

  bool valid() const { return base_ != nullptr; }

  T& operator[](Coord i) const
    requires(DIM == 1)
  {
    if constexpr (Logged) {
      if (sink_) sink_->touch1(i, intent_);
    }
    return base_[static_cast<size_t>(i - lo_[0])];
  }
  T& operator()(Coord i, Coord j) const
    requires(DIM == 2)
  {
    if constexpr (Logged) {
      if (sink_) sink_->touch2(i, j, intent_);
    }
    return base_[static_cast<size_t>((i - lo_[0]) * stride_[0] +
                                     (j - lo_[1]))];
  }
  // Row i of a 2-D region as a 1-D view: row(i)[j] is (*this)(i, j), logged
  // alike. Taking the row once hoists its offset out of a j loop.
  struct Row {
    T* base = nullptr;  // element (i, lo of dim 1)
    Coord lo = 0;
    Coord i = 0;
    TouchSink* sink = nullptr;
    Access intent = Access::ReadWrite;
    T& operator[](Coord j) const {
      if constexpr (Logged) {
        if (sink) sink->touch2(i, j, intent);
      }
      return base[static_cast<size_t>(j - lo)];
    }
  };
  Row row(Coord i) const
    requires(DIM == 2)
  {
    return Row{base_ + (i - lo_[0]) * stride_[0], lo_[1], i, sink_, intent_};
  }
  T& operator()(Coord i, Coord j, Coord k) const
    requires(DIM == 3)
  {
    if constexpr (Logged) {
      if (sink_) sink_->touch3(i, j, k, intent_);
    }
    return base_[static_cast<size_t>((i - lo_[0]) * stride_[0] +
                                     (j - lo_[1]) * stride_[1] +
                                     (k - lo_[2]))];
  }

 private:
  T* base_ = nullptr;
  std::array<Coord, DIM> lo_{};
  std::array<Coord, DIM> stride_{};
  TouchSink* sink_ = nullptr;
  Access intent_ = Access::ReadWrite;
};

// Position-addressed accessor: indices are row-major linear offsets within
// the region's full bounds (the coordinate-tree position numbering used by
// sparse-storage walkers), whatever the region's rank. The common path is a
// single indexed load/store; only a bounding-box scratch redirect pays a
// per-access translation. `Logged` as in RegionAccessor.
template <typename T, bool Logged = true>
class LinearAccessor {
 public:
  LinearAccessor() = default;
  // See RegionAccessor: `intent` tags the touch log's access direction.
  explicit LinearAccessor(const Region<T>& region,
                          Access intent = Access::ReadWrite)
      : intent_(intent) {
    auto& r = const_cast<Region<T>&>(region);
    const auto b = r.backing();
    base_ = b.base;
    outer_ = &r.space().bounds();
    box_ = b.box;
    direct_ = (box_ == outer_) || (*box_ == *outer_);
    sink_ = sink_for<Logged>(r.id(), r.space().dim(), r.name());
  }

  bool valid() const { return base_ != nullptr; }

  T& at(Coord idx) const {
    if constexpr (Logged) {
      if (sink_) sink_->touch_linear(*outer_, idx, intent_);
    }
    if (direct_) return base_[static_cast<size_t>(idx)];
    return base_[static_cast<size_t>(
        Region<T>::translate_linear(*outer_, *box_, idx))];
  }

 private:
  T* base_ = nullptr;
  const RectN* outer_ = nullptr;  // region bounds (linear-index frame)
  const RectN* box_ = nullptr;    // backing-buffer box (scratch or region)
  bool direct_ = true;
  TouchSink* sink_ = nullptr;
  Access intent_ = Access::ReadWrite;
};

}  // namespace spdistal::rt
