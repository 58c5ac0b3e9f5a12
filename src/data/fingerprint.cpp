#include "data/fingerprint.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "common/str_util.h"
#include "format/storage.h"

namespace spdistal::data {

using rt::Coord;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Relative difference of two non-negative counts in [0, 1].
double rel_diff(int64_t a, int64_t b) {
  const int64_t hi = std::max({a, b, int64_t{1}});
  return static_cast<double>(std::abs(a - b)) / static_cast<double>(hi);
}

// Half the L1 distance of the two mass-normalized histograms: 0 for equal
// shapes, 1 for disjoint support. Two empty histograms are identical.
template <size_t N>
double shape_dist(const std::array<int64_t, N>& a,
                  const std::array<int64_t, N>& b) {
  int64_t ta = 0, tb = 0;
  for (int64_t v : a) ta += v;
  for (int64_t v : b) tb += v;
  if (ta == 0 && tb == 0) return 0.0;
  if (ta == 0 || tb == 0) return 1.0;
  double l1 = 0;
  for (size_t i = 0; i < N; ++i) {
    l1 += std::abs(static_cast<double>(a[i]) / static_cast<double>(ta) -
                   static_cast<double>(b[i]) / static_cast<double>(tb));
  }
  return l1 / 2.0;
}

// Parses "name[c0,c1,...]" at `pos`, advancing past the closing ']'.
template <typename Push>
bool parse_list(const std::string& s, size_t& pos, char name, Push push) {
  if (pos >= s.size() || s[pos] != name) return false;
  ++pos;
  if (pos >= s.size() || s[pos] != '[') return false;
  ++pos;
  if (pos < s.size() && s[pos] == ']') {  // empty list
    ++pos;
    return true;
  }
  while (pos < s.size()) {
    char* end = nullptr;
    const long long v = std::strtoll(s.c_str() + pos, &end, 10);
    if (end == s.c_str() + pos) return false;
    pos = static_cast<size_t>(end - s.c_str());
    if (!push(static_cast<int64_t>(v))) return false;
    if (pos < s.size() && s[pos] == ',') {
      ++pos;
      continue;
    }
    if (pos < s.size() && s[pos] == ']') {
      ++pos;
      return true;
    }
    return false;
  }
  return false;
}

}  // namespace

std::string SparsityFingerprint::str() const {
  std::ostringstream os;
  os << "d[" << join(dims, ",") << "]";
  if (has_pattern) {
    os << ";n" << nnz << ";h[" << join(hist, ",") << "];g["
       << join(degree, ",") << "]";
  }
  return os.str();
}

std::optional<SparsityFingerprint> SparsityFingerprint::parse(
    const std::string& s) {
  SparsityFingerprint fp;
  size_t pos = 0;
  if (!parse_list(s, pos, 'd', [&](int64_t v) {
        fp.dims.push_back(static_cast<Coord>(v));
        return true;
      })) {
    return std::nullopt;
  }
  if (pos == s.size()) return fp;  // structural-only
  if (s[pos] != ';') return std::nullopt;
  ++pos;
  if (pos >= s.size() || s[pos] != 'n') return std::nullopt;
  ++pos;
  char* end = nullptr;
  fp.nnz = std::strtoll(s.c_str() + pos, &end, 10);
  if (end == s.c_str() + pos) return std::nullopt;
  pos = static_cast<size_t>(end - s.c_str());
  if (pos >= s.size() || s[pos] != ';') return std::nullopt;
  ++pos;
  size_t hi = 0;
  if (!parse_list(s, pos, 'h', [&](int64_t v) {
        if (hi >= fp.hist.size()) return false;
        fp.hist[hi++] = v;
        return true;
      }) ||
      hi != fp.hist.size()) {
    return std::nullopt;
  }
  if (pos >= s.size() || s[pos] != ';') return std::nullopt;
  ++pos;
  size_t gi = 0;
  if (!parse_list(s, pos, 'g', [&](int64_t v) {
        if (gi >= fp.degree.size()) return false;
        fp.degree[gi++] = v;
        return true;
      }) ||
      gi != fp.degree.size() || pos != s.size()) {
    return std::nullopt;
  }
  fp.has_pattern = true;
  return fp;
}

double SparsityFingerprint::distance(const SparsityFingerprint& o) const {
  if (dims.size() != o.dims.size() || has_pattern != o.has_pattern)
    return kInf;
  double d = 0;
  for (size_t i = 0; i < dims.size(); ++i) {
    d = std::max(d, rel_diff(dims[i], o.dims[i]));
  }
  if (!has_pattern) return d;
  d = std::max(d, rel_diff(nnz, o.nnz));
  d = std::max(d, shape_dist(hist, o.hist));
  d = std::max(d, shape_dist(degree, o.degree));
  return d;
}

namespace {

// Stored values under each root-level position, i.e. the values the
// coordinate tree's walk visits below it: one per last-level position,
// summed up the chain. Empty means "one per position" (a one-level tree).
std::vector<int64_t> values_under_root(const fmt::TensorStorage& st) {
  std::vector<int64_t> under;
  for (int c = st.num_levels() - 1; c > 0; --c) {
    const fmt::LevelStorage& child = st.level(c);
    std::vector<int64_t> up(static_cast<size_t>(child.parent_positions));
    const auto at = [&under](Coord q) {
      return under.empty() ? int64_t{1} : under[static_cast<size_t>(q)];
    };
    for (Coord p = 0; p < child.parent_positions; ++p) {
      int64_t sum = 0;
      if (child.kind.is_dense()) {
        for (Coord q = p * child.extent; q < (p + 1) * child.extent; ++q) {
          sum += at(q);
        }
      } else if (child.kind.is_singleton()) {
        sum = at(p);
      } else {
        const rt::PosRange r = child.pos->data()[static_cast<size_t>(p)];
        if (under.empty()) {
          sum = r.hi - r.lo + 1;
        } else {
          for (Coord q = r.lo; q <= r.hi; ++q) sum += at(q);
        }
      }
      up[static_cast<size_t>(p)] = sum;
    }
    under = std::move(up);
  }
  return under;
}

}  // namespace

SparsityFingerprint fingerprint(const fmt::TensorStorage& st) {
  SparsityFingerprint fp;
  fp.dims = st.dims();
  if (st.format().all_dense()) return fp;
  fp.has_pattern = true;
  fp.nnz = st.nnz();
  const fmt::LevelStorage& top = st.level(0);
  const Coord extent = std::max<Coord>(top.extent, 1);
  // (top coordinate, stored values under it) per top-level position; a
  // non-unique root repeats coordinates, so equal ones are merged below.
  std::vector<std::pair<Coord, int64_t>> rows;
  if (top.kind.is_blocked()) {
    // A stored block (bi, bj) holds R*C lanes, padding included; row
    // bi*R + r gets the lanes of its columns inside the extent.
    const fmt::LevelStorage& blk = st.level(1);
    const Coord R = top.kind.block();
    const Coord C = blk.kind.block();
    for (Coord bi = 0; bi < top.positions; ++bi) {
      const rt::PosRange r = blk.pos->data()[static_cast<size_t>(bi)];
      int64_t lanes = 0;
      for (Coord q = r.lo; q <= r.hi; ++q) {
        const Coord bj = blk.crd->data()[static_cast<size_t>(q)];
        lanes += std::min(C, blk.extent - bj * C);
      }
      for (Coord i = bi * R; i < std::min((bi + 1) * R, top.extent); ++i) {
        rows.emplace_back(i, lanes);
      }
    }
  } else {
    const std::vector<int64_t> under = values_under_root(st);
    for (Coord q = 0; q < top.positions; ++q) {
      const Coord c =
          top.kind.is_dense() ? q : top.crd->data()[static_cast<size_t>(q)];
      rows.emplace_back(c, under.empty() ? 1 : under[static_cast<size_t>(q)]);
    }
  }
  if (!std::is_sorted(rows.begin(), rows.end())) {
    std::sort(rows.begin(), rows.end());
  }
  for (size_t r = 0; r < rows.size();) {
    const Coord row = rows[r].first;
    int64_t deg = 0;
    for (; r < rows.size() && rows[r].first == row; ++r) deg += rows[r].second;
    if (deg == 0) continue;
    const size_t b =
        static_cast<size_t>(row * SparsityFingerprint::kHistBuckets / extent);
    fp.hist[std::min<size_t>(b, SparsityFingerprint::kHistBuckets - 1)] += deg;
    int g = 0;
    while ((int64_t{1} << (g + 1)) <= deg &&
           g + 1 < SparsityFingerprint::kDegreeBuckets) {
      ++g;
    }
    fp.degree[static_cast<size_t>(g)]++;
  }
  return fp;
}

SparsityFingerprint dense_fingerprint(const std::vector<Coord>& dims) {
  SparsityFingerprint fp;
  fp.dims = dims;
  return fp;
}

std::string fingerprints_str(const std::vector<SparsityFingerprint>& fps) {
  std::ostringstream os;
  for (size_t i = 0; i < fps.size(); ++i) {
    if (i > 0) os << "|";
    os << fps[i].str();
  }
  return os.str();
}

std::optional<std::vector<SparsityFingerprint>> parse_fingerprints(
    const std::string& s) {
  std::vector<SparsityFingerprint> fps;
  if (s.empty()) return fps;
  size_t begin = 0;
  while (true) {
    const size_t sep = s.find('|', begin);
    const std::string part = sep == std::string::npos
                                 ? s.substr(begin)
                                 : s.substr(begin, sep - begin);
    auto fp = SparsityFingerprint::parse(part);
    if (!fp) return std::nullopt;
    fps.push_back(std::move(*fp));
    if (sep == std::string::npos) break;
    begin = sep + 1;
  }
  return fps;
}

double fingerprints_distance(const std::vector<SparsityFingerprint>& a,
                             const std::vector<SparsityFingerprint>& b) {
  if (a.size() != b.size()) return kInf;
  double d = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, a[i].distance(b[i]));
  }
  return d;
}

}  // namespace spdistal::data
