#include "exec/dep_graph.h"

#include <algorithm>

namespace spdistal::exec {

namespace {
// Histories beyond this size are collapsed behind a sync task. Large enough
// that steady-state launch loops (a handful of entries per piece) never hit
// it; reached only by pathological submission patterns (e.g. hundreds of
// read launches with no intervening write).
constexpr size_t kMaxHistory = 128;
}  // namespace

bool modes_conflict(AccessMode a, bool a_privatized, AccessMode b,
                    bool b_privatized) {
  if (a == AccessMode::Read && b == AccessMode::Read) return false;
  if (a == AccessMode::Reduce && b == AccessMode::Reduce) {
    return !(a_privatized && b_privatized);
  }
  return true;
}

std::vector<TaskId> DepTracker::deps_for(
    const std::vector<RegionAccess>& accesses) const {
  std::vector<TaskId> deps;
  for (const RegionAccess& a : accesses) {
    if (a.subset.empty()) continue;
    auto it = hist_.find(a.region);
    if (it == hist_.end()) continue;
    for (const Entry& e : it->second) {
      if (!modes_conflict(e.mode, e.privatized, a.mode, a.privatized)) {
        continue;
      }
      if (!e.subset.overlaps(a.subset)) continue;
      deps.push_back(e.completion);
    }
  }
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  return deps;
}

void DepTracker::record(TaskId completion,
                        const std::vector<RegionAccess>& accesses,
                        const std::vector<size_t>& which) {
  for (size_t i : which) record_one(completion, accesses[i]);
}

void DepTracker::record(TaskId completion,
                        const std::vector<RegionAccess>& accesses) {
  for (const RegionAccess& a : accesses) record_one(completion, a);
}

void DepTracker::record_one(TaskId completion, const RegionAccess& a) {
  if (a.subset.empty()) return;
  std::vector<Entry>& entries = hist_[a.region];
  if (a.mode == AccessMode::Write || a.mode == AccessMode::ReadWrite) {
    // A write supersedes every entry it fully covers: the writer carries
    // edges to all of them (writes conflict with everything overlapping),
    // so later tasks serialize behind it transitively.
    entries.erase(
        std::remove_if(entries.begin(), entries.end(),
                       [&](const Entry& e) {
                         return a.subset.covers(e.subset);
                       }),
        entries.end());
  }
  entries.push_back(Entry{completion, a.subset, a.mode, a.privatized});
  if (entries.size() > kMaxHistory) {
    // Collapse behind a no-op sync node depending on every entry; the
    // union subset with ReadWrite mode conservatively orders any later
    // access after the sync.
    std::vector<TaskId> deps;
    rt::IndexSubset all(entries.front().subset.dim());
    for (const Entry& e : entries) {
      deps.push_back(e.completion);
      if (all.dim() == 1) {
        // Launch loops re-read the same subsets, so most entries are
        // already in the union: the allocation-free cover test skips
        // their merge.
        if (!all.covers(e.subset)) all = all.unite(e.subset);
      } else {
        for (const auto& r : e.subset.rects()) all.add(r);
      }
    }
    all.normalize();  // a no-op on the merged 1-D union
    const TaskId sync = ex_->submit("dep-sync", nullptr, deps);
    entries.clear();
    entries.push_back(Entry{sync, std::move(all), AccessMode::ReadWrite,
                            false});
  }
}

size_t DepTracker::history_size() const {
  size_t n = 0;
  for (const auto& [id, entries] : hist_) n += entries.size();
  return n;
}

}  // namespace spdistal::exec
