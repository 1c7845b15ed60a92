#include "src/core/constraints.h"

#include <algorithm>
#include <set>

#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/vm/phys_memory.h"

namespace omos {

namespace {

// Registry counters for the layout solver; looked up once (pointers are
// stable for the process lifetime). docs/observability.md lists them.
struct SolverMetrics {
  Counter* places = MetricsRegistry::Global().GetCounter("solver.places");
  Counter* reuses = MetricsRegistry::Global().GetCounter("solver.reuses");
  Counter* conflicts = MetricsRegistry::Global().GetCounter("solver.conflicts");
  Counter* moves = MetricsRegistry::Global().GetCounter("solver.moves");
  Counter* resolves = MetricsRegistry::Global().GetCounter("solver.resolves");
};

SolverMetrics& Metrics() {
  static SolverMetrics* metrics = new SolverMetrics();
  return *metrics;
}

}  // namespace

ConstraintSolver::ConstraintSolver(Arenas arenas) : arenas_(arenas) {}

const ConstraintSolver::Range* ConstraintSolver::FindOverlap(
    const std::map<uint32_t, Range>& ranges, uint32_t base, uint32_t size) {
  auto it = ranges.upper_bound(base);
  if (it != ranges.begin()) {
    auto prev = std::prev(it);
    if (prev->second.base + prev->second.size > base) {
      return &prev->second;
    }
  }
  if (it != ranges.end() && it->second.base < base + size) {
    return &it->second;
  }
  return nullptr;
}

Result<uint32_t> ConstraintSolver::Fit(std::map<uint32_t, Range>& ranges, uint32_t lo, uint32_t hi,
                                       uint32_t size, std::optional<uint32_t> preferred,
                                       const std::string& object) {
  size = PageAlignUp(std::max<uint32_t>(size, 1));
  if (preferred.has_value()) {
    uint32_t base = PageAlignDown(*preferred);
    const Range* overlap = FindOverlap(ranges, base, size);
    if (overlap == nullptr && base >= lo && base + size <= hi) {
      ranges.emplace(base, Range{base, size, object});
      return base;
    }
    // Weak constraint lost to the required no-overlap constraint; spill and
    // record the conflict for the system manager / feedback loop (§3.5).
    uint32_t got = 0;
    uint32_t cursor = lo;
    for (const auto& [rbase, range] : ranges) {
      if (cursor + size <= range.base) {
        break;
      }
      cursor = std::max(cursor, range.base + range.size);
    }
    if (cursor + size > hi) {
      return Err(ErrorCode::kConstraintConflict,
                 StrCat("no address space for ", object, " (", size, " bytes)"));
    }
    got = cursor;
    conflicts_.push_back(
        ConflictRecord{object, *preferred, got, overlap != nullptr ? overlap->owner : "arena"});
    Metrics().conflicts->Add();
    ranges.emplace(got, Range{got, size, object});
    return got;
  }
  uint32_t cursor = lo;
  for (const auto& [rbase, range] : ranges) {
    if (cursor + size <= range.base) {
      break;
    }
    cursor = std::max(cursor, range.base + range.size);
  }
  if (cursor + size > hi) {
    return Err(ErrorCode::kConstraintConflict,
               StrCat("no address space for ", object, " (", size, " bytes)"));
  }
  ranges.emplace(cursor, Range{cursor, size, object});
  return cursor;
}

Result<Placement> ConstraintSolver::Place(const std::string& object, uint32_t text_size,
                                          uint32_t data_size, const PlacementHints& hints) {
  auto it = placements_.find(object);
  bool regrow = false;
  if (it != placements_.end()) {
    // Strong constraint: reuse the existing implementation's placement when
    // it still fits this request.
    if (it->second.text_size >= text_size && it->second.data_size >= data_size) {
      Placement reused = it->second.placement;
      reused.reused = true;
      Metrics().reuses->Add();
      return reused;
    }
    Release(object);
    // The object outgrew its home: the refit below moves a live placement,
    // so it counts as a move.
    regrow = true;
  }
  OMOS_TRY(uint32_t text_base, Fit(text_ranges_, arenas_.text_lo, arenas_.text_hi, text_size,
                                   hints.text_base, object));
  auto data = Fit(data_ranges_, arenas_.data_lo, arenas_.data_hi, data_size, hints.data_base,
                  object);
  if (!data.ok()) {
    // Roll back the text reservation.
    text_ranges_.erase(text_base);
    return data.error();
  }
  if (regrow) {
    Metrics().moves->Add();
  }
  Placement placement{text_base, std::move(data).value()};
  placements_[object] = Record{placement, text_size, data_size};
  Metrics().places->Add();
  return placement;
}

const Placement* ConstraintSolver::Find(const std::string& object) const {
  auto it = placements_.find(object);
  return it == placements_.end() ? nullptr : &it->second.placement;
}

std::vector<std::string> ConstraintSolver::OptimizePlacements() {
  // Deterministic re-pack: objects in name order, first-fit from the arena
  // base. Larger address-space churn is acceptable here — this is the
  // occasional administrative pass, not the per-request path.
  std::vector<std::string> changed;
  std::map<std::string, Record> old = std::move(placements_);
  placements_.clear();
  text_ranges_.clear();
  data_ranges_.clear();
  conflicts_.clear();
  for (const auto& [object, record] : old) {
    auto text = Fit(text_ranges_, arenas_.text_lo, arenas_.text_hi, record.text_size,
                    std::nullopt, object);
    auto data = Fit(data_ranges_, arenas_.data_lo, arenas_.data_hi, record.data_size,
                    std::nullopt, object);
    if (!text.ok() || !data.ok()) {
      continue;  // arena exhaustion cannot happen while re-packing a subset
    }
    Placement placement{std::move(text).value(), std::move(data).value()};
    if (placement.text_base != record.placement.text_base ||
        placement.data_base != record.placement.data_base) {
      changed.push_back(object);
    }
    placements_[object] = Record{placement, record.text_size, record.data_size};
  }
  Metrics().moves->Add(changed.size());
  return changed;
}

std::vector<std::string> ConstraintSolver::SolveNamespace() {
  Metrics().resolves->Add();
  if (conflicts_.empty()) {
    return {};  // the current layout already satisfies every client
  }
  // Deterministic order: conflicted objects by name, each handled once even
  // if it spilled repeatedly.
  std::set<std::string> pending;
  std::map<std::string, uint32_t> wanted;
  for (const ConflictRecord& conflict : conflicts_) {
    if (placements_.count(conflict.object) > 0 && pending.insert(conflict.object).second) {
      wanted[conflict.object] = conflict.wanted;
    }
  }
  std::vector<std::string> moved;
  size_t consumed = conflicts_.size();  // records that drove this pass
  for (const std::string& object : pending) {
    Record record = placements_.at(object);
    Release(object);
    PlacementHints hints;
    hints.text_base = wanted.at(object);
    size_t conflicts_before = conflicts_.size();
    auto text = Fit(text_ranges_, arenas_.text_lo, arenas_.text_hi, record.text_size,
                    hints.text_base, object);
    auto data = Fit(data_ranges_, arenas_.data_lo, arenas_.data_hi, record.data_size,
                    std::nullopt, object);
    // Whether the wanted base freed up or not, Fit produced *some* home (the
    // arenas still held this object a moment ago); a re-spill just re-logs
    // the conflict for the next pass.
    if (!text.ok() || !data.ok()) {
      conflicts_.resize(conflicts_before);
      // Put the old placement back; nothing changed for this object.
      text_ranges_.emplace(record.placement.text_base,
                           Range{record.placement.text_base,
                                 PageAlignUp(std::max<uint32_t>(record.text_size, 1)), object});
      data_ranges_.emplace(record.placement.data_base,
                           Range{record.placement.data_base,
                                 PageAlignUp(std::max<uint32_t>(record.data_size, 1)), object});
      placements_[object] = record;
      continue;
    }
    Placement placement{std::move(text).value(), std::move(data).value()};
    if (placement.text_base != record.placement.text_base ||
        placement.data_base != record.placement.data_base) {
      moved.push_back(object);
    }
    placements_[object] = Record{placement, record.text_size, record.data_size};
  }
  // Conflicts that drove this pass are resolved; re-spills logged above
  // (appended past `consumed`, possibly for the same objects) stay for the
  // next pass. Drop only the records we consumed.
  std::vector<ConflictRecord> remaining;
  for (size_t i = 0; i < conflicts_.size(); ++i) {
    if (i >= consumed || pending.count(conflicts_[i].object) == 0) {
      remaining.push_back(conflicts_[i]);
    }
  }
  conflicts_ = std::move(remaining);
  Metrics().moves->Add(moved.size());
  return moved;
}

std::vector<PlacementRecord> ConstraintSolver::ExportPlacements() const {
  std::vector<PlacementRecord> records;
  records.reserve(placements_.size());
  for (const auto& [object, record] : placements_) {
    records.push_back(
        PlacementRecord{object, record.placement, record.text_size, record.data_size});
  }
  return records;
}

Result<void> ConstraintSolver::AdoptPlacement(const PlacementRecord& record) {
  Release(record.object);  // adopting replaces any placement we invented
  uint32_t text_size = PageAlignUp(std::max<uint32_t>(record.text_size, 1));
  uint32_t data_size = PageAlignUp(std::max<uint32_t>(record.data_size, 1));
  const Range* text_clash = FindOverlap(text_ranges_, record.placement.text_base, text_size);
  const Range* data_clash = FindOverlap(data_ranges_, record.placement.data_base, data_size);
  if (text_clash != nullptr || data_clash != nullptr) {
    return Err(ErrorCode::kConstraintConflict,
               StrCat("cannot adopt placement for ", record.object, ": range owned by ",
                      text_clash != nullptr ? text_clash->owner : data_clash->owner));
  }
  text_ranges_.emplace(record.placement.text_base,
                       Range{record.placement.text_base, text_size, record.object});
  data_ranges_.emplace(record.placement.data_base,
                       Range{record.placement.data_base, data_size, record.object});
  Placement placement = record.placement;
  placement.reused = false;
  placements_[record.object] = Record{placement, record.text_size, record.data_size};
  return OkResult();
}

void ConstraintSolver::Release(const std::string& object) {
  auto it = placements_.find(object);
  if (it == placements_.end()) {
    return;
  }
  text_ranges_.erase(it->second.placement.text_base);
  data_ranges_.erase(it->second.placement.data_base);
  placements_.erase(it);
}

}  // namespace omos
