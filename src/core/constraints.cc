#include "src/core/constraints.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <tuple>

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

struct Range {
  uint32_t base = 0;
  uint32_t size = 0;
  // The record of the lease holding the range (or, in a layout a pass only
  // plans, of the object it is planned for).
  const PlacementRecord* owner = nullptr;
};
using RangeMap = std::map<uint32_t, Range>;

uint32_t Span(uint32_t size) { return PageAlignUp(std::max<uint32_t>(size, 1)); }

// The first range in `ranges` overlapping [base, base + size) for which
// `skip` is false, or null.
template <typename Skip>
const Range* FindOverlapIf(const RangeMap& ranges, uint32_t base, uint32_t size, Skip skip) {
  auto it = ranges.upper_bound(base);
  if (it != ranges.begin()) {
    --it;
  }
  for (; it != ranges.end() && it->second.base < base + size; ++it) {
    if (it->second.base + it->second.size > base && !skip(it->second)) {
      return &it->second;
    }
  }
  return nullptr;
}

const Range* FindOverlap(const RangeMap& ranges, uint32_t base, uint32_t size) {
  return FindOverlapIf(ranges, base, size, [](const Range&) { return false; });
}

// First fit of `size` (already page-aligned) within [lo, hi); honours
// `preferred` when free, else spills and describes the lost hint in
// `*conflict`.
Result<uint32_t> Fit(const RangeMap& ranges, uint32_t lo, uint32_t hi, uint32_t size,
                     std::optional<uint32_t> preferred, const std::string& object,
                     std::optional<ConflictRecord>* conflict) {
  const Range* overlap = nullptr;
  if (preferred.has_value()) {
    uint32_t base = PageAlignDown(*preferred);
    overlap = FindOverlap(ranges, base, size);
    if (overlap == nullptr && base >= lo && base + size <= hi) {
      return base;
    }
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
  if (preferred.has_value()) {
    // Weak constraint lost to the required no-overlap constraint; record the
    // conflict for the system manager / feedback loop (§3.5).
    *conflict = ConflictRecord{object, *preferred, cursor,
                               overlap != nullptr ? overlap->owner->object : "arena"};
  }
  return cursor;
}

}  // namespace

struct SolverState {
  explicit SolverState(SolverArenas arenas) : arenas(arenas) {}

  std::mutex mu;  // a leaf: guards everything below
  const SolverArenas arenas;
  // Every live lease's ranges, by base.
  RangeMap text_ranges;
  RangeMap data_ranges;
  // Each object's current lease. An entry names a live lease: a dying one
  // erases its own under `mu`. A reference is taken only through `ref`: a
  // weak_ptr conversion would take (and might be left holding the last of)
  // a strong one under `mu`.
  struct Current {
    const PlacementLease* lease = nullptr;
    std::weak_ptr<const PlacementLease> ref;
  };
  std::map<std::string, Current> current;
  // Current leases the solver holds itself (adopted homes) until an image
  // holding them is published.
  std::map<std::string, PlacementRef> pinned;
  std::vector<ConflictRecord> conflicts;

  bool Free(const PlacementRecord& record) const {
    return FindOverlap(text_ranges, record.placement.text_base, Span(record.text_size)) ==
               nullptr &&
           FindOverlap(data_ranges, record.placement.data_base, Span(record.data_size)) == nullptr;
  }
  // Whether the lease owning `record` is its object's current lease.
  bool IsCurrent(const PlacementRecord* record) const {
    auto it = current.find(record->object);
    return it != current.end() && &it->second.lease->record() == record;
  }
  // Retires `object`, moving its pin (if any) to `dropped`: the caller
  // releases it after unlocking, since the pin may be the last reference.
  void Retire(const std::string& object, std::vector<PlacementRef>& dropped) {
    current.erase(object);
    if (auto it = pinned.find(object); it != pinned.end()) {
      dropped.push_back(std::move(it->second));
      pinned.erase(it);
    }
  }
};

PlacementLease::PlacementLease(std::shared_ptr<SolverState> state, PlacementRecord record)
    : state_(std::move(state)), record_(std::move(record)) {}

PlacementLease::~PlacementLease() {
  std::lock_guard<std::mutex> lock(state_->mu);
  for (auto [ranges, base] : {std::pair{&state_->text_ranges, text_base()},
                              std::pair{&state_->data_ranges, data_base()}}) {
    if (auto it = ranges->find(base); it != ranges->end() && it->second.owner == &record_) {
      ranges->erase(it);
    }
  }
  if (state_->IsCurrent(&record_)) {
    state_->current.erase(object());
  }
}

ConstraintSolver::ConstraintSolver(Arenas arenas)
    : state_(std::make_shared<SolverState>(arenas)) {}

ConstraintSolver::~ConstraintSolver() {
  // Held leases outlive the solver (they share its state); only the pins
  // are the solver's own, released after the lock.
  std::map<std::string, PlacementRef> pins;
  std::lock_guard<std::mutex> lock(state_->mu);
  pins.swap(state_->pinned);
}

PlacementRef ConstraintSolver::NewLease(PlacementRecord record) {
  SolverState& s = *state_;
  PlacementRef lease = std::make_shared<const PlacementLease>(state_, std::move(record));
  const PlacementRecord& r = lease->record();
  s.text_ranges.emplace(r.placement.text_base, Range{r.placement.text_base, Span(r.text_size), &r});
  s.data_ranges.emplace(r.placement.data_base, Range{r.placement.data_base, Span(r.data_size), &r});
  s.current[r.object] = SolverState::Current{lease.get(), lease};
  Metrics().places->Add();
  return lease;
}

Result<PlacementRef> ConstraintSolver::Place(const std::string& object, uint32_t text_size,
                                             uint32_t data_size, const PlacementHints& hints,
                                             bool* conflicted) {
  std::vector<PlacementRef> dropped;  // released after the lock
  std::lock_guard<std::mutex> lock(state_->mu);
  SolverState& s = *state_;
  bool regrow = false;
  if (auto it = s.current.find(object); it != s.current.end()) {
    const PlacementRecord& live = it->second.lease->record();
    if (live.text_size >= text_size && live.data_size >= data_size) {
      // Strong constraint: reuse the live placement. Its last holder may be
      // dropping it right now; then it is as good as gone.
      if (PlacementRef reused = it->second.ref.lock()) {
        Metrics().reuses->Add();
        return reused;
      }
    } else {
      regrow = true;  // the object outgrew its home: the refit below moves it
    }
    s.Retire(object, dropped);
  }
  std::optional<ConflictRecord> text_conflict;
  std::optional<ConflictRecord> data_conflict;
  OMOS_TRY(uint32_t text_base, Fit(s.text_ranges, s.arenas.text_lo, s.arenas.text_hi,
                                   Span(text_size), hints.text_base, object, &text_conflict));
  OMOS_TRY(uint32_t data_base, Fit(s.data_ranges, s.arenas.data_lo, s.arenas.data_hi,
                                   Span(data_size), hints.data_base, object, &data_conflict));
  if (data_conflict.has_value()) {
    data_conflict->data = true;
  }
  for (std::optional<ConflictRecord>* conflict : {&text_conflict, &data_conflict}) {
    if (conflict->has_value()) {
      s.conflicts.push_back(std::move(**conflict));
      Metrics().conflicts->Add();
    }
  }
  if (conflicted != nullptr) {
    *conflicted = text_conflict.has_value() || data_conflict.has_value();
  }
  if (regrow) {
    Metrics().moves->Add();
  }
  return NewLease(PlacementRecord{object, Placement{text_base, data_base}, text_size, data_size});
}

void ConstraintSolver::Retire(const std::string& object) {
  std::vector<PlacementRef> dropped;  // released after the lock
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->Retire(object, dropped);
}

bool ConstraintSolver::Settle(const PlacementLease* own,
                              std::span<const PlacementLease* const> deps) {
  PlacementRef pin;  // released after the lock
  std::lock_guard<std::mutex> lock(state_->mu);
  auto current = [&](const PlacementLease* lease) {
    return lease == nullptr || state_->IsCurrent(&lease->record());
  };
  if (!current(own) || !std::all_of(deps.begin(), deps.end(), current)) {
    return false;
  }
  if (own != nullptr) {
    auto it = state_->pinned.find(own->object());
    if (it != state_->pinned.end() && it->second.get() == own) {
      pin = std::move(it->second);
      state_->pinned.erase(it);
    }
  }
  return true;
}

PlacementRef ConstraintSolver::Find(const std::string& object) const {
  std::lock_guard<std::mutex> lock(state_->mu);
  auto it = state_->current.find(object);
  return it == state_->current.end() ? nullptr : it->second.ref.lock();
}

std::vector<ConflictRecord> ConstraintSolver::conflicts() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->conflicts;
}

size_t ConstraintSolver::placed_count() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->text_ranges.size();
}

std::vector<PlacementRecord> ConstraintSolver::OptimizePlacements() {
  // Deterministic re-pack: objects in name order, first-fit from the arena
  // base. Larger address-space churn is acceptable here — this is the
  // occasional administrative pass, not the per-request path.
  std::vector<PlacementRef> dropped;  // released after the lock
  std::lock_guard<std::mutex> lock(state_->mu);
  SolverState& s = *state_;
  s.conflicts.clear();
  RangeMap text;
  RangeMap data;
  std::vector<PlacementRecord> changed;
  for (const auto& [object, entry] : s.current) {
    const PlacementRecord& live = entry.lease->record();
    std::optional<ConflictRecord> unused;
    auto text_base = Fit(text, s.arenas.text_lo, s.arenas.text_hi, Span(live.text_size),
                         std::nullopt, object, &unused);
    auto data_base = Fit(data, s.arenas.data_lo, s.arenas.data_hi, Span(live.data_size),
                         std::nullopt, object, &unused);
    if (!text_base.ok() || !data_base.ok()) {
      continue;  // arena exhaustion cannot happen while re-packing a subset
    }
    text.emplace(*text_base, Range{*text_base, Span(live.text_size), &live});
    data.emplace(*data_base, Range{*data_base, Span(live.data_size), &live});
    if (*text_base != live.placement.text_base || *data_base != live.placement.data_base) {
      changed.push_back(
          PlacementRecord{object, Placement{*text_base, *data_base}, live.text_size, live.data_size});
    }
  }
  for (const PlacementRecord& record : changed) {
    s.Retire(record.object, dropped);
  }
  Metrics().moves->Add(changed.size());
  return changed;
}

std::vector<PlacementRecord> ConstraintSolver::SolveNamespace() {
  Metrics().resolves->Add();
  std::vector<PlacementRef> dropped;  // released after the lock
  std::lock_guard<std::mutex> lock(state_->mu);
  SolverState& s = *state_;
  if (s.conflicts.empty()) {
    return {};  // the current layout already satisfies every client
  }
  // The latest conflict of each object still placed in each arena, by name
  // (text first); what is not resolved stays logged for the next pass, once.
  std::map<std::pair<std::string, bool>, ConflictRecord> latest;
  for (ConflictRecord& conflict : s.conflicts) {
    if (s.current.count(conflict.object) > 0) {
      latest[{conflict.object, conflict.data}] = std::move(conflict);
    }
  }
  s.conflicts.clear();
  std::map<std::string, PlacementRecord> homes;  // of the objects that move
  RangeMap claimed[2];  // wanted text and data ranges given to earlier objects of this pass
  for (auto& [at, conflict] : latest) {
    const bool data = at.second;
    const PlacementRecord& live = s.current.at(conflict.object).lease->record();
    const RangeMap& ranges = data ? s.data_ranges : s.text_ranges;
    const uint32_t lo = data ? s.arenas.data_lo : s.arenas.text_lo;
    const uint32_t hi = data ? s.arenas.data_hi : s.arenas.text_hi;
    uint32_t base = PageAlignDown(conflict.wanted);
    uint32_t size = Span(data ? live.data_size : live.text_size);
    // Its own range may overlap: the move frees it once its image goes.
    if (base < lo || base + size > hi ||
        FindOverlapIf(ranges, base, size,
                      [&](const Range& range) { return range.owner == &live; }) != nullptr ||
        FindOverlap(claimed[data], base, size) != nullptr) {
      s.conflicts.push_back(std::move(conflict));  // still held
      continue;
    }
    claimed[data].emplace(base, Range{base, size, &live});
    PlacementRecord& home = homes.try_emplace(conflict.object, live).first->second;
    (data ? home.placement.data_base : home.placement.text_base) = base;
  }
  std::vector<PlacementRecord> moved;
  for (auto& [object, home] : homes) {
    s.Retire(object, dropped);
    moved.push_back(std::move(home));
  }
  Metrics().moves->Add(moved.size());
  return moved;
}

std::vector<PlacementRecord> ConstraintSolver::ExportPlacements() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  std::vector<PlacementRecord> records;
  for (const auto& [object, entry] : state_->current) {
    records.push_back(entry.lease->record());
  }
  return records;
}

Result<void> ConstraintSolver::CheckAdoption(const std::vector<PlacementRecord>& records,
                                             const std::set<std::string>& retiring) const {
  std::lock_guard<std::mutex> lock(state_->mu);
  const SolverState& s = *state_;
  RangeMap staged[2];  // text and data ranges of the records checked so far
  for (const PlacementRecord& record : records) {
    // Only the current placement of another object that stays can clash.
    auto no_clash = [&](const Range& range) {
      return range.owner->object == record.object || !s.IsCurrent(range.owner) ||
             retiring.count(range.owner->object) != 0;
    };
    const Range* clash = nullptr;
    for (auto [i, live, base, size] :
         {std::tuple{0, &s.text_ranges, record.placement.text_base, Span(record.text_size)},
          std::tuple{1, &s.data_ranges, record.placement.data_base, Span(record.data_size)}}) {
      for (const Range* found : {FindOverlap(staged[i], base, size),
                                 FindOverlapIf(*live, base, size, no_clash)}) {
        clash = clash != nullptr ? clash : found;
      }
      staged[i].emplace(base, Range{base, size, &record});
    }
    if (clash != nullptr) {
      return Err(ErrorCode::kConstraintConflict, StrCat("cannot adopt placement for ",
                                                        record.object, ": range owned by ",
                                                        clash->owner->object));
    }
  }
  return OkResult();
}

void ConstraintSolver::AdoptPlacements(const std::vector<PlacementRecord>& records) {
  std::lock_guard<std::mutex> lock(state_->mu);
  SolverState& s = *state_;
  for (const PlacementRecord& record : records) {
    if (s.current.count(record.object) == 0 && s.Free(record)) {
      s.pinned[record.object] = NewLease(record);
    }
  }
}

}  // namespace omos
