// The prioritized address-constraint system (§3.5), generalized into a
// namespace-global layout solver.
//
// Constraints, strongest first:
//   1. required — no two live placements may overlap;
//   2. strong   — a live placement for the same object is reused (so its
//                 read-only pages stay shared among clients);
//   3. weak     — a caller-supplied preferred base is honoured when it does
//                 not violate 1 (otherwise the solver spills to the next
//                 free range and records the conflict, which the paper
//                 suggests feeding back to improve placements).
//
// Fleet-wide prelink (§4.1 feedback loop): the current leases ARE the
// global layout — one conflict-free home per image, valid for every client
// simultaneously.
//
// Ownership: Place hands out a PlacementRef, a reference-counted lease on
// an object's text and data ranges, freed when its last holder (a cached
// image, a dependent image, a task) drops it, and by nothing else. A pass
// that moves an object (SolveNamespace, OptimizePlacements, a grow-refit)
// or an invalidation *retires* it: its next Place places afresh, while old
// holders keep the retired ranges. So no pass hands out a range a live
// lease holds. The solver's lock is a leaf: a lease takes it to free its
// ranges on whichever thread drops the last reference.
#ifndef OMOS_SRC_CORE_CONSTRAINTS_H_
#define OMOS_SRC_CORE_CONSTRAINTS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/support/result.h"

namespace omos {

struct PlacementHints {
  std::optional<uint32_t> text_base;
  std::optional<uint32_t> data_base;
};

struct Placement {
  uint32_t text_base = 0;
  uint32_t data_base = 0;
};

struct ConflictRecord {
  std::string object;
  uint32_t wanted = 0;
  uint32_t got = 0;
  std::string holder;  // who owned the conflicting range
  bool data = false;   // the lost hint was the data base's (else the text base's)
};

// One object's placement assignment, as exported for a server snapshot and
// re-adopted after a restart (so rebuilt images land at identical homes).
struct PlacementRecord {
  std::string object;
  Placement placement;
  uint32_t text_size = 0;
  uint32_t data_size = 0;
};

struct SolverArenas {
  uint32_t text_lo = 0x00100000;
  uint32_t text_hi = 0x3FF00000;
  uint32_t data_lo = 0x40000000;
  uint32_t data_hi = 0x7FF00000;
};

struct SolverState;  // the ranges, shared by a solver and its live leases

// An object's claim on one text range and one data range.
class PlacementLease {
 public:
  // Made only by ConstraintSolver, the one holder of a SolverState.
  PlacementLease(std::shared_ptr<SolverState> state, PlacementRecord record);
  ~PlacementLease();
  PlacementLease(const PlacementLease&) = delete;
  PlacementLease& operator=(const PlacementLease&) = delete;

  const std::string& object() const { return record_.object; }
  uint32_t text_base() const { return record_.placement.text_base; }
  uint32_t data_base() const { return record_.placement.data_base; }
  const PlacementRecord& record() const { return record_; }

 private:
  std::shared_ptr<SolverState> state_;
  PlacementRecord record_;
};

using PlacementRef = std::shared_ptr<const PlacementLease>;

class ConstraintSolver {
 public:
  using Arenas = SolverArenas;

  explicit ConstraintSolver(Arenas arenas = Arenas());
  ~ConstraintSolver();
  ConstraintSolver(const ConstraintSolver&) = delete;
  ConstraintSolver& operator=(const ConstraintSolver&) = delete;

  // Place `object` needing `text_size`/`data_size` bytes. Its current lease
  // is reused if it still fits (strong constraint), else retired (a move).
  // A weak hint that conflicts spills to the next free range, logs a
  // ConflictRecord and sets `*conflicted` (may be null).
  Result<PlacementRef> Place(const std::string& object, uint32_t text_size, uint32_t data_size,
                             const PlacementHints& hints = {}, bool* conflicted = nullptr);

  // Make the next Place of every object that `matches` place afresh (the
  // invalidation path): one pass over the current placements.
  void RetireIf(const std::function<bool(const std::string&)>& matches);
  void Retire(const std::string& object) {
    RetireIf([&](const std::string& other) { return other == object; });
  }
  // The publish step of an image holding `own` and linked against `deps`
  // (null entries count as current): whether every one is still current.
  // If so, the image holds `own` from now on, and the pin adoption put on
  // it is dropped.
  bool Settle(const PlacementLease* own, std::span<const PlacementLease* const> deps);

  // §4.1: "OMOS could easily record the conflicts found, and occasionally
  // the system manager could feed that data into OMOS' constraint system to
  // determine better placements, or this could be done fully automatically."
  // Plans a deterministic, conflict-free re-pack of every current object
  // (name order, first fit from the arena base) and clears the conflict
  // log. Returns the new homes of the objects that move; each is retired,
  // so once its old images are gone the caller adopts the new home.
  std::vector<PlacementRecord> OptimizePlacements();

  // The fleet-wide re-solve: an object whose hint lost to the no-overlap
  // constraint moves to its latest wanted base once that range has freed
  // up, in the arena the hint was for; an object that lost both its hints
  // may move both ways in one record. The log keeps one record per object
  // and arena still conflicted, for the next pass. Deterministic (name
  // order). Returns the moves as OptimizePlacements does.
  std::vector<PlacementRecord> SolveNamespace();

  std::vector<ConflictRecord> conflicts() const;
  // Live leases, current or retired: the ranges held right now.
  size_t placed_count() const;
  // The current lease of `object`, or null.
  PlacementRef Find(const std::string& object) const;
  // Snapshot support: every current placement, in object order.
  std::vector<PlacementRecord> ExportPlacements() const;

  // Restore support, in two steps so a refused snapshot changes nothing.
  // CheckAdoption fails with kConstraintConflict when two records overlap,
  // or one overlaps the current placement of another object not in
  // `retiring`. AdoptPlacements claims each record's ranges, pinned until
  // Settle, unless its object has a current placement or the ranges are
  // still held (a retired placement an old task maps).
  Result<void> CheckAdoption(const std::vector<PlacementRecord>& records,
                             const std::set<std::string>& retiring) const;
  void AdoptPlacements(const std::vector<PlacementRecord>& records);

 private:
  PlacementRef NewLease(PlacementRecord record);

  std::shared_ptr<SolverState> state_;
};

}  // namespace omos

#endif  // OMOS_SRC_CORE_CONSTRAINTS_H_
