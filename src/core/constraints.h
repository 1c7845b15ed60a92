// The prioritized address-constraint system (§3.5), generalized into a
// namespace-global layout solver.
//
// Constraints, strongest first:
//   1. required — no two placed objects may overlap;
//   2. strong   — an existing placement for the same object is reused
//                 (so its read-only pages stay shared among clients);
//   3. weak     — a caller-supplied preferred base is honoured when it does
//                 not violate 1 (otherwise the solver spills to the next
//                 free range and records the conflict, which the paper
//                 suggests feeding back to improve placements).
//
// Fleet-wide prelink (§4.1 feedback loop): the solver's placement map IS
// the global layout — one conflict-free home per image, valid for every
// client simultaneously. A pass that MOVES a live placement
// (SolveNamespace, OptimizePlacements, a grow-refit) returns or counts the
// moved objects (solver.moves); the server evicts every image a move
// invalidates, and a stored image is adopted only where it still lands at
// its recorded bases.
#ifndef OMOS_SRC_CORE_CONSTRAINTS_H_
#define OMOS_SRC_CORE_CONSTRAINTS_H_

#include <cstdint>
#include <map>
#include <optional>
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
  bool reused = false;  // an existing identical placement was reused
};

struct ConflictRecord {
  std::string object;
  uint32_t wanted = 0;
  uint32_t got = 0;
  std::string holder;  // who owned the conflicting range
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

class ConstraintSolver {
 public:
  using Arenas = SolverArenas;

  explicit ConstraintSolver(Arenas arenas = Arenas());

  // Place `object` needing `text_size`/`data_size` bytes. If the object was
  // placed before with the same sizes, that placement is reused (strong
  // constraint). A weak hint that conflicts spills to the next free range
  // and logs a ConflictRecord.
  Result<Placement> Place(const std::string& object, uint32_t text_size, uint32_t data_size,
                          const PlacementHints& hints = {});

  // Forget an object's placement (cache eviction path).
  void Release(const std::string& object);

  // §4.1: "OMOS could easily record the conflicts found, and occasionally
  // the system manager could feed that data into OMOS' constraint system to
  // determine better placements, or this could be done fully automatically."
  // Re-packs every known object into a deterministic, conflict-free layout
  // and clears the conflict log. Returns the objects whose placement
  // changed (their cached images must be rebuilt).
  std::vector<std::string> OptimizePlacements();

  // The fleet-wide re-solve: resolve every recorded conflict into a stable
  // global layout while moving as little as possible. Objects whose hints
  // lost to the no-overlap constraint are re-placed at their recorded
  // wanted base when that range has since freed up (first-fit otherwise);
  // every other placement stays at its current home. Deterministic: the
  // conflict log is processed in object-name order. Clears the conflict
  // log. Returns the moved objects (their cached images must be re-linked).
  std::vector<std::string> SolveNamespace();

  const std::vector<ConflictRecord>& conflicts() const { return conflicts_; }
  size_t placed_count() const { return placements_.size(); }
  // Current placement of `object`, if any.
  const Placement* Find(const std::string& object) const;

  // Snapshot support: export every placement assignment, in object order.
  std::vector<PlacementRecord> ExportPlacements() const;
  // Claim `record`'s ranges for its object (restore path). Fails with
  // kConstraintConflict if the ranges are already owned by another object.
  Result<void> AdoptPlacement(const PlacementRecord& record);

 private:
  struct Range {
    uint32_t base = 0;
    uint32_t size = 0;
    std::string owner;
  };
  struct Record {
    Placement placement;
    uint32_t text_size = 0;
    uint32_t data_size = 0;
  };

  // First-fit within [lo, hi); honours `preferred` when free.
  Result<uint32_t> Fit(std::map<uint32_t, Range>& ranges, uint32_t lo, uint32_t hi, uint32_t size,
                       std::optional<uint32_t> preferred, const std::string& object);
  static const Range* FindOverlap(const std::map<uint32_t, Range>& ranges, uint32_t base,
                                  uint32_t size);

  Arenas arenas_;
  std::map<uint32_t, Range> text_ranges_;
  std::map<uint32_t, Range> data_ranges_;
  std::map<std::string, Record> placements_;
  std::vector<ConflictRecord> conflicts_;
};

}  // namespace omos

#endif  // OMOS_SRC_CORE_CONSTRAINTS_H_
