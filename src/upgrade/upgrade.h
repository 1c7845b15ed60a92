// Live library upgrade (dynamic update): the version-independent pieces of
// the hot-patch engine — the frame-transfer map that migrates on-stack
// frames between two linked versions of a library (OSR-style), degradation
// stubs for symbols a new version dropped, and the upgrade.* metrics.
//
// The orchestration (background link, per-task slot repoint, safepoint
// transfer, reclamation) lives in OmosServer::BeginUpgrade and friends; this
// module deliberately knows nothing about the server so it can be unit-
// tested against two bare LinkedImages.
//
// Transfer-map semantics (docs/upgrade.md has the full state machine):
//  * Symbol extents are derived from the sorted exported-symbol table
//    (label-to-next-label, clipped to the segment end) — the same
//    approximation the cycle profiler uses to attribute PCs.
//  * A symbol present in both versions with an equal extent maps its whole
//    range by offset: SimISA instructions are fixed 8-byte words, so an old
//    mid-function pc lands on the equivalent new instruction.
//  * A symbol whose extent changed maps only at its entry (offset 0); a
//    frame suspended mid-body defers until the frame pops.
//  * A symbol deleted in the new version maps its entry to a degradation
//    stub (when one was generated); everything else is untransferable.
#ifndef OMOS_SRC_UPGRADE_UPGRADE_H_
#define OMOS_SRC_UPGRADE_UPGRADE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/linker/image.h"
#include "src/objfmt/object_file.h"
#include "src/support/result.h"

namespace omos {

class Counter;

// Return value of a degradation stub: calls into a symbol the new version
// no longer provides yield this sentinel instead of faulting — the wire
// protocol's kUnavailable ("peer not accepting requests, retryable") carried
// into the ISA. Clients check availability instead of crashing mid-roll.
inline constexpr uint32_t kUpgradeUnavailable = 0xFFFFFFFFu;

// Upgrade state machine. Forward-only except the kReclaiming -> kDraining
// retreat when a reclaim attempt is killed by fault injection.
enum class UpgradePhase {
  kIdle,        // no upgrade in flight
  kLinking,     // new version linking on the idle lane
  kDraining,    // runtimes repointed; waiting for live tasks to reach safepoints
  kReclaiming,  // every task migrated; old version being released
  kDone,
  kAborted,
};
const char* UpgradePhaseName(UpgradePhase phase);

// One old-range -> new-range mapping. Text and data ranges share the
// representation; `deleted` marks symbols with no new-version counterpart.
struct TransferRange {
  std::string name;
  uint32_t old_start = 0;
  uint32_t old_size = 0;
  uint32_t new_start = 0;  // degradation stub address when `deleted`
  uint32_t new_size = 0;
  bool deleted = false;
};

// Same-name, same-size initialized/bss data symbols: the task's current old
// bytes are carried into the new version at the task's first contact in its
// frame transfer, so library state (counters, caches) survives the upgrade.
struct DataCarry {
  std::string name;
  uint32_t old_addr = 0;
  uint32_t new_addr = 0;
  uint32_t size = 0;
};

class FrameTransferMap {
 public:
  // Build the map between two linked versions of the same library.
  // `degrade_stubs` maps deleted-symbol names to their stub entry addresses
  // (empty when nothing was deleted or no stub image exists yet).
  static FrameTransferMap Build(const LinkedImage& old_image, const LinkedImage& new_image,
                                const std::map<std::string, uint32_t>& degrade_stubs);

  // True when `addr` lies inside the old version's text or data segments
  // (the only values a transfer must rewrite).
  bool Covers(uint32_t addr) const;

  // Map an old-version address to its new-version equivalent. nullopt means
  // the address is not transferable right now (mid-body of a resized or
  // deleted symbol, or padding between symbols): the caller defers and
  // retries at a later safepoint, when the frame has popped.
  std::optional<uint32_t> MapAddr(uint32_t addr) const;

  const std::vector<TransferRange>& ranges() const { return ranges_; }
  const std::vector<DataCarry>& data_carries() const { return data_carries_; }

  uint32_t old_text_base() const { return old_text_base_; }
  uint32_t old_text_end() const { return old_text_end_; }
  uint32_t old_data_base() const { return old_data_base_; }
  uint32_t old_data_end() const { return old_data_end_; }

 private:
  uint32_t old_text_base_ = 0;
  uint32_t old_text_end_ = 0;
  uint32_t old_data_base_ = 0;
  uint32_t old_data_end_ = 0;
  std::vector<TransferRange> ranges_;  // sorted by old_start, non-overlapping
  std::vector<DataCarry> data_carries_;
};

// Names of old-version text symbols absent from the new version, sorted.
std::vector<std::string> DeletedTextSymbols(const LinkedImage& old_image,
                                            const LinkedImage& new_image);

// Generate the availability-check stub object for `deleted` symbols: each
// stub is `name: movi r0, kUpgradeUnavailable; ret`. The caller links it as
// a tiny self-contained image and maps it into migrating tasks.
Result<ObjectFile> GenerateDegradationStubs(const std::vector<std::string>& deleted,
                                            std::string_view object_name);

// upgrade.* counters (unified metrics registry; see docs/observability.md).
struct UpgradeMetrics {
  Counter* begun;
  Counter* completed;
  Counter* aborted;
  Counter* tasks_repointed;
  Counter* slots_repointed;
  Counter* frames_transferred;
  Counter* transfers_deferred;
  Counter* stack_words_rewritten;
  Counter* degraded_bindings;
  Counter* images_reclaimed;
};
UpgradeMetrics& UpgradeStats();

}  // namespace omos

#endif  // OMOS_SRC_UPGRADE_UPGRADE_H_
