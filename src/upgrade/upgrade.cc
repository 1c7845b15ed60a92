#include "src/upgrade/upgrade.h"

#include <algorithm>

#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/vasm/assembler.h"

namespace omos {

const char* UpgradePhaseName(UpgradePhase phase) {
  switch (phase) {
    case UpgradePhase::kIdle:
      return "idle";
    case UpgradePhase::kLinking:
      return "linking";
    case UpgradePhase::kDraining:
      return "draining";
    case UpgradePhase::kReclaiming:
      return "reclaiming";
    case UpgradePhase::kDone:
      return "done";
    case UpgradePhase::kAborted:
      return "aborted";
  }
  return "?";
}

namespace {

struct Extent {
  const ImageSymbol* sym;
  uint32_t size;  // label-to-next-label, clipped to the segment end
};

// Sort one section's symbols by address and derive extents. The assembler
// does not record symbol sizes, so the extent of a symbol is the span to
// the next symbol in the same segment (clipped to the segment end) — the
// same attribution rule the cycle profiler uses.
std::vector<Extent> SectionExtents(const LinkedImage& image, bool text, uint32_t seg_end) {
  std::vector<Extent> extents;
  for (const ImageSymbol& sym : image.symbols) {
    bool is_text = sym.section == SectionKind::kText;
    if (is_text == text) {
      extents.push_back({&sym, 0});
    }
  }
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) { return a.sym->addr < b.sym->addr; });
  for (size_t i = 0; i < extents.size(); ++i) {
    uint32_t end = i + 1 < extents.size() ? extents[i + 1].sym->addr : seg_end;
    extents[i].size = end > extents[i].sym->addr ? end - extents[i].sym->addr : 0;
  }
  return extents;
}

void BuildSectionRanges(const LinkedImage& old_image, const LinkedImage& new_image, bool text,
                        const std::map<std::string, uint32_t>& degrade_stubs,
                        std::vector<TransferRange>* ranges,
                        std::vector<DataCarry>* data_carries) {
  uint32_t old_end = text ? old_image.text_end() : old_image.data_end();
  uint32_t new_end = text ? new_image.text_end() : new_image.data_end();
  std::vector<Extent> old_extents = SectionExtents(old_image, text, old_end);
  std::vector<Extent> new_extents = SectionExtents(new_image, text, new_end);
  std::map<std::string_view, Extent> by_name;
  for (const Extent& e : new_extents) {
    by_name.emplace(e.sym->name, e);
  }
  for (const Extent& e : old_extents) {
    TransferRange range;
    range.name = e.sym->name;
    range.old_start = e.sym->addr;
    range.old_size = e.size;
    auto it = by_name.find(e.sym->name);
    if (it == by_name.end()) {
      range.deleted = true;
      auto stub = degrade_stubs.find(range.name);
      range.new_start = stub == degrade_stubs.end() ? 0 : stub->second;
      range.new_size = 0;
    } else {
      range.new_start = it->second.sym->addr;
      range.new_size = it->second.size;
      if (!text && range.old_size == range.new_size && range.old_size > 0) {
        data_carries->push_back(
            {range.name, range.old_start, range.new_start, range.old_size});
      }
    }
    ranges->push_back(std::move(range));
  }
}

}  // namespace

FrameTransferMap FrameTransferMap::Build(const LinkedImage& old_image,
                                         const LinkedImage& new_image,
                                         const std::map<std::string, uint32_t>& degrade_stubs) {
  FrameTransferMap map;
  map.old_text_base_ = old_image.text_base;
  map.old_text_end_ = old_image.text_end();
  map.old_data_base_ = old_image.data_base;
  map.old_data_end_ = old_image.data_end();
  BuildSectionRanges(old_image, new_image, /*text=*/true, degrade_stubs, &map.ranges_,
                     &map.data_carries_);
  BuildSectionRanges(old_image, new_image, /*text=*/false, degrade_stubs, &map.ranges_,
                     &map.data_carries_);
  std::sort(map.ranges_.begin(), map.ranges_.end(),
            [](const TransferRange& a, const TransferRange& b) {
              return a.old_start < b.old_start;
            });
  return map;
}

bool FrameTransferMap::Covers(uint32_t addr) const {
  return (addr >= old_text_base_ && addr < old_text_end_) ||
         (addr >= old_data_base_ && addr < old_data_end_);
}

std::optional<uint32_t> FrameTransferMap::MapAddr(uint32_t addr) const {
  if (!Covers(addr)) {
    return addr;  // not the old version's memory: unchanged
  }
  // Last range with old_start <= addr.
  auto it = std::upper_bound(ranges_.begin(), ranges_.end(), addr,
                             [](uint32_t a, const TransferRange& r) { return a < r.old_start; });
  if (it == ranges_.begin()) {
    return std::nullopt;  // before the first symbol: unattributable
  }
  const TransferRange& range = *std::prev(it);
  uint32_t offset = addr - range.old_start;
  if (offset >= range.old_size) {
    return std::nullopt;  // padding past the section's last symbol
  }
  if (range.deleted) {
    // Only the entry can degrade gracefully; a frame suspended mid-body of
    // deleted code must finish on the old version first.
    if (offset == 0 && range.new_start != 0) {
      return range.new_start;
    }
    return std::nullopt;
  }
  if (range.old_size == range.new_size) {
    return range.new_start + offset;  // fixed-width insns: exact mid-body map
  }
  return offset == 0 ? std::optional<uint32_t>(range.new_start) : std::nullopt;
}

std::vector<std::string> DeletedTextSymbols(const LinkedImage& old_image,
                                            const LinkedImage& new_image) {
  std::vector<std::string> deleted;
  for (const ImageSymbol& sym : old_image.symbols) {
    if (sym.section == SectionKind::kText && new_image.FindSymbol(sym.name) == nullptr) {
      deleted.emplace_back(sym.name);
    }
  }
  std::sort(deleted.begin(), deleted.end());
  return deleted;
}

Result<ObjectFile> GenerateDegradationStubs(const std::vector<std::string>& deleted,
                                            std::string_view object_name) {
  std::string source = ".text\n";
  for (const std::string& name : deleted) {
    source += StrCat(".global ", name, "\n", name, ":\n");
    source += StrCat("  movi r0, ", kUpgradeUnavailable, "\n");
    source += "  ret\n";
  }
  return Assemble(source, std::string(object_name));
}

UpgradeMetrics& UpgradeStats() {
  static UpgradeMetrics* metrics = new UpgradeMetrics{
      MetricsRegistry::Global().GetCounter("upgrade.begun"),
      MetricsRegistry::Global().GetCounter("upgrade.completed"),
      MetricsRegistry::Global().GetCounter("upgrade.aborted"),
      MetricsRegistry::Global().GetCounter("upgrade.tasks_repointed"),
      MetricsRegistry::Global().GetCounter("upgrade.slots_repointed"),
      MetricsRegistry::Global().GetCounter("upgrade.frames_transferred"),
      MetricsRegistry::Global().GetCounter("upgrade.transfers_deferred"),
      MetricsRegistry::Global().GetCounter("upgrade.stack_words_rewritten"),
      MetricsRegistry::Global().GetCounter("upgrade.degraded_bindings"),
      MetricsRegistry::Global().GetCounter("upgrade.images_reclaimed"),
  };
  return *metrics;
}

}  // namespace omos
