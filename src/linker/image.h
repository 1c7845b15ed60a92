// LinkedImage: the output of the link step — bytes at final addresses,
// ready to be turned into mappable segments. This is what OMOS caches: "by
// treating executables as a cache, OMOS avoids unnecessary repetition of
// work" (§1).
#ifndef OMOS_SRC_LINKER_IMAGE_H_
#define OMOS_SRC_LINKER_IMAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/objfmt/object_file.h"
#include "src/support/flat_map.h"
#include "src/support/interner.h"

namespace omos {

struct ImageSymbol {
  // Must outlive the image. Links and decodes store the interned name
  // (SymbolInterner::Name, valid for the process lifetime), so images
  // share their names instead of copying them.
  std::string_view name;
  uint32_t addr = 0;
  uint32_t size = 0;
  SectionKind section = SectionKind::kText;
};

struct LinkCounts {
  uint32_t fragments = 0;
  uint32_t relocations_applied = 0;
  uint32_t symbols_exported = 0;
  uint32_t refs_bound = 0;
};

// One relocation as applied by the link step (recorded when
// LayoutSpec::record_relocs is set). The traditional shared-library baseline
// uses this log to turn static fixups into per-invocation dynamic ones.
struct RelocRecord {
  SectionKind section = SectionKind::kText;
  uint32_t field_addr = 0;  // absolute address of the patched 32-bit field
  uint32_t value = 0;       // the value written
  std::string symbol;
  bool pcrel = false;
  bool cross_fragment = false;  // bound through the module symbol space
};

// A linked image another image was linked against (a program's library,
// or the client program of a dynamically loaded class), as a stored image
// records it.
struct LibDep {
  std::string cache_key;  // key of the dependency's own cached image
  std::string lib_path;
  // The dependency's bases at link time: the addresses the dependent's
  // bytes bake in. A rebuilt dependency elsewhere cannot be mapped under it.
  uint32_t text_base = 0;
  uint32_t data_base = 0;
};

// A stub slot in a partial-image client: the `index`-th lazy slot resolves
// `symbol` out of library `lib_path` (specialized `lib-dynamic-impl`).
struct StubSlot {
  uint32_t index = 0;
  std::string slot_symbol;  // data symbol holding the branch-table entry
  std::string lib_path;
  std::string symbol;
};

struct LinkedImage {
  std::string name;
  uint32_t text_base = 0;
  uint32_t data_base = 0;  // initialized data; bss follows immediately
  uint32_t bss_size = 0;
  uint32_t entry = 0;      // 0 when no entry symbol was requested
  std::vector<uint8_t> text;
  std::vector<uint8_t> data;
  std::vector<ImageSymbol> symbols;      // exported definitions at final addresses
  std::vector<std::string> unresolved;   // refs left unbound (partial links only)
  std::vector<RelocRecord> reloc_log;    // only when LayoutSpec::record_relocs
  LinkCounts stats;

  uint32_t text_end() const { return text_base + static_cast<uint32_t>(text.size()); }
  uint32_t data_end() const { return data_base + static_cast<uint32_t>(data.size()) + bss_size; }

  // O(1) when the hash index is current (LinkImage fills it from the export
  // ids as it emits; decoding and cache Put of an unindexed image call
  // BuildSymbolIndex); otherwise a linear scan. FindSymbol never mutates the
  // image, so concurrent lookups on a published (cached) image are
  // race-free.
  const ImageSymbol* FindSymbol(std::string_view name) const;
  const ImageSymbol* FindSymbol(SymId id) const;

  // (Re)builds the FindSymbol index: interned name -> symbols slot. Call
  // once after `symbols` reaches its final state and before the image is
  // shared across threads; not thread-safe against concurrent FindSymbol.
  void BuildSymbolIndex();
  bool symbol_index_current() const {
    return symbol_index != nullptr && indexed_count == symbols.size();
  }

  // Immutable once built, so every image linked from one plan shares the
  // plan's index (their symbols differ only in address).
  std::shared_ptr<const FlatMap<SymId, uint32_t>> symbol_index;
  size_t indexed_count = ~size_t{0};
};

}  // namespace omos

#endif  // OMOS_SRC_LINKER_IMAGE_H_
