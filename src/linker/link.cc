#include "src/linker/link.h"

#include <algorithm>
#include <span>

#include "src/support/strings.h"
#include "src/support/trace.h"
#include "src/vm/phys_memory.h"

namespace omos {

namespace {

constexpr uint32_t kTextAlign = 8;  // instruction size
constexpr uint32_t kDataAlign = 4;

uint32_t AlignUp(uint32_t value, uint32_t align) { return (value + align - 1) / align * align; }

}  // namespace

SectionLayout LayOutSections(const std::vector<FragmentPtr>& fragments) {
  SectionLayout layout;
  layout.fragments.resize(fragments.size());
  for (size_t i = 0; i < fragments.size(); ++i) {
    const ObjectFile& frag = *fragments[i];
    SectionLayout::Offsets& at = layout.fragments[i];
    at.text = AlignUp(layout.text_size, kTextAlign);
    at.data = AlignUp(layout.data_size, kDataAlign);
    at.bss = AlignUp(layout.bss_size, kDataAlign);
    layout.text_size = at.text + frag.section(SectionKind::kText).size();
    layout.data_size = at.data + frag.section(SectionKind::kData).size();
    layout.bss_size = at.bss + frag.section(SectionKind::kBss).size();
  }
  return layout;
}

Result<LinkedImage> LinkImage(const Module& module, const LayoutSpec& layout, std::string name) {
  TraceSpan trace("link.image", name);
  // Merge phase: bind the module's symbol spaces into one namespace.
  auto bind_traced = [&] {
    TraceSpan merge("link.merge");
    return module.Bind();
  };
  OMOS_TRY(Module bound, bind_traced());
  OMOS_TRY(const SymbolSpace* space, bound.Space());
  const std::vector<FragmentPtr>& fragments = bound.fragments();

  LinkedImage image;
  image.name = std::move(name);
  image.text_base = layout.text_base;
  image.stats.fragments = static_cast<uint32_t>(fragments.size());

  // Pass 1: assign every fragment's sections an offset in the output.
  SectionLayout sections = LayOutSections(fragments);
  const std::vector<SectionLayout::Offsets>& offsets = sections.fragments;
  const uint32_t text_size = sections.text_size;
  const uint32_t data_size = sections.data_size;
  const uint32_t bss_size = sections.bss_size;

  image.data_base =
      layout.data_base != 0 ? layout.data_base : PageAlignUp(image.text_base + text_size);
  if (image.data_base < image.text_base + text_size && data_size + bss_size > 0) {
    return Err(ErrorCode::kInvalidArgument,
               StrCat(image.name, ": data base ", Hex32(image.data_base), " overlaps text"));
  }
  image.bss_size = bss_size;

  // Absolute address of a (fragment, section, offset) location.
  auto address_of = [&](uint32_t frag, SectionKind section, uint32_t value) -> uint32_t {
    switch (section) {
      case SectionKind::kText:
        return image.text_base + offsets[frag].text + value;
      case SectionKind::kData:
        return image.data_base + offsets[frag].data + value;
      case SectionKind::kBss:
        return image.data_base + data_size + offsets[frag].bss + value;
    }
    return 0;
  };

  // Passes 2+3, in fragment order: copy each fragment's section bytes and
  // apply its relocations. Stats, logs and unresolved names accumulate in
  // that order, and the first failed relocation ends the link.
  image.text.assign(text_size, 0);
  image.data.assign(data_size, 0);
  {
    TraceSpan relocate("link.relocate");
    for (uint32_t i = 0; i < fragments.size(); ++i) {
      const ObjectFile& frag = *fragments[i];
      const auto& text = frag.section(SectionKind::kText).bytes;
      std::copy(text.begin(), text.end(), image.text.begin() + offsets[i].text);
      const auto& data = frag.section(SectionKind::kData).bytes;
      std::copy(data.begin(), data.end(), image.data.begin() + offsets[i].data);

      for (int s = 0; s < 2; ++s) {  // text and data carry relocations
        SectionKind section = static_cast<SectionKind>(s);
        std::vector<uint8_t>& out = section == SectionKind::kText ? image.text : image.data;
        uint32_t section_off =
            section == SectionKind::kText ? offsets[i].text : offsets[i].data;
        uint32_t section_base = section == SectionKind::kText ? image.text_base : image.data_base;
        for (const Relocation& reloc : frag.section(section).relocs) {
          const Symbol* sym = frag.FindSymbol(reloc.sid());
          if (sym == nullptr) {
            return Err(ErrorCode::kRelocationError,
                       StrCat(frag.name(), ": reloc names unknown symbol ", reloc.symbol));
          }
          uint32_t target = 0;
          bool resolved = false;
          const RefRecord* ref = nullptr;
          if (sym->defined && sym->binding == SymbolBinding::kLocal) {
            target = address_of(i, sym->section, sym->value);
            resolved = true;
          } else {
            ref = space->FindRef(i, reloc.sid());
            if (ref != nullptr && ref->state != BindState::kUnbound) {
              DefId def = ref->target;
              const Symbol& def_sym = fragments[def.fragment]->symbols()[def.symbol];
              target = address_of(def.fragment, def_sym.section, def_sym.value);
              resolved = true;
              ++image.stats.refs_bound;
            }
          }
          if (!resolved) {
            SymId want = ref != nullptr ? ref->ext_name : reloc.sid();
            for (const LinkedImage* lib : layout.libraries) {
              if (const ImageSymbol* def = lib->FindSymbol(want)) {
                target = def->addr;
                resolved = true;
                ++image.stats.refs_bound;
                break;
              }
            }
            if (!resolved) {
              std::string_view want_name = SymbolInterner::Global().Name(want);
              if (!layout.allow_unresolved) {
                return Err(ErrorCode::kUnresolvedSymbol,
                           StrCat(image.name, ": unresolved reference to ", want_name, " from ",
                                  frag.name()));
              }
              image.unresolved.emplace_back(want_name);
              continue;
            }
          }
          uint32_t field_addr = section_base + section_off + reloc.offset;
          uint32_t value;
          if (reloc.kind == RelocKind::kAbs32) {
            value = target + static_cast<uint32_t>(reloc.addend);
          } else {
            value = target + static_cast<uint32_t>(reloc.addend) - (field_addr + 4);
          }
          uint32_t at = section_off + reloc.offset;
          out[at] = static_cast<uint8_t>(value);
          out[at + 1] = static_cast<uint8_t>(value >> 8);
          out[at + 2] = static_cast<uint8_t>(value >> 16);
          out[at + 3] = static_cast<uint8_t>(value >> 24);
          ++image.stats.relocations_applied;
          if (layout.record_relocs) {
            bool cross = !(sym->defined && sym->binding == SymbolBinding::kLocal);
            image.reloc_log.push_back(RelocRecord{section, field_addr, value, reloc.symbol,
                                                  reloc.kind == RelocKind::kPcRel32, cross});
          }
        }
      }
    }
  }

  // Emit phase: exported symbols at their final addresses, in name order
  // (the flat table has no intrinsic order; emission must stay
  // byte-identical to the ordered-map output). The space sorts its export
  // ids once and keeps the order, so relinking a shared space (a memoized
  // library's) sorts nothing. The lookup index is built from the ids in the
  // same pass, so no name is interned again; it is final before the image
  // is published (FindSymbol on an indexed image is read-only and so safe
  // to call from many threads at once).
  TraceSpan emit("link.emit");
  std::span<const SymId> order = space->ExportOrder();
  image.symbols.reserve(order.size());
  image.symbol_index.reserve(order.size());
  for (SymId id : order) {
    const DefId& def = space->exports.at(id).def;
    const Symbol& sym = fragments[def.fragment]->symbols()[def.symbol];
    image.symbol_index.try_emplace(id, static_cast<uint32_t>(image.symbols.size()));
    image.symbols.push_back(ImageSymbol{std::string(SymbolInterner::Global().Name(id)),
                                        address_of(def.fragment, sym.section, sym.value),
                                        sym.size, sym.section});
  }
  image.indexed_count = image.symbols.size();
  image.stats.symbols_exported = static_cast<uint32_t>(image.symbols.size());

  if (!layout.entry_symbol.empty()) {
    const ImageSymbol* entry = image.FindSymbol(layout.entry_symbol);
    if (entry == nullptr) {
      return Err(ErrorCode::kUnresolvedSymbol,
                 StrCat(image.name, ": no entry symbol ", layout.entry_symbol));
    }
    image.entry = entry->addr;
  }

  // Deduplicate unresolved names for stable reporting.
  std::sort(image.unresolved.begin(), image.unresolved.end());
  image.unresolved.erase(std::unique(image.unresolved.begin(), image.unresolved.end()),
                         image.unresolved.end());
  return image;
}

}  // namespace omos
