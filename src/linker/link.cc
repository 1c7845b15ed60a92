#include "src/linker/link.h"

#include <algorithm>
#include <cstring>
#include <span>

#include "src/support/metrics.h"
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

namespace {

Counter* PlansCounter() {
  static Counter* plans = MetricsRegistry::Global().GetCounter("link.plans");
  return plans;
}

std::shared_ptr<const LinkPlan> BuildPlan(
    const std::shared_ptr<const std::vector<FragmentPtr>>& shared_fragments,
    const SymbolSpace& space) {
  TraceSpan trace("link.plan");
  PlansCounter()->Add();
  const std::vector<FragmentPtr>& fragments = *shared_fragments;
  auto plan = std::make_shared<LinkPlan>();
  plan->fragments = shared_fragments;

  // Every fragment's sections at an offset in the output.
  SectionLayout sections = LayOutSections(fragments);
  const std::vector<SectionLayout::Offsets>& offsets = sections.fragments;
  plan->text_size = sections.text_size;
  plan->data_size = sections.data_size;
  plan->bss_size = sections.bss_size;

  // Offset of a (fragment, section, value) location in its output section.
  auto offset_of = [&](uint32_t frag, SectionKind section, uint32_t value) -> uint32_t {
    switch (section) {
      case SectionKind::kText:
        return offsets[frag].text + value;
      case SectionKind::kData:
        return offsets[frag].data + value;
      case SectionKind::kBss:
        return offsets[frag].bss + value;
    }
    return 0;
  };

  // Record each fragment's bytes and resolve its relocations, in fragment
  // order, up to the first one that names an unknown symbol.
  for (uint32_t i = 0; i < fragments.size(); ++i) {
    const ObjectFile& frag = *fragments[i];
    plan->symbol_count += static_cast<uint32_t>(frag.symbols().size());
    for (int s = 0; s < 2; ++s) {  // text and data carry bytes and relocations
      SectionKind section = static_cast<SectionKind>(s);
      uint32_t section_off = section == SectionKind::kText ? offsets[i].text : offsets[i].data;
      const std::vector<uint8_t>& bytes = frag.section(section).bytes;
      if (!bytes.empty()) {
        plan->copies.push_back(LinkPlan::Copy{bytes.data(), section_off,
                                              static_cast<uint32_t>(bytes.size()), section});
      }
      if (plan->error) {
        continue;
      }
      for (const Relocation& reloc : frag.section(section).relocs) {
        const Symbol* sym = frag.FindSymbol(reloc.sid());
        if (sym == nullptr) {
          plan->error = Err(ErrorCode::kRelocationError,
                            StrCat(frag.name(), ": reloc names unknown symbol ", reloc.symbol));
          break;
        }
        LinkPlan::Patch patch;
        patch.at = section_off + reloc.offset;
        patch.addend = reloc.addend;
        patch.symbol = reloc.sid();
        patch.fragment = i;
        patch.section = section;
        patch.pcrel = reloc.kind == RelocKind::kPcRel32;
        patch.cross = !(sym->defined && sym->binding == SymbolBinding::kLocal);
        const RefRecord* ref = patch.cross ? space.FindRef(i, reloc.sid()) : nullptr;
        if (!patch.cross) {
          patch.target_kind = static_cast<LinkPlan::Target>(sym->section);
          patch.target = offset_of(i, sym->section, sym->value);
        } else if (ref != nullptr && ref->state != BindState::kUnbound) {
          DefId def = ref->target;
          const Symbol& def_sym = fragments[def.fragment]->symbols()[def.symbol];
          patch.target_kind = static_cast<LinkPlan::Target>(def_sym.section);
          patch.target = offset_of(def.fragment, def_sym.section, def_sym.value);
          ++plan->refs_bound;
        } else {
          patch.target_kind = LinkPlan::Target::kExternal;
          patch.target = ref != nullptr ? ref->ext_name : reloc.sid();
        }
        plan->patches.push_back(patch);
      }
    }
  }

  // Exported symbols in name order (the flat table has no intrinsic order;
  // emission must stay byte-identical to the ordered-map output). The
  // lookup index is built from the ids in the same pass, so no name is
  // interned again.
  std::span<const SymId> order = space.ExportOrder();
  auto index = std::make_shared<FlatMap<SymId, uint32_t>>();
  index->reserve(order.size());
  plan->symbols.reserve(order.size());
  for (SymId id : order) {
    const DefId& def = space.exports.at(id).def;
    const Symbol& sym = fragments[def.fragment]->symbols()[def.symbol];
    index->try_emplace(id, static_cast<uint32_t>(plan->symbols.size()));
    plan->symbols.push_back(ImageSymbol{SymbolInterner::Global().Name(id),
                                        offset_of(def.fragment, sym.section, sym.value),
                                        sym.size, sym.section});
  }
  plan->symbol_index = std::move(index);
  return plan;
}

}  // namespace

std::shared_ptr<const LinkPlan> SymbolSpace::Plan(
    const std::shared_ptr<const std::vector<FragmentPtr>>& fragments) const {
  std::call_once(plan_.once, [&] { plan_.value = BuildPlan(fragments, *this); });
  if (plan_.value->fragments == fragments) {
    return plan_.value;
  }
  return BuildPlan(fragments, *this);
}

Result<std::shared_ptr<const LinkPlan>> PlanLink(const Module& module) {
  auto bind_traced = [&] {
    TraceSpan merge("link.merge");
    return module.Bind();
  };
  OMOS_TRY(Module bound, bind_traced());
  OMOS_TRY(const SymbolSpace* space, bound.Space());
  return space->Plan(bound.shared_fragments());
}

Result<LinkedImage> LinkImage(const LinkPlan& plan, const LayoutSpec& layout, std::string name) {
  TraceSpan trace("link.image", name);
  LinkedImage image;
  image.name = std::move(name);
  image.text_base = layout.text_base;
  image.stats.fragments = static_cast<uint32_t>(plan.fragments->size());

  const uint32_t text_size = plan.text_size;
  const uint32_t data_size = plan.data_size;
  image.data_base =
      layout.data_base != 0 ? layout.data_base : PageAlignUp(image.text_base + text_size);
  if (image.data_base < image.text_base + text_size && data_size + plan.bss_size > 0) {
    return Err(ErrorCode::kInvalidArgument,
               StrCat(image.name, ": data base ", Hex32(image.data_base), " overlaps text"));
  }
  image.bss_size = plan.bss_size;
  // Base of each LinkPlan::Target section.
  const uint32_t bases[3] = {image.text_base, image.data_base, image.data_base + data_size};

  // Patch in plan order: stats, logs and unresolved names accumulate in
  // that order, and the first failed relocation ends the link.
  {
    TraceSpan relocate("link.relocate");
    image.text.assign(text_size, 0);
    image.data.assign(data_size, 0);
    for (const LinkPlan::Copy& copy : plan.copies) {
      std::vector<uint8_t>& out = copy.section == SectionKind::kText ? image.text : image.data;
      std::memcpy(out.data() + copy.at, copy.from, copy.size);
    }
    image.stats.refs_bound = plan.refs_bound;
    for (const LinkPlan::Patch& patch : plan.patches) {
      uint32_t target = 0;
      if (patch.target_kind != LinkPlan::Target::kExternal) {
        target = bases[static_cast<int>(patch.target_kind)] + patch.target;
      } else {
        const ImageSymbol* def = nullptr;
        for (const LinkedImage* lib : layout.libraries) {
          if ((def = lib->FindSymbol(patch.target)) != nullptr) {
            break;
          }
        }
        if (def == nullptr) {
          std::string_view want_name = SymbolInterner::Global().Name(patch.target);
          if (!layout.allow_unresolved) {
            return Err(ErrorCode::kUnresolvedSymbol,
                       StrCat(image.name, ": unresolved reference to ", want_name, " from ",
                              (*plan.fragments)[patch.fragment]->name()));
          }
          image.unresolved.emplace_back(want_name);
          continue;
        }
        target = def->addr;
        ++image.stats.refs_bound;
      }
      uint32_t field_addr = bases[static_cast<int>(patch.section)] + patch.at;
      uint32_t value = target + static_cast<uint32_t>(patch.addend);
      if (patch.pcrel) {
        value -= field_addr + 4;
      }
      uint8_t* out = (patch.section == SectionKind::kText ? image.text : image.data).data() +
                     patch.at;
      out[0] = static_cast<uint8_t>(value);
      out[1] = static_cast<uint8_t>(value >> 8);
      out[2] = static_cast<uint8_t>(value >> 16);
      out[3] = static_cast<uint8_t>(value >> 24);
      ++image.stats.relocations_applied;
      if (layout.record_relocs) {
        image.reloc_log.push_back(RelocRecord{patch.section, field_addr, value,
                                              std::string(SymbolInterner::Global().Name(
                                                  patch.symbol)),
                                              patch.pcrel, patch.cross});
      }
    }
    if (plan.error) {
      return *plan.error;
    }
  }

  // Emit phase: the plan's symbols moved to this link's bases. Names are
  // interned views and the index is the plan's, so nothing is copied by
  // name; the index is final before the image is published (FindSymbol on
  // an indexed image is read-only and so safe to call from many threads at
  // once).
  TraceSpan emit("link.emit");
  image.symbols = plan.symbols;
  for (ImageSymbol& sym : image.symbols) {
    sym.addr += bases[static_cast<int>(sym.section)];
  }
  image.symbol_index = plan.symbol_index;
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

Result<LinkedImage> LinkImage(const Module& module, const LayoutSpec& layout, std::string name) {
  OMOS_TRY(std::shared_ptr<const LinkPlan> plan, PlanLink(module));
  return LinkImage(*plan, layout, std::move(name));
}

}  // namespace omos
