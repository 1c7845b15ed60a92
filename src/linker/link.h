// The link step: lay out a module's fragments at concrete addresses and
// apply relocations through the module's symbol space. A link is a plan
// (base-independent, kept per bound symbol space) plus its application at
// one pair of bases.
#ifndef OMOS_SRC_LINKER_LINK_H_
#define OMOS_SRC_LINKER_LINK_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/linker/image.h"
#include "src/linker/module.h"
#include "src/support/flat_map.h"
#include "src/support/interner.h"
#include "src/support/result.h"

namespace omos {

struct LayoutSpec {
  uint32_t text_base = 0x00100000;
  // 0 = place data on the page after text.
  uint32_t data_base = 0;
  // Entry symbol; empty = image has no entry point (a library).
  std::string entry_symbol;
  // Leave unbound references unpatched (recorded in image.unresolved)
  // instead of failing — used when stubs will satisfy them at run time.
  bool allow_unresolved = false;
  // Record every applied relocation in image.reloc_log (baseline rtld).
  bool record_relocs = false;
  // Library images a reference unbound within the module resolves against
  // before it is declared unresolved: how a client links against a library
  // that is a *separate* cached image (the self-contained scheme, §4.1).
  // Searched in order through each image's own symbol_index, so the
  // first-listed library exporting a name wins. The images must stay alive
  // and unchanged for the duration of the link.
  std::vector<const LinkedImage*> libraries;
};

// A fragments vector's section offsets in the output, in fragment order,
// and the output's section sizes. Text is aligned to the instruction size
// and data and bss to 4 bytes; bss follows data.
struct SectionLayout {
  struct Offsets {
    uint32_t text = 0;
    uint32_t data = 0;
    uint32_t bss = 0;
  };
  std::vector<Offsets> fragments;
  uint32_t text_size = 0;
  uint32_t data_size = 0;
  uint32_t bss_size = 0;
};
SectionLayout LayOutSections(const std::vector<FragmentPtr>& fragments);

// The base-independent half of a link: everything LinkImage derives from a
// bound module alone. It is built once per bound SymbolSpace and kept there
// (SymbolSpace::Plan), so linking the same module at other bases (a library
// fix that moved it, prelink repair, a re-solved placement) copies the
// fragments' bytes and writes the patches, instead of looking up every
// relocation's symbol and reference and copying every export name again.
struct LinkPlan {
  // Where a patch's target lies: at an offset in one of the output's
  // sections (these three values mirror SectionKind), or at an external
  // name that the link's libraries must define.
  enum class Target : uint8_t { kText = 0, kData = 1, kBss = 2, kExternal = 3 };
  // One relocation, resolved as far as the module alone allows.
  struct Patch {
    uint32_t at = 0;      // offset of the 32-bit field in its section's output
    uint32_t target = 0;  // offset in the target section; the SymId sought if kExternal
    int32_t addend = 0;
    SymId symbol = kNoSymId;  // the relocation's own name (RelocRecord::symbol)
    uint32_t fragment = 0;    // the fragment it came from (error text)
    SectionKind section = SectionKind::kText;  // the section holding the field
    Target target_kind = Target::kText;
    bool pcrel = false;
    bool cross = false;  // bound through the symbol space or a library
  };

  // One fragment section's bytes and where they go in the output.
  struct Copy {
    const uint8_t* from = nullptr;  // into a fragment the plan keeps alive
    uint32_t at = 0;
    uint32_t size = 0;
    SectionKind section = SectionKind::kText;
  };

  // The fragments vector planned. Kept alive, so a plan kept on a space is
  // recognised by identity (SymbolSpace::Plan) and its copies stay valid.
  std::shared_ptr<const std::vector<FragmentPtr>> fragments;
  uint32_t text_size = 0;
  uint32_t data_size = 0;
  uint32_t bss_size = 0;
  // Every non-empty text and data section, in fragment order. The plan
  // points into the fragments rather than keeping a copy of their bytes:
  // a plan lives as long as its space, and a second copy of every planned
  // module's bytes costs more memory than the copies cost time.
  std::vector<Copy> copies;
  // In fragment order, each fragment's text relocations before its data
  // ones: the order the link applies, logs and fails in.
  std::vector<Patch> patches;
  // The first relocation that names a symbol its fragment's table lacks.
  // The patches end where it stood, so an unresolved external before it
  // still fails first.
  std::optional<Error> error;
  // Exported definitions in name order, each `addr` an offset in its
  // section; names are views of the interned names.
  std::vector<ImageSymbol> symbols;
  // Interned name -> symbols slot; every image of the plan shares it.
  std::shared_ptr<const FlatMap<SymId, uint32_t>> symbol_index;
  uint32_t symbol_count = 0;  // symbol-table entries over all fragments (billed)
  uint32_t refs_bound = 0;    // patches bound through the symbol space
};

// The plan of `module` once bound (a final bind pass resolves references
// that became bindable after view operations, e.g. rename): the plan kept
// on the bound space, built on first use.
Result<std::shared_ptr<const LinkPlan>> PlanLink(const Module& module);

// Apply `plan` at the layout's bases: copy its bytes, resolve its external
// patches against `layout.libraries`, write every patch, and place its
// symbols. Read-only on the plan, so many links of one plan may run at once.
Result<LinkedImage> LinkImage(const LinkPlan& plan, const LayoutSpec& layout, std::string name);

// Produce a LinkedImage from `module`: PlanLink, then apply.
Result<LinkedImage> LinkImage(const Module& module, const LayoutSpec& layout, std::string name);

}  // namespace omos

#endif  // OMOS_SRC_LINKER_LINK_H_
