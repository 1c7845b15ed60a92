// The link step: lay out a module's fragments at concrete addresses and
// apply relocations through the module's symbol space.
#ifndef OMOS_SRC_LINKER_LINK_H_
#define OMOS_SRC_LINKER_LINK_H_

#include <string>
#include <vector>

#include "src/linker/image.h"
#include "src/linker/module.h"
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

// Pass 1 of LinkImage: every fragment's section offsets in the output, in
// fragment order, and the output's section sizes. Text is aligned to the
// instruction size and data and bss to 4 bytes; bss follows data.
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

// Produce a LinkedImage from `module`. A final bind pass resolves any
// references that became bindable after view operations (e.g. rename).
Result<LinkedImage> LinkImage(const Module& module, const LayoutSpec& layout, std::string name);

}  // namespace omos

#endif  // OMOS_SRC_LINKER_LINK_H_
