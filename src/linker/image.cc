#include "src/linker/image.h"

namespace omos {

void LinkedImage::BuildSymbolIndex() {
  auto index = std::make_shared<FlatMap<SymId, uint32_t>>();
  index->reserve(symbols.size());
  for (uint32_t i = 0; i < symbols.size(); ++i) {
    // First occurrence wins, like the linear scan this replaces.
    index->try_emplace(SymbolInterner::Global().Intern(symbols[i].name), i);
  }
  symbol_index = std::move(index);
  indexed_count = symbols.size();
}

namespace {

// Stale-index fallback: an image mutated after its last BuildSymbolIndex
// (or never indexed) is scanned linearly. No lazy rebuild here — FindSymbol
// is const and may run from many threads at once on a cached image.
const ImageSymbol* ScanForSymbol(const LinkedImage& image, std::string_view name) {
  for (const ImageSymbol& symbol : image.symbols) {
    if (symbol.name == name) {
      return &symbol;
    }
  }
  return nullptr;
}

}  // namespace

const ImageSymbol* LinkedImage::FindSymbol(std::string_view name) const {
  if (!symbol_index_current()) {
    return ScanForSymbol(*this, name);
  }
  SymId id = SymbolInterner::Global().Find(name);
  if (id == kNoSymId) {
    return nullptr;
  }
  auto it = symbol_index->find(id);
  return it == symbol_index->end() ? nullptr : &symbols[it->second];
}

const ImageSymbol* LinkedImage::FindSymbol(SymId id) const {
  if (!symbol_index_current()) {
    return ScanForSymbol(*this, SymbolInterner::Global().Name(id));
  }
  auto it = symbol_index->find(id);
  return it == symbol_index->end() ? nullptr : &symbols[it->second];
}

}  // namespace omos
