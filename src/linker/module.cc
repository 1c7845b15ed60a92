#include "src/linker/module.h"

#include <algorithm>

#include "src/support/metrics.h"
#include "src/support/regex_cache.h"
#include "src/support/strings.h"

namespace omos {

namespace {

// '&' in a replacement substitutes the original symbol name, e.g.
// rename("^_", "wrapped&") turns _read into wrapped_read.
std::string Substitute(const std::string& replacement, std::string_view original) {
  std::string out;
  for (char c : replacement) {
    if (c == '&') {
      out += original;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string_view NameOf(SymId id) { return SymbolInterner::Global().Name(id); }

// Interned id of a symbol-table entry (AddSymbol fills Symbol::id, but a
// hand-built table may not have gone through it).
SymId IdOf(const Symbol& sym) {
  return sym.id != kNoSymId ? sym.id : SymbolInterner::Global().Intern(sym.name);
}

// Module merges performed; an n-ary MergeAll counts once.
Counter* MergeCounter() {
  static Counter* merges = MetricsRegistry::Global().GetCounter("link.merges");
  return merges;
}

}  // namespace

Module Module::FromObject(FragmentPtr object) {
  Module m;
  auto fragments = std::make_shared<std::vector<FragmentPtr>>();
  fragments->push_back(object);
  m.fragments_ = std::move(fragments);

  auto space = std::make_shared<SymbolSpace>();
  const auto& symbols = object->symbols();
  space->exports.reserve(symbols.size());
  space->refs.reserve(symbols.size());
  // Exports: all defined non-local symbols whose visibility lets them leave
  // the object. Effectively-hidden globals (explicit `.hidden`, or kDefault
  // under default-hidden mode) never enter the export table, so every
  // downstream SymbolSpace copy, merge, and view pass skips them entirely —
  // the symbol-table half of selective extraction.
  static Counter* pruned_symbols = MetricsRegistry::Global().GetCounter("link.pruned_symbols");
  for (uint32_t i = 0; i < symbols.size(); ++i) {
    const Symbol& sym = symbols[i];
    if (sym.defined && sym.binding != SymbolBinding::kLocal) {
      if (object->IsEffectivelyHidden(sym)) {
        pruned_symbols->Add();
        continue;
      }
      space->exports.insert_or_assign(IdOf(sym),
                                      Export{DefId{0, i}, sym.binding == SymbolBinding::kWeak});
    }
  }
  // The set of symbol ids any relocation names — one pass over the reloc
  // lists instead of a per-symbol scan.
  FlatMap<SymId, uint8_t> referenced;
  for (int s = 0; s < kNumSections; ++s) {
    for (const Relocation& reloc : object->section(static_cast<SectionKind>(s)).relocs) {
      referenced.try_emplace(reloc.sid());
    }
  }
  // References: undefined symbols (unbound), plus self-references to own
  // globals (bound-to-self, virtual). A reference exists if any relocation
  // names the symbol. Self-references to effectively-hidden definitions bind
  // *frozen* — with no export there is nothing for override/restrict to
  // rebind them to, exactly the state `hide` produces (§3.3).
  for (uint32_t i = 0; i < symbols.size(); ++i) {
    const Symbol& sym = symbols[i];
    SymId id = IdOf(sym);
    if (!sym.defined) {
      space->refs.insert_or_assign(PackRefKey(0, id),
                                   RefRecord{BindState::kUnbound, DefId{}, id});
    } else if (sym.binding != SymbolBinding::kLocal && referenced.contains(id)) {
      BindState state =
          object->IsEffectivelyHidden(sym) ? BindState::kFrozen : BindState::kBound;
      space->refs.insert_or_assign(PackRefKey(0, id), RefRecord{state, DefId{0, i}, id});
    }
  }
  m.base_ = std::move(space);
  return m;
}

Module Module::WithOp(ViewOp op) const {
  Module m;
  m.fragments_ = fragments_;
  m.base_ = base_;
  m.ops_ = ops_;
  m.ops_.push_back(std::move(op));
  return m;
}

Module Module::Rename(std::string pattern, std::string replacement, RenameWhich which) const {
  return WithOp(ViewOp{ViewOp::Kind::kRename, std::move(pattern), std::move(replacement), which});
}
Module Module::Restrict(std::string pattern) const {
  return WithOp(ViewOp{ViewOp::Kind::kRestrict, std::move(pattern), "", RenameWhich::kBoth});
}
Module Module::Project(std::string pattern) const {
  return WithOp(ViewOp{ViewOp::Kind::kProject, std::move(pattern), "", RenameWhich::kBoth});
}
Module Module::Hide(std::string pattern) const {
  return WithOp(ViewOp{ViewOp::Kind::kHide, std::move(pattern), "", RenameWhich::kBoth});
}
Module Module::Show(std::string pattern) const {
  return WithOp(ViewOp{ViewOp::Kind::kShow, std::move(pattern), "", RenameWhich::kBoth});
}
Module Module::Freeze(std::string pattern) const {
  return WithOp(ViewOp{ViewOp::Kind::kFreeze, std::move(pattern), "", RenameWhich::kBoth});
}
Module Module::CopyAs(std::string pattern, std::string replacement) const {
  return WithOp(ViewOp{ViewOp::Kind::kCopyAs, std::move(pattern), std::move(replacement),
                       RenameWhich::kBoth});
}

void Module::ApplyOp(const ViewOp& op, SymbolSpace& space) {
  // Compiled once per op application; an invalid pattern selects nothing
  // (same contract as RegexMatch).
  const std::regex* re = GetCompiledRegex(op.pattern);
  auto matches = [&](SymId id) {
    if (re == nullptr) {
      return false;
    }
    std::string_view name = NameOf(id);
    return std::regex_search(name.begin(), name.end(), *re);
  };

  switch (op.kind) {
    case ViewOp::Kind::kRename: {
      if (op.which != RenameWhich::kRefs) {
        struct Item {
          SymId src;
          SymId dst;
          Export exp;
        };
        std::vector<Item> items;
        items.reserve(space.exports.size());
        bool any = false;
        for (const auto& [id, exp] : space.exports) {
          SymId dst = id;
          if (matches(id)) {
            dst = SymbolInterner::Global().Intern(Substitute(op.arg, NameOf(id)));
            any = true;
          }
          items.push_back(Item{id, dst, exp});
        }
        if (any) {
          // Collisions keep the lexicographically-first source, matching the
          // ordered-map behaviour this table replaced.
          std::sort(items.begin(), items.end(),
                    [](const Item& a, const Item& b) { return NameOf(a.src) < NameOf(b.src); });
          FlatMap<SymId, Export> renamed;
          renamed.reserve(items.size());
          for (const Item& item : items) {
            renamed.try_emplace(item.dst, item.exp);
          }
          space.exports = std::move(renamed);
        }
      }
      if (op.which != RenameWhich::kDefs) {
        for (auto& [key, ref] : space.refs) {
          if (matches(ref.ext_name)) {
            ref.ext_name = SymbolInterner::Global().Intern(Substitute(op.arg, NameOf(ref.ext_name)));
          }
        }
      }
      break;
    }
    case ViewOp::Kind::kRestrict:
    case ViewOp::Kind::kProject: {
      bool keep_on_match = op.kind == ViewOp::Kind::kProject;
      std::vector<SymId> dropped;
      for (const auto& [id, exp] : space.exports) {
        if (matches(id) != keep_on_match) {
          dropped.push_back(id);
        }
      }
      for (SymId id : dropped) {
        space.exports.erase(id);
      }
      for (auto& [key, ref] : space.refs) {
        bool selected = matches(ref.ext_name) != keep_on_match;
        if (selected && ref.state == BindState::kBound) {
          ref.state = BindState::kUnbound;
        }
      }
      break;
    }
    case ViewOp::Kind::kHide:
    case ViewOp::Kind::kShow: {
      bool hide_on_match = op.kind == ViewOp::Kind::kHide;
      for (auto& [key, ref] : space.refs) {
        bool selected = matches(ref.ext_name) == hide_on_match;
        if (selected && ref.state == BindState::kBound) {
          ref.state = BindState::kFrozen;
        }
      }
      std::vector<SymId> hidden;
      for (const auto& [id, exp] : space.exports) {
        if (matches(id) == hide_on_match) {
          hidden.push_back(id);
        }
      }
      for (SymId id : hidden) {
        space.exports.erase(id);
      }
      break;
    }
    case ViewOp::Kind::kFreeze: {
      for (auto& [key, ref] : space.refs) {
        if (matches(ref.ext_name) && ref.state == BindState::kBound) {
          ref.state = BindState::kFrozen;
        }
      }
      break;
    }
    case ViewOp::Kind::kCopyAs: {
      struct Addition {
        SymId src;
        SymId dst;
        Export exp;
      };
      std::vector<Addition> additions;
      for (const auto& [id, exp] : space.exports) {
        if (matches(id)) {
          additions.push_back(
              Addition{id, SymbolInterner::Global().Intern(Substitute(op.arg, NameOf(id))), exp});
        }
      }
      // Copies from lexicographically-later sources win on collision,
      // matching the ordered-map behaviour this table replaced.
      std::sort(additions.begin(), additions.end(), [](const Addition& a, const Addition& b) {
        return NameOf(a.src) < NameOf(b.src);
      });
      for (const Addition& add : additions) {
        space.exports.insert_or_assign(add.dst, add.exp);
      }
      break;
    }
  }
}

void Module::BindSpace(SymbolSpace& space) {
  for (auto& [key, ref] : space.refs) {
    if (ref.state == BindState::kUnbound) {
      if (const Export* exp = space.FindExport(ref.ext_name)) {
        ref.state = BindState::kBound;
        ref.target = exp->def;
      }
    }
  }
}

std::span<const SymId> SymbolSpace::ExportOrder() const {
  std::call_once(order_.once, [this] {
    std::vector<std::pair<std::string_view, SymId>> named;
    named.reserve(exports.size());
    for (const auto& [id, exp] : exports) {
      named.emplace_back(SymbolInterner::Global().Name(id), id);
    }
    std::sort(named.begin(), named.end());
    order_.value.reserve(named.size());
    for (const auto& [name, id] : named) {
      order_.value.push_back(id);
    }
  });
  return order_.value;
}

bool SymbolSpace::FullyBound() const {
  std::call_once(fully_bound_.once, [this] {
    fully_bound_.value = true;
    for (const auto& [key, ref] : refs) {
      if (ref.state == BindState::kUnbound && exports.contains(ref.ext_name)) {
        fully_bound_.value = false;
        break;
      }
    }
  });
  return fully_bound_.value;
}

Result<const SymbolSpace*> Module::Space() const {
  if (cache_ != nullptr) {
    return cache_.get();
  }
  if (ops_.empty()) {
    cache_ = base_;
    return cache_.get();
  }
  auto space = std::make_shared<SymbolSpace>(*base_);
  for (const ViewOp& op : ops_) {
    ApplyOp(op, *space);
  }
  cache_ = std::move(space);
  return cache_.get();
}

Result<Module> Module::Bind() const {
  OMOS_TRY(const SymbolSpace* space, Space());
  Module m;
  m.fragments_ = fragments_;
  // Share the materialized space outright when no reference would change —
  // the warm-path case (an already-bound module relinked or re-instantiated).
  if (space->FullyBound()) {
    m.base_ = cache_;  // Space() populated cache_
    return m;
  }
  auto bound = std::make_shared<SymbolSpace>(*space);
  BindSpace(*bound);
  m.base_ = std::move(bound);
  return m;
}

Result<Module> Module::Merge(const Module& a, const Module& b) {
  OMOS_TRY(const SymbolSpace* sa, a.Space());
  OMOS_TRY(const SymbolSpace* sb, b.Space());
  MergeCounter()->Add();

  Module m;
  auto fragments = std::make_shared<std::vector<FragmentPtr>>(*a.fragments_);
  uint32_t offset = static_cast<uint32_t>(fragments->size());
  fragments->insert(fragments->end(), b.fragments_->begin(), b.fragments_->end());
  m.fragments_ = std::move(fragments);

  auto space = std::make_shared<SymbolSpace>(*sa);
  space->exports.reserve(sa->exports.size() + sb->exports.size());
  space->refs.reserve(sa->refs.size() + sb->refs.size());
  // Import b's exports, shifting fragment indices; duplicate strong
  // definitions are an error, weak yields to strong.
  for (const auto& [id, exp] : sb->exports) {
    Export shifted{DefId{exp.def.fragment + offset, exp.def.symbol}, exp.weak};
    auto it = space->exports.find(id);
    if (it == space->exports.end()) {
      space->exports.insert_or_assign(id, shifted);
    } else if (it->second.weak && !shifted.weak) {
      it->second = shifted;
    } else if (!it->second.weak && !shifted.weak) {
      return Err(ErrorCode::kDuplicateSymbol,
                 StrCat("merge: symbol ", NameOf(id), " defined twice"));
    }
    // strong-existing + weak-incoming (or weak/weak): keep existing.
  }
  for (const auto& [key, ref] : sb->refs) {
    RefRecord shifted = ref;
    if (shifted.state != BindState::kUnbound) {
      shifted.target.fragment += offset;
    }
    space->refs.insert_or_assign(PackRefKey(RefKeyFragment(key) + offset, RefKeyName(key)),
                                 shifted);
  }
  BindSpace(*space);
  m.base_ = std::move(space);
  return m;
}

Result<Module> Module::MergeAll(std::span<const Module> ops) {
  if (ops.empty()) {
    return Module();
  }
  if (ops.size() == 1) {
    return ops[0];
  }
  std::vector<const SymbolSpace*> spaces;
  spaces.reserve(ops.size());
  size_t fragment_count = 0;
  size_t export_count = 0;
  size_t ref_count = 0;
  for (const Module& op : ops) {
    OMOS_TRY(const SymbolSpace* s, op.Space());
    spaces.push_back(s);
    fragment_count += op.fragments_->size();
    export_count += s->exports.size();
    ref_count += s->refs.size();
  }
  MergeCounter()->Add();

  Module m;
  auto fragments = std::make_shared<std::vector<FragmentPtr>>();
  fragments->reserve(fragment_count);
  auto space = std::make_shared<SymbolSpace>();
  space->exports.reserve(export_count);
  space->refs.reserve(ref_count);

  // The fold binds after each operand k >= 1: every unbound reference whose
  // name is exported at that point binds to the definition exported then.
  // Replaying that timing without re-scanning every reference: a reference
  // that finds no export waits, keyed by name, until an operand first
  // exports the name. A weak-to-strong replacement needs no rebinding — no
  // reference waits on a name that was already exported at a bind point.
  FlatMap<SymId, std::vector<uint64_t>> waiting;
  std::vector<SymId> fresh;        // names first exported since the last bind point
  std::vector<uint64_t> unbound;   // references added unbound since then
  auto bind = [&space](uint64_t key, const Export& exp) {
    RefRecord& ref = space->refs.at(key);
    ref.state = BindState::kBound;
    ref.target = exp.def;
  };
  for (size_t k = 0; k < ops.size(); ++k) {
    const SymbolSpace& s = *spaces[k];
    uint32_t offset = static_cast<uint32_t>(fragments->size());
    fragments->insert(fragments->end(), ops[k].fragments_->begin(), ops[k].fragments_->end());
    for (const auto& [id, exp] : s.exports) {
      Export shifted{DefId{exp.def.fragment + offset, exp.def.symbol}, exp.weak};
      auto [it, inserted] = space->exports.try_emplace(id, shifted);
      if (inserted) {
        fresh.push_back(id);
      } else if (it->second.weak && !shifted.weak) {
        it->second = shifted;
      } else if (!it->second.weak && !shifted.weak) {
        return Err(ErrorCode::kDuplicateSymbol,
                   StrCat("merge: symbol ", NameOf(id), " defined twice"));
      }
    }
    for (const auto& [key, ref] : s.refs) {
      RefRecord shifted = ref;
      if (shifted.state != BindState::kUnbound) {
        shifted.target.fragment += offset;
      }
      uint64_t shifted_key = PackRefKey(RefKeyFragment(key) + offset, RefKeyName(key));
      space->refs.insert_or_assign(shifted_key, shifted);
      if (shifted.state == BindState::kUnbound) {
        unbound.push_back(shifted_key);
      }
    }
    if (k == 0) {
      continue;  // the fold's first bind point follows operand 1
    }
    for (SymId id : fresh) {
      auto it = waiting.find(id);
      if (it != waiting.end()) {
        const Export& exp = space->exports.at(id);
        for (uint64_t key : it->second) {
          bind(key, exp);
        }
        waiting.erase(id);
      }
    }
    fresh.clear();
    for (uint64_t key : unbound) {
      SymId name = space->refs.at(key).ext_name;
      if (const Export* exp = space->FindExport(name)) {
        bind(key, *exp);
      } else {
        waiting[name].push_back(key);
      }
    }
    unbound.clear();
  }
  m.fragments_ = std::move(fragments);
  m.base_ = std::move(space);
  return m;
}

Result<Module> Module::Override(const Module& base, const Module& over) {
  OMOS_TRY(const SymbolSpace* sa, base.Space());
  OMOS_TRY(const SymbolSpace* sb, over.Space());

  Module m;
  auto fragments = std::make_shared<std::vector<FragmentPtr>>(*base.fragments_);
  uint32_t offset = static_cast<uint32_t>(fragments->size());
  fragments->insert(fragments->end(), over.fragments_->begin(), over.fragments_->end());
  m.fragments_ = std::move(fragments);

  auto space = std::make_shared<SymbolSpace>(*sa);
  space->exports.reserve(sa->exports.size() + sb->exports.size());
  space->refs.reserve(sa->refs.size() + sb->refs.size());
  for (const auto& [key, ref] : sb->refs) {
    RefRecord shifted = ref;
    if (shifted.state != BindState::kUnbound) {
      shifted.target.fragment += offset;
    }
    space->refs.insert_or_assign(PackRefKey(RefKeyFragment(key) + offset, RefKeyName(key)),
                                 shifted);
  }
  for (const auto& [id, exp] : sb->exports) {
    Export shifted{DefId{exp.def.fragment + offset, exp.def.symbol}, exp.weak};
    auto it = space->exports.find(id);
    if (it == space->exports.end()) {
      space->exports.insert_or_assign(id, shifted);
      continue;
    }
    // Conflict: the overriding definition wins; rebind every non-frozen
    // reference that pointed at the shadowed definition.
    DefId shadowed = it->second.def;
    it->second = shifted;
    for (auto& [key, ref] : space->refs) {
      if (ref.state == BindState::kBound && ref.target == shadowed) {
        ref.target = shifted.def;
      }
    }
  }
  BindSpace(*space);
  m.base_ = std::move(space);
  return m;
}

Result<Module> Module::ReorderFragments(const std::vector<uint32_t>& order) const {
  OMOS_TRY(const SymbolSpace* space, Space());
  size_t n = fragments_->size();
  if (order.size() != n) {
    return Err(ErrorCode::kInvalidArgument, "reorder: order size mismatch");
  }
  std::vector<uint32_t> inverse(n, UINT32_MAX);
  for (uint32_t new_pos = 0; new_pos < order.size(); ++new_pos) {
    uint32_t old_pos = order[new_pos];
    if (old_pos >= n || inverse[old_pos] != UINT32_MAX) {
      return Err(ErrorCode::kInvalidArgument, "reorder: not a permutation");
    }
    inverse[old_pos] = new_pos;
  }
  Module m;
  auto fragments = std::make_shared<std::vector<FragmentPtr>>();
  fragments->reserve(n);
  for (uint32_t old_pos : order) {
    fragments->push_back((*fragments_)[old_pos]);
  }
  m.fragments_ = std::move(fragments);
  auto remapped = std::make_shared<SymbolSpace>();
  remapped->exports.reserve(space->exports.size());
  remapped->refs.reserve(space->refs.size());
  for (const auto& [id, exp] : space->exports) {
    remapped->exports.insert_or_assign(
        id, Export{DefId{inverse[exp.def.fragment], exp.def.symbol}, exp.weak});
  }
  for (const auto& [key, ref] : space->refs) {
    RefRecord record = ref;
    if (record.state != BindState::kUnbound) {
      record.target.fragment = inverse[record.target.fragment];
    }
    remapped->refs.insert_or_assign(PackRefKey(inverse[RefKeyFragment(key)], RefKeyName(key)),
                                    record);
  }
  m.base_ = std::move(remapped);
  return m;
}

Result<bool> Module::HasExport(std::string_view name) const {
  OMOS_TRY(const SymbolSpace* space, Space());
  return space->FindExport(name) != nullptr;
}

Result<std::vector<std::string>> Module::ExportNames() const {
  OMOS_TRY(const SymbolSpace* space, Space());
  std::vector<std::string> names;
  names.reserve(space->exports.size());
  for (const auto& [id, exp] : space->exports) {
    names.emplace_back(NameOf(id));
  }
  std::sort(names.begin(), names.end());
  return names;
}

Result<std::vector<std::string>> Module::UnboundRefNames() const {
  OMOS_TRY(const SymbolSpace* space, Space());
  std::vector<std::string> names;
  for (const auto& [key, ref] : space->refs) {
    if (ref.state == BindState::kUnbound) {
      names.emplace_back(NameOf(ref.ext_name));
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

}  // namespace omos
