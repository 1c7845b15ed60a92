// The module calculus: Modules, module operators, and symbol-space views.
//
// Following Bracha & Lindstrom's Jigsaw (paper §3.3), a module is a
// self-referential naming scope: a set of code/data fragments, a table of
// exported definitions, and a set of references whose bindings the module
// operators manipulate. A leaf module (one object file) starts with every
// reference to one of its own global definitions *bound to self but not
// frozen* — inheritance-style virtual binding — so later `override` or
// `restrict` can rebind internal callers, which is exactly what the paper's
// malloc-interposition example (Fig. 2) relies on.
//
// `merge` of n operands (MergeAll) builds the result in one pass — one
// fragment vector, one export table, one binding pass — instead of n-1
// pairwise copies, so an archive of n members merges in O(total symbols).
//
// Binding states per reference:
//   kUnbound — no definition chosen yet (merge will bind it)
//   kBound   — bound, but rebindable (override) and unbindable (restrict)
//   kFrozen  — permanent (freeze/hide); immune to restrict/override
//
// Unary operators (rename/hide/show/restrict/project/copy-as/freeze) are
// recorded as a lazy *view chain* over a shared immutable SymbolSpace and
// applied in one pass on first use — the paper's "views" that make
// incremental modification of a symbol namespace fast (§3.3). `merge` and
// `override` materialize.
//
// Symbol spaces are keyed by interned SymIds in open-addressing flat tables
// (src/support/interner.h, src/support/flat_map.h): lookups are u32 probes,
// copies are flat vector copies, and `Bind`/`Space` share the base space
// outright when there is nothing to change.
#ifndef OMOS_SRC_LINKER_MODULE_H_
#define OMOS_SRC_LINKER_MODULE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/objfmt/object_file.h"
#include "src/support/flat_map.h"
#include "src/support/interner.h"
#include "src/support/result.h"

namespace omos {

using FragmentPtr = std::shared_ptr<const ObjectFile>;
struct LinkPlan;  // src/linker/link.h

// Identifies a definition: fragment index within the module, symbol index
// within that fragment's symbol table.
struct DefId {
  uint32_t fragment = 0;
  uint32_t symbol = 0;

  auto operator<=>(const DefId&) const = default;
};

enum class BindState : uint8_t { kUnbound = 0, kBound = 1, kFrozen = 2 };

struct Export {
  DefId def;
  bool weak = false;
};

// Key of a reference: which fragment, and the (interned) symbol-table name
// the fragment's relocations use — packed into one u64. The name component
// is never renamed; renames change RefRecord::ext_name.
inline constexpr uint64_t PackRefKey(uint32_t fragment, SymId name) {
  return (static_cast<uint64_t>(fragment) << 32) | name;
}
inline constexpr uint32_t RefKeyFragment(uint64_t key) {
  return static_cast<uint32_t>(key >> 32);
}
inline constexpr SymId RefKeyName(uint64_t key) { return static_cast<SymId>(key); }

struct RefRecord {
  BindState state = BindState::kUnbound;
  DefId target;                 // valid when state != kUnbound
  SymId ext_name = kNoSymId;    // the external name this reference currently seeks
};

// Materialized symbol space of a module.
struct SymbolSpace {
  FlatMap<SymId, Export> exports;
  FlatMap<uint64_t, RefRecord> refs;  // PackRefKey(fragment, name) -> record

  const Export* FindExport(SymId id) const {
    auto it = exports.find(id);
    return it == exports.end() ? nullptr : &it->second;
  }
  const Export* FindExport(std::string_view name) const {
    SymId id = SymbolInterner::Global().Find(name);
    return id == kNoSymId ? nullptr : FindExport(id);
  }
  const RefRecord* FindRef(uint32_t fragment, SymId name) const {
    auto it = refs.find(PackRefKey(fragment, name));
    return it == refs.end() ? nullptr : &it->second;
  }
  const RefRecord* FindRef(uint32_t fragment, std::string_view name) const {
    SymId id = SymbolInterner::Global().Find(name);
    return id == kNoSymId ? nullptr : FindRef(fragment, id);
  }

  // The export ids sorted by name: the order a link emits its symbol table
  // in. Computed on the first call and kept, so a space shared by many
  // links (a memoized library's) is sorted once; safe to call from many
  // threads at once. Call it only on a final space: a copy starts without
  // an order, but changing `exports` in place afterwards would leave a
  // stale one.
  std::span<const SymId> ExportOrder() const;

  // Whether no unbound reference seeks a name this space exports, so a
  // binding pass would change nothing. Computed on the first call and kept,
  // so Module::Bind on a space shared by many links (a memoized module's)
  // scans its references once; call it only on a final space, as
  // ExportOrder.
  bool FullyBound() const;

  // The link plan of this space over `fragments` (src/linker/link.h, which
  // defines this). The first call builds it and the space keeps it for its
  // lifetime, so a space shared by many links (a memoized library's,
  // relinked at each new base) is planned once; safe to call from many
  // threads at once. The kept plan serves only the fragments vector it was
  // built from: a call with any other builds a plan that is not kept. Call
  // it only on a final space, as ExportOrder.
  std::shared_ptr<const LinkPlan> Plan(
      const std::shared_ptr<const std::vector<FragmentPtr>>& fragments) const;

 private:
  // Copies and moves start empty: what is kept belongs to one space.
  template <typename T>
  struct OnceCache {
    OnceCache() = default;
    OnceCache(const OnceCache&) {}
    OnceCache& operator=(const OnceCache&) = delete;
    std::once_flag once;
    T value{};
  };
  mutable OnceCache<std::vector<SymId>> order_;
  mutable OnceCache<bool> fully_bound_;
  mutable OnceCache<std::shared_ptr<const LinkPlan>> plan_;
};

enum class RenameWhich : uint8_t { kDefs, kRefs, kBoth };

class Module {
 public:
  Module() = default;

  // Leaf module from a single relocatable object.
  static Module FromObject(FragmentPtr object);

  // merge: union of fragments; duplicate strong definitions are an error
  // (weak yields to strong); every unbound reference whose ext_name matches
  // an export becomes bound.
  static Result<Module> Merge(const Module& a, const Module& b);

  // n-ary merge in one pass; equal, bit for bit, to the left fold
  // Merge(Merge(ops[0], ops[1]), ops[2])… including its binding timing: a
  // reference bound at step k keeps the definition exported at step k, so a
  // reference that bound to a weak definition stays bound to it when a later
  // operand brings a strong one. Duplicate strong definitions fail with
  // kDuplicateSymbol, naming the first conflict the fold would hit. One
  // operand is returned as is; none yields an empty module.
  static Result<Module> MergeAll(std::span<const Module> ops);

  // override: merge resolving export conflicts in favour of `over`; non-
  // frozen references previously bound to the shadowed definitions are
  // rebound to the overriding ones.
  static Result<Module> Override(const Module& base, const Module& over);

  // Unary module operations (lazy; O(1) to apply).
  Module Rename(std::string pattern, std::string replacement, RenameWhich which) const;
  Module Restrict(std::string pattern) const;  // drop matching defs, unbind matching refs
  Module Project(std::string pattern) const;   // restrict the complement
  Module Hide(std::string pattern) const;      // drop matching defs, freeze matching refs
  Module Show(std::string pattern) const;      // hide the complement
  Module Freeze(std::string pattern) const;    // make matching bound refs permanent
  // copy-as: duplicate each export matching `pattern` under `replacement`;
  // '&' in the replacement substitutes the matched name.
  Module CopyAs(std::string pattern, std::string replacement) const;

  // Bind unbound references against current exports (merge does this
  // automatically; exposed for the final pre-link pass). Shares the space
  // with this module when nothing is bindable — the common warm-path case.
  Result<Module> Bind() const;

  // Permute fragment order — the locality-of-reference optimization of
  // §4.1: OMOS reorders routines by observed usage. `order` must be a
  // permutation of [0, fragments().size()).
  Result<Module> ReorderFragments(const std::vector<uint32_t>& order) const;

  const std::vector<FragmentPtr>& fragments() const { return *fragments_; }
  // The same vector, shared: what a link plan is keyed by (SymbolSpace::Plan).
  const std::shared_ptr<const std::vector<FragmentPtr>>& shared_fragments() const {
    return fragments_;
  }

  // Materialized symbol space (applies any pending view ops once, caching).
  Result<const SymbolSpace*> Space() const;

  // Number of view ops not yet applied (for tests/benchmarks).
  size_t pending_ops() const { return ops_.size(); }

  // Introspection helpers (materialize if needed).
  Result<bool> HasExport(std::string_view name) const;
  Result<std::vector<std::string>> ExportNames() const;
  // Names sought by currently-unbound references.
  Result<std::vector<std::string>> UnboundRefNames() const;

 private:
  struct ViewOp {
    enum class Kind : uint8_t {
      kRename,
      kRestrict,
      kProject,
      kHide,
      kShow,
      kFreeze,
      kCopyAs,
    } kind;
    std::string pattern;
    std::string arg;  // replacement for rename/copy-as
    RenameWhich which = RenameWhich::kBoth;
  };

  Module WithOp(ViewOp op) const;
  static void ApplyOp(const ViewOp& op, SymbolSpace& space);
  static void BindSpace(SymbolSpace& space);

  std::shared_ptr<const std::vector<FragmentPtr>> fragments_ =
      std::make_shared<std::vector<FragmentPtr>>();
  std::shared_ptr<const SymbolSpace> base_ = std::make_shared<SymbolSpace>();
  std::vector<ViewOp> ops_;
  mutable std::shared_ptr<const SymbolSpace> cache_;
};

}  // namespace omos

#endif  // OMOS_SRC_LINKER_MODULE_H_
