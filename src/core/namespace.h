// OMOS's hierarchical namespace: "names represent meta-objects, executable
// code fragments, or directories of other objects" (§3.2).
//
// Internally synchronized (PR 3): many server worker threads Lookup/List
// concurrently while administrative requests redefine entries. Entries are
// immutable once published and handed out by shared_ptr; a redefinition
// swaps in a new entry, and the old one lives exactly as long as some
// caller still holds it (builds in flight keep linking against the
// blueprint version they looked up).
#ifndef OMOS_SRC_CORE_NAMESPACE_H_
#define OMOS_SRC_CORE_NAMESPACE_H_

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/constraints.h"
#include "src/core/sexpr.h"
#include "src/linker/module.h"
#include "src/support/result.h"

namespace omos {

enum class EntryKind { kMeta, kLibrary, kFragment };

struct NamespaceEntry {
  EntryKind kind = EntryKind::kMeta;
  // kMeta / kLibrary:
  std::string blueprint_text;  // full source, for hashing and re-parsing
  Sexpr construction;          // the construction expression
  PlacementHints hints;        // from (constraint-list "T" addr "D" addr)
  std::string default_spec;    // from (default-specialization "name"); "" = self-contained
  // kFragment:
  FragmentPtr fragment;
};

class OmosNamespace {
 public:
  // Define a meta-object at `path`. The blueprint may contain, before the
  // construction expression, a (constraint-list "T" addr ["D" addr]) record
  // and a (default-specialization "name") record — Fig. 1's library shape.
  Result<void> DefineMeta(std::string_view path, std::string_view blueprint,
                          EntryKind kind = EntryKind::kMeta);

  // Register a relocatable object fragment (a leaf operand, e.g. /obj/ls.o).
  Result<void> AddFragment(std::string_view path, ObjectFile object);

  // The entry version current at lookup time; it stays alive while the
  // caller holds it, even across a redefinition.
  Result<std::shared_ptr<const NamespaceEntry>> Lookup(std::string_view path) const;
  bool Exists(std::string_view path) const;

  // One recorded lookup: a normalized path and the entry it resolved to.
  using Read = std::pair<std::string, std::shared_ptr<const NamespaceEntry>>;
  // Whether every read still resolves to the entry it saw (pointer
  // identity: entries are immutable, a redefinition publishes a new one).
  // Publish marks the entry it replaces, so this takes no lock and does no
  // lookup: one flag load per read.
  bool AllCurrent(std::span<const Read> reads) const;
  // Drops repeated reads in place, comparing identities rather than paths:
  // an entry is published at one path and never changes, so its pointer
  // identifies the read; a failed lookup (null entry) is identified by its
  // path. The order of the reads left is unspecified.
  static void DedupReads(std::vector<Read>& reads);

  // Immediate children of `path` (directory listing of the exported
  // namespace — what /bin backed by OMOS would enumerate, §5).
  std::vector<std::string> List(std::string_view path) const;

  size_t size() const;

  // A point-in-time copy of every entry, keyed by normalized path, in path
  // order (snapshot support). Each shared_ptr keeps its entry alive
  // independent of later redefinitions.
  std::vector<std::pair<std::string, std::shared_ptr<const NamespaceEntry>>> SnapshotEntries()
      const;

  static std::string Normalize(std::string_view path);

 private:
  Result<void> Publish(std::string path, NamespaceEntry entry);

  mutable std::shared_mutex mu_;
  std::map<std::string, std::shared_ptr<const NamespaceEntry>, std::less<>> entries_;
};

}  // namespace omos

#endif  // OMOS_SRC_CORE_NAMESPACE_H_
