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

#include <atomic>
#include <compare>
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

// One version of something a build can read: a namespace entry, or a
// library's interface. The namespace marks it superseded when a
// redefinition replaces it, so a reader checks it with one atomic load.
struct ReadVersion {
  mutable std::atomic<bool> superseded{false};
};

struct NamespaceEntry {
  EntryKind kind = EntryKind::kMeta;
  // kMeta / kLibrary:
  std::string blueprint_text;  // full source, for hashing and re-parsing
  Sexpr construction;          // the construction expression
  PlacementHints hints;        // from (constraint-list "T" addr "D" addr)
  std::string default_spec;    // from (default-specialization "name"); "" = self-contained
  // Preferred routine order (§4.1), hottest first; empty = none recorded.
  // The default-spec build lays the module out by it.
  std::vector<std::string> routine_order;
  // kFragment:
  FragmentPtr fragment;
  // Set when the entry is published. `version` is this entry's own: the
  // next publication at its path supersedes it. `interface` (kLibrary only)
  // is what a client that mentions the library reads: the library's kind
  // and default specialization, nothing else. A redefinition that keeps
  // both (a base move, a fixed body) takes the interface over instead of
  // superseding it.
  std::shared_ptr<const ReadVersion> version;
  std::shared_ptr<const ReadVersion> interface;
};

// One recorded lookup: a normalized path and the version it read (an
// entry's, or a mentioned library's interface; null when the lookup failed).
// A read does not keep the entry it saw alive.
struct NamespaceRead {
  std::string path;
  std::shared_ptr<const ReadVersion> version;

  friend auto operator<=>(const NamespaceRead&, const NamespaceRead&) = default;
};

// An immutable set of namespace reads, shared by pointer. `own()` holds the
// reads made directly, sorted by path, each (path, version) once; a version
// is published at one path and never changes, so a path read before and
// after its redefinition keeps both reads. The nested sets are those of the
// memo evaluations (and library images) the reads went through and,
// transitively, every set nested in those, each distinct set once: a walk
// visits own() and each nested set's own() and never recurses. A build that
// hits a memo shares the memo's set instead of copying, sorting or
// deduplicating its reads.
class ReadSet {
 public:
  explicit ReadSet(std::vector<NamespaceRead> own,
                   std::span<const std::shared_ptr<const ReadSet>> nested = {});

  const std::vector<NamespaceRead>& own() const { return own_; }

  // Whether any read, own or nested, is of the normalized `path`.
  bool Reads(std::string_view path) const;
  // Every path read, own or nested: sorted, each once.
  std::vector<std::string> Paths() const;
  // Whether `pred` holds for every read, own and nested (stops at the first
  // that fails).
  template <typename Pred>
  bool AllOf(Pred&& pred) const {
    auto holds = [&pred](const ReadSet& set) {
      for (const NamespaceRead& read : set.own_) {
        if (!pred(read)) {
          return false;
        }
      }
      return true;
    };
    if (!holds(*this)) {
      return false;
    }
    for (const std::shared_ptr<const ReadSet>& set : nested_) {
      if (!holds(*set)) {
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<NamespaceRead> own_;
  std::vector<std::shared_ptr<const ReadSet>> nested_;
};

class OmosNamespace {
 public:
  // Define a meta-object at `path`. The blueprint may contain, before the
  // construction expression, a (constraint-list "T" addr ["D" addr]) record
  // and a (default-specialization "name") record — Fig. 1's library shape.
  // A redefinition keeps the routine order of the meta-object it replaces;
  // a library that replaces a library with the same default specialization
  // keeps its interface.
  Result<void> DefineMeta(std::string_view path, std::string_view blueprint,
                          EntryKind kind = EntryKind::kMeta);
  // The unpublished entry DefineMeta would publish at `path`.
  static Result<NamespaceEntry> Parse(std::string_view path, std::string_view blueprint,
                                      EntryKind kind);

  // Register a relocatable object fragment (a leaf operand, e.g. /obj/ls.o).
  Result<void> AddFragment(std::string_view path, ObjectFile object);

  // Republish the meta-object at `path` with `order` as its routine order;
  // kNotFound when no meta-object is defined there.
  Result<void> SetRoutineOrder(std::string_view path, std::vector<std::string> order);

  // The entry version current at lookup time; it stays alive while the
  // caller holds it, even across a redefinition.
  Result<std::shared_ptr<const NamespaceEntry>> Lookup(std::string_view path) const;
  bool Exists(std::string_view path) const;

  using Read = NamespaceRead;
  // Whether no read, own or nested, has been superseded: every entry read
  // is still the one its path serves, and every library interface read is
  // still that of the library there. Publish marks what it replaces, so
  // this takes no lock and does no lookup: one flag load per read. A failed
  // lookup is never current.
  bool AllCurrent(const ReadSet& reads) const;

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
  // Publishes `entry` at `path`, marking the entry it replaces superseded.
  // A meta-object that replaces a meta-object keeps its routine order.
  // See NamespaceEntry for how the library interface passes on.
  Result<void> Publish(std::string path, NamespaceEntry entry);

  mutable std::shared_mutex mu_;
  std::map<std::string, std::shared_ptr<const NamespaceEntry>, std::less<>> entries_;
};

}  // namespace omos

#endif  // OMOS_SRC_CORE_NAMESPACE_H_
