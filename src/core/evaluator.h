// The blueprint evaluator: m-graph execution (§3.3). A blueprint's
// construction expression is evaluated against the namespace into a module
// plus the libraries it mentions; every namespace lookup is recorded, so a
// build knows exactly which entries its result depends on (ReadSet).
//
// Evaluation is a pure function of what it reads: the entries it evaluates,
// and of each library it only mentions, the interface (kind and default
// specialization). The evaluator memoizes the evaluation of each
// meta-object and library construction and replays it while no recorded
// read is superseded, so a library fix that keeps the interface (a base
// move) keeps every client's memo. It is the only code that decides whether
// a remembered evaluation is valid:
//
//  * a hit is served only when MemoCurrent holds for it;
//  * an evaluation is remembered only when, under the memo's own lock, every
//    read it made is still current;
//  * a namespace writer calls DropStaleMemos after it publishes, which
//    takes the same lock.
//
// So a memo that a concurrent redefinition superseded is either refused at
// insert or dropped by that writer, and no superseded entry stays pinned.
#ifndef OMOS_SRC_CORE_EVALUATOR_H_
#define OMOS_SRC_CORE_EVALUATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/constraints.h"
#include "src/core/namespace.h"
#include "src/core/sexpr.h"
#include "src/linker/module.h"
#include "src/support/result.h"

namespace omos {

// Simulated cycles to assemble one line of generated source.
inline constexpr uint64_t kAssembleLineCost = 40;

// Each address set in `over` replaces the one in `base`.
void Overlay(PlacementHints& base, const PlacementHints& over);

// How an instantiation is specialized (§3.4). Well-known names:
//   ""                  — meta-object default (self-contained; laid out by
//                         the entry's recorded routine order when it has one)
//   "lib-constrained"   — fixed-address self-contained library (§4.1)
//   "lib-dynamic"       — partial-image client stubs (§4.2)
//   "lib-dynamic-impl"  — the demand-loaded library implementation (§4.2)
//   "monitor"           — interpose call-logging wrappers (§4.1, §6)
//   "reorder"           — lay out routines by recorded usage (§4.1)
struct Specialization {
  std::string name;
  PlacementHints hints;

  // Stable string form used in cache keys and IPC ("lib-constrained;T=0x...").
  // Parsing refuses a malformed or over-wide base with kInvalidArgument.
  std::string ToKeyString() const;
  static Result<Specialization> FromKeyString(std::string_view text);
};

// A library mention picked up while evaluating a blueprint.
struct LibraryUse {
  std::string path;
  Specialization spec;
};

// The value lattice of blueprint evaluation.
struct EvalValue {
  std::optional<Module> module;
  std::vector<LibraryUse> libs;
  PlacementHints hints;
};

// What one build has read and spent so far.
struct BuildTracker {
  uint64_t work = 0;
  // The namespace reads made directly so far, in order (normalized path,
  // version read or null when the lookup failed), and the read sets of the
  // memo evaluations and library images gone through, by pointer.
  std::vector<NamespaceRead> reads;
  std::vector<std::shared_ptr<const ReadSet>> nested;
  int max_depth = 0;  // deepest Eval depth reached
  // Set when the built image could not publish because a read was
  // redefined or a dep moved meanwhile; the build is then redone.
  bool superseded = false;

  // Moves every read so far into one immutable set; the tracker is left
  // with none.
  std::shared_ptr<const ReadSet> TakeReads() {
    auto set = std::make_shared<const ReadSet>(std::move(reads), nested);
    reads.clear();
    nested.clear();
    return set;
  }
};

// Internally synchronized: many builds evaluate at once. The memo's lock is
// a leaf: nothing else is acquired while it is held.
class BlueprintEvaluator {
 public:
  explicit BlueprintEvaluator(const OmosNamespace& name_space) : namespace_(name_space) {}

  // An entry read on behalf of a build, and what it evaluated to.
  struct Evaluated {
    std::shared_ptr<const NamespaceEntry> entry;
    EvalValue value;
  };

  // Evaluate a blueprint expression at `depth`.
  Result<EvalValue> Eval(const Sexpr& expr, BuildTracker& tracker, int depth = 0);

  // Reads `path` as an input of the build and evaluates the entry it names:
  // a fragment is its module; a meta-object's or library's construction is
  // evaluated at `depth` through the memo, so a build is billed and
  // invalidated exactly as by a cold evaluation. Named as an operand inside
  // a construction (`mention_libraries`), a library is not evaluated but
  // mentioned: the value carries a LibraryUse for the build to link, and
  // the read is of the library's interface, not of its entry.
  Result<Evaluated> EvalPath(std::string_view path, BuildTracker& tracker, int depth = 0,
                             bool mention_libraries = false);

  // The full module of `path` given its evaluated `root` value: every
  // library it mentions, transitively, merged in (monitor/reorder builds).
  Result<Module> FoldInLibraries(EvalValue root, std::string_view path, BuildTracker& tracker);

  static Result<Module> RequireModule(EvalValue value, std::string_view op);

  // Drop every memo that is no longer current, so entries a redefinition
  // superseded are not pinned. Every namespace writer calls it after
  // publishing.
  void DropStaleMemos();

 private:
  // A memoized evaluation of one namespace entry's construction. Entries
  // are immutable and a redefinition publishes a new one, superseding the
  // old entry's version (and its library interface unless the new entry
  // keeps kind and default specialization). The memo is valid exactly while
  // no version it recorded is superseded: the entries it evaluated are
  // still the ones served, and the libraries it mentioned still have the
  // interface it read. Reads hold versions, not entries, so a memo pins no
  // entry but its own.
  struct EvalMemo {
    std::shared_ptr<const NamespaceEntry> entry;  // the entry evaluated
    EvalValue value;                              // module space materialized
    uint64_t work = 0;                            // billed work of the evaluation
    int height = 0;                               // Eval depth reached below it
    // Every read, the entry's own included; shared with the builds that
    // hit the memo and the memos that nest it.
    std::shared_ptr<const ReadSet> reads;
  };

  // Evaluate the construction of `entry`, just read at normalized path
  // `norm`, at `depth`: a still-valid memo is replayed (its value, its read
  // set into tracker.nested by pointer, its work into tracker.work); a miss
  // nests the read set it stores in the memo.
  Result<EvalValue> EvalConstruction(const std::string& norm,
                                     const std::shared_ptr<const NamespaceEntry>& entry,
                                     BuildTracker& tracker, int depth);
  // Whether `memo` was evaluated from `entry` and no read it recorded has
  // been superseded.
  bool MemoCurrent(const EvalMemo& memo, const NamespaceEntry* entry) const;
  // One value of `values`: their modules merged (or overridden left to
  // right), their library mentions and placement hints gathered.
  static Result<EvalValue> MergeValues(std::vector<EvalValue> values, bool override_mode);

  static constexpr int kMaxEvalDepth = 64;

  const OmosNamespace& namespace_;  // internally synchronized
  // Normalized path -> its construction's last evaluation, at most one per
  // namespace entry. Guarded by memo_mu_; hits are validated and replayed
  // outside it.
  mutable std::mutex memo_mu_;
  std::map<std::string, std::shared_ptr<const EvalMemo>> memo_;
};

}  // namespace omos

#endif  // OMOS_SRC_CORE_EVALUATOR_H_
