// Unit tests for the core server's components: blueprint parser, namespace,
// constraint solver, image cache, specialization keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "src/core/cache.h"
#include "src/core/constraints.h"
#include "src/core/evaluator.h"
#include "src/core/namespace.h"
#include "src/core/server.h"
#include "src/core/sexpr.h"
#include "src/support/faultsim.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "tests/helpers.h"

namespace omos {
namespace {

// ---- S-expressions -------------------------------------------------------------

TEST(Sexpr, ParsesAtomsAndLists) {
  ASSERT_OK_AND_ASSIGN(Sexpr e, ParseSexpr("(merge /lib/crt0.o \"str\" 0x100 (list a))"));
  ASSERT_EQ(e.kind, Sexpr::Kind::kList);
  ASSERT_EQ(e.children.size(), 5u);
  EXPECT_EQ(e.children[0].atom, "merge");
  EXPECT_EQ(e.children[1].atom, "/lib/crt0.o");
  EXPECT_EQ(e.children[2].kind, Sexpr::Kind::kString);
  EXPECT_EQ(e.children[2].atom, "str");
  EXPECT_EQ(e.children[3].kind, Sexpr::Kind::kNumber);
  EXPECT_EQ(e.children[3].number, 0x100u);
  EXPECT_EQ(e.children[4].kind, Sexpr::Kind::kList);
}

TEST(Sexpr, CommentsAndEscapes) {
  ASSERT_OK_AND_ASSIGN(Sexpr e, ParseSexpr("(source \"c\" \"int x = 0;\\n\") ; trailing"));
  EXPECT_EQ(e.children[2].atom, "int x = 0;\n");
}

TEST(Sexpr, ToStringRoundTrips) {
  const char* text = "(hide \"_REAL_malloc\" (merge (restrict \"^_malloc$\" /bin/ls.o)))";
  ASSERT_OK_AND_ASSIGN(Sexpr e, ParseSexpr(text));
  ASSERT_OK_AND_ASSIGN(Sexpr again, ParseSexpr(e.ToString()));
  EXPECT_EQ(e.ToString(), again.ToString());
}

TEST(Sexpr, Errors) {
  EXPECT_FALSE(ParseSexpr("(unterminated").ok());
  EXPECT_FALSE(ParseSexpr(")").ok());
  EXPECT_FALSE(ParseSexpr("(a) trailing").ok());
  EXPECT_FALSE(ParseSexpr("\"unterminated string").ok());
  EXPECT_FALSE(ParseSexpr("").ok());
}

TEST(Sexpr, ParseSequence) {
  ASSERT_OK_AND_ASSIGN(auto exprs, ParseSexprs("(a) (b c)\n(d)"));
  EXPECT_EQ(exprs.size(), 3u);
}

// ---- Namespace ------------------------------------------------------------------

TEST(Namespace, DefineAndLookup) {
  OmosNamespace ns;
  ASSERT_OK(ns.DefineMeta("/bin/prog", "(merge /obj/a.o)"));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const NamespaceEntry> entry, ns.Lookup("/bin/prog"));
  EXPECT_EQ(entry->kind, EntryKind::kMeta);
  EXPECT_FALSE(ns.Lookup("/bin/other").ok());
  EXPECT_TRUE(ns.Exists("bin/prog"));  // normalization
}

TEST(Namespace, LibraryRecordsParsed) {
  OmosNamespace ns;
  ASSERT_OK(ns.DefineMeta("/lib/libc", R"(
(constraint-list "T" 0x100000 "D" 0x40200000)
(default-specialization "lib-constrained")
(merge /libc/gen /libc/stdio)
)"));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const NamespaceEntry> entry, ns.Lookup("/lib/libc"));
  EXPECT_EQ(entry->kind, EntryKind::kLibrary);  // records imply library
  EXPECT_EQ(entry->hints.text_base, 0x100000u);
  EXPECT_EQ(entry->hints.data_base, 0x40200000u);
  EXPECT_EQ(entry->default_spec, "lib-constrained");
}

TEST(Namespace, RejectsMultipleConstructions) {
  OmosNamespace ns;
  auto result = ns.DefineMeta("/x", "(merge a) (merge b)");
  ASSERT_FALSE(result.ok());
}

TEST(Namespace, ListChildren) {
  OmosNamespace ns;
  ASSERT_OK(ns.DefineMeta("/bin/ls", "(merge /a)"));
  ASSERT_OK(ns.DefineMeta("/bin/cat", "(merge /a)"));
  ASSERT_OK(ns.DefineMeta("/bin/tools/strip", "(merge /a)"));
  auto names = ns.List("/bin");
  EXPECT_EQ(names, (std::vector<std::string>{"cat", "ls", "tools"}));
}

TEST(Namespace, DedupReadsKeepsOneReadPerEntryAndPerMissingPath) {
  OmosNamespace ns;
  ASSERT_OK(ns.DefineMeta("/bin/a", "(merge /a)"));
  ASSERT_OK(ns.DefineMeta("/bin/b", "(merge /b)"));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const NamespaceEntry> a, ns.Lookup("/bin/a"));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const NamespaceEntry> b, ns.Lookup("/bin/b"));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const NamespaceEntry> a_again, ns.Lookup("/bin/a"));
  std::vector<OmosNamespace::Read> reads = {
      {"/bin/a", a->version},       {"/bin/b", b->version}, {"/gone", nullptr},
      {"/bin/a", a_again->version}, {"/gone", nullptr},     {"/other", nullptr},
      {"/bin/b", b->version},
  };
  ReadSet set(reads);
  reads = set.own();
  EXPECT_EQ(reads, (std::vector<OmosNamespace::Read>{{"/bin/a", a->version},
                                                     {"/bin/b", b->version},
                                                     {"/gone", nullptr},
                                                     {"/other", nullptr}}));

  // A failed lookup stays recorded, and a read set holding one is never
  // current, even while every entry it found still is.
  EXPECT_FALSE(ns.AllCurrent(set));
  std::erase_if(reads, [](const OmosNamespace::Read& read) { return read.version == nullptr; });
  EXPECT_TRUE(ns.AllCurrent(ReadSet(reads)));
  ASSERT_OK(ns.DefineMeta("/bin/b", "(merge /c)"));
  EXPECT_FALSE(ns.AllCurrent(ReadSet(reads)));
}

TEST(Namespace, LibraryInterfacePassesOnlyToTheSameKindAndDefaultSpec) {
  OmosNamespace ns;
  auto interface_read = [&](std::string_view path) -> OmosNamespace::Read {
    auto entry = ns.Lookup(path);
    return {std::string(path), entry.ok() ? (*entry)->interface : nullptr};
  };
  auto entry_read = [&](std::string_view path) -> OmosNamespace::Read {
    auto entry = ns.Lookup(path);
    return {std::string(path), entry.ok() ? (*entry)->version : nullptr};
  };
  ASSERT_OK(ns.DefineMeta("/bin/m", "(merge /obj/a.o)"));
  EXPECT_EQ(interface_read("/bin/m").version, nullptr);  // only a library has one
  ASSERT_OK(ns.DefineMeta("/lib/c", "(constraint-list \"T\" 0x2000000)\n(merge /obj/c.o)"));
  OmosNamespace::Read mention = interface_read("/lib/c");
  ASSERT_NE(mention.version, nullptr);

  // A base move and a new body keep the interface; the entry is new.
  OmosNamespace::Read before_move = entry_read("/lib/c");
  ASSERT_OK(ns.DefineMeta("/lib/c", "(constraint-list \"T\" 0x2100000)\n(merge /obj/d.o)"));
  EXPECT_FALSE(ns.AllCurrent(ReadSet({before_move})));
  EXPECT_TRUE(ns.AllCurrent(ReadSet({mention})));
  EXPECT_EQ(interface_read("/lib/c"), mention);
  // So does a recorded routine order.
  ASSERT_OK(ns.SetRoutineOrder("/lib/c", {"hot"}));
  EXPECT_TRUE(ns.AllCurrent(ReadSet({mention})));

  // A new default specialization supersedes it, and the next one is new.
  ASSERT_OK(ns.DefineMeta("/lib/c", "(constraint-list \"T\" 0x2100000)\n"
                                    "(default-specialization \"lib-dynamic\")\n(merge /obj/d.o)"));
  EXPECT_FALSE(ns.AllCurrent(ReadSet({mention})));
  OmosNamespace::Read dynamic = interface_read("/lib/c");
  EXPECT_TRUE(ns.AllCurrent(ReadSet({dynamic})));

  // So does a kind switch, to a meta-object or a fragment.
  ASSERT_OK(ns.DefineMeta("/lib/c", "(merge /obj/d.o)", EntryKind::kMeta));
  EXPECT_FALSE(ns.AllCurrent(ReadSet({dynamic})));
  EXPECT_EQ(interface_read("/lib/c").version, nullptr);
  ASSERT_OK(ns.DefineMeta("/lib/f", "(constraint-list \"T\" 0x2000000)\n(merge /obj/c.o)"));
  OmosNamespace::Read fragment_next = interface_read("/lib/f");
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(".text\nf: ret\n", "f.o"));
  ASSERT_OK(ns.AddFragment("/lib/f", std::move(object)));
  EXPECT_FALSE(ns.AllCurrent(ReadSet({fragment_next})));
}

// ---- Constraint solver -----------------------------------------------------------

TEST(Constraints, FirstFitWithoutHints) {
  ConstraintSolver solver;
  ASSERT_OK_AND_ASSIGN(PlacementRef a, solver.Place("a", 0x5000, 0x1000));
  ASSERT_OK_AND_ASSIGN(PlacementRef b, solver.Place("b", 0x5000, 0x1000));
  EXPECT_NE(a->text_base(), b->text_base());
  EXPECT_GE(b->text_base(), a->text_base() + 0x5000);
}

TEST(Constraints, ReusePlacementForSameObject) {
  ConstraintSolver solver;
  Counter* reuses = MetricsRegistry::Global().GetCounter("solver.reuses");
  ASSERT_OK_AND_ASSIGN(PlacementRef first, solver.Place("libc", 0x10000, 0x2000));
  uint64_t before = reuses->value();
  ASSERT_OK_AND_ASSIGN(PlacementRef second, solver.Place("libc", 0x10000, 0x2000));
  EXPECT_EQ(reuses->value(), before + 1);
  EXPECT_EQ(second, first);  // the live lease itself
}

TEST(Constraints, GrowingObjectGetsNewPlacement) {
  ConstraintSolver solver;
  ASSERT_OK_AND_ASSIGN(PlacementRef small, solver.Place("lib", 0x1000, 0x1000));
  ASSERT_OK_AND_ASSIGN(PlacementRef big, solver.Place("lib", 0x100000, 0x1000));
  EXPECT_NE(big, small);
  // The outgrown lease keeps its range while it is held.
  EXPECT_NE(big->text_base(), small->text_base());
  EXPECT_EQ(solver.placed_count(), 2u);
}

TEST(Constraints, HintHonouredWhenFree) {
  ConstraintSolver solver;
  PlacementHints hints;
  hints.text_base = 0x02000000;
  ASSERT_OK_AND_ASSIGN(PlacementRef p, solver.Place("lib", 0x1000, 0x1000, hints));
  EXPECT_EQ(p->text_base(), 0x02000000u);
  EXPECT_TRUE(solver.conflicts().empty());
}

TEST(Constraints, ConflictSpillsAndRecords) {
  ConstraintSolver solver;
  PlacementHints hints;
  hints.text_base = 0x02000000;
  ASSERT_OK_AND_ASSIGN(PlacementRef first, solver.Place("first", 0x4000, 0x1000, hints));
  bool conflicted = false;
  ASSERT_OK_AND_ASSIGN(PlacementRef second,
                       solver.Place("second", 0x4000, 0x1000, hints, &conflicted));
  EXPECT_TRUE(conflicted);
  EXPECT_NE(second->text_base(), 0x02000000u);
  std::vector<ConflictRecord> conflicts = solver.conflicts();
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0].object, "second");
  EXPECT_EQ(conflicts[0].holder, "first");
}

TEST(Constraints, ReleaseFreesRange) {
  ConstraintSolver solver;
  PlacementHints hints;
  hints.text_base = 0x02000000;
  {
    ASSERT_OK_AND_ASSIGN(PlacementRef a, solver.Place("a", 0x1000, 0x1000, hints));
  }  // the last reference drops: the range is free
  EXPECT_EQ(solver.placed_count(), 0u);
  EXPECT_EQ(solver.Find("a"), nullptr);
  ASSERT_OK_AND_ASSIGN(PlacementRef b, solver.Place("b", 0x1000, 0x1000, hints));
  EXPECT_EQ(b->text_base(), 0x02000000u);
}

TEST(Constraints, ExhaustionReported) {
  SolverArenas arenas;
  arenas.text_lo = 0x100000;
  arenas.text_hi = 0x103000;  // room for 3 pages only
  ConstraintSolver solver(arenas);
  ASSERT_OK_AND_ASSIGN(PlacementRef a, solver.Place("a", 0x2000, 0x1000));
  auto result = solver.Place("b", 0x2000, 0x1000);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kConstraintConflict);
}

TEST(Constraints, ExhaustionRecoversAfterRelease) {
  SolverArenas arenas;
  arenas.text_lo = 0x100000;
  arenas.text_hi = 0x103000;
  ConstraintSolver solver(arenas);
  ASSERT_OK_AND_ASSIGN(PlacementRef a, solver.Place("a", 0x2000, 0x1000));
  ASSERT_FALSE(solver.Place("b", 0x2000, 0x1000).ok());
  a.reset();
  // The failed attempt left no partial reservation behind: the freed arena
  // accepts the same request, at the same first-fit base "a" vacated.
  ASSERT_OK_AND_ASSIGN(PlacementRef b, solver.Place("b", 0x2000, 0x1000));
  EXPECT_EQ(b->text_base(), 0x100000u);
  EXPECT_EQ(solver.placed_count(), 1u);
}

TEST(Constraints, FreshPlacementsAreFoundWhereTheyLanded) {
  ConstraintSolver solver;
  ASSERT_OK_AND_ASSIGN(PlacementRef a, solver.Place("a", 0x1000, 0x1000));
  ASSERT_OK_AND_ASSIGN(PlacementRef b, solver.Place("b", 0x1000, 0x1000));
  EXPECT_EQ(solver.Find("a"), a);
  EXPECT_EQ(solver.Find("b"), b);
  EXPECT_EQ(solver.Find("missing"), nullptr);
}

TEST(Constraints, RegrowRefitsAndCountsAMove) {
  ConstraintSolver solver;
  Counter* moves = MetricsRegistry::Global().GetCounter("solver.moves");
  ASSERT_OK_AND_ASSIGN(PlacementRef small, solver.Place("lib", 0x1000, 0x1000));
  uint64_t before = moves->value();
  ASSERT_OK_AND_ASSIGN(PlacementRef big, solver.Place("lib", 0x40000, 0x1000));
  EXPECT_EQ(moves->value(), before + 1);
  EXPECT_NE(big, small);
  EXPECT_EQ(solver.Find("lib"), big);
}

TEST(Constraints, SettleRefusesARetiredPlacement) {
  // The publish step: an image whose own placement or a dep's was retired
  // (an invalidation or a move since it was placed) must not publish.
  ConstraintSolver solver;
  ASSERT_OK_AND_ASSIGN(PlacementRef lib, solver.Place("lib", 0x1000, 0x1000));
  ASSERT_OK_AND_ASSIGN(PlacementRef client, solver.Place("client", 0x1000, 0x1000));
  const PlacementLease* deps[] = {lib.get(), nullptr};
  EXPECT_TRUE(solver.Settle(client.get(), deps));
  solver.Retire("lib");
  EXPECT_FALSE(solver.Settle(client.get(), deps));
  EXPECT_FALSE(solver.Settle(lib.get(), {}));
  ASSERT_OK_AND_ASSIGN(PlacementRef rebuilt, solver.Place("lib", 0x1000, 0x1000));
  EXPECT_NE(rebuilt, lib);  // placed afresh, clear of the retired range
  EXPECT_NE(rebuilt->text_base(), lib->text_base());
  deps[0] = rebuilt.get();
  EXPECT_TRUE(solver.Settle(client.get(), deps));
}

TEST(Constraints, AdoptedPlacementIsPinnedUntilSettled) {
  ConstraintSolver solver;
  PlacementRecord record{"lib", Placement{0x02000000, 0x50000000}, 0x1000, 0x1000};
  ASSERT_OK(solver.CheckAdoption({record}, {}));
  solver.AdoptPlacements({record});
  // Nothing but the solver holds it, and the first placement takes it over.
  ASSERT_OK_AND_ASSIGN(PlacementRef lease, solver.Place("lib", 0x1000, 0x1000));
  EXPECT_EQ(lease->text_base(), 0x02000000u);
  EXPECT_EQ(lease->data_base(), 0x50000000u);
  lease.reset();
  EXPECT_EQ(solver.placed_count(), 1u);  // still pinned: no image published
  ASSERT_OK_AND_ASSIGN(lease, solver.Place("lib", 0x1000, 0x1000));
  EXPECT_TRUE(solver.Settle(lease.get(), {}));
  lease.reset();
  EXPECT_EQ(solver.placed_count(), 0u);
  // A row clashing with another object's current placement is refused.
  ASSERT_OK_AND_ASSIGN(PlacementRef other, solver.Place("other", 0x1000, 0x1000));
  PlacementRecord clash{"lib", Placement{other->text_base(), 0x50000000}, 0x1000, 0x1000};
  auto refused = solver.CheckAdoption({clash}, {});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code(), ErrorCode::kConstraintConflict);
  EXPECT_OK(solver.CheckAdoption({clash}, {"other"}));  // unless it is being retired
}

TEST(Constraints, OptimizePlacementsDeterministicAcrossInsertionOrders) {
  // Two solvers see the same objects in different arrival orders (so their
  // initial first-fit layouts differ), then both run the administrative
  // re-pack. The result must depend only on the object set, never on
  // history: name-ordered first-fit from the arena base.
  ConstraintSolver forward;
  ConstraintSolver reverse;
  const std::vector<std::pair<std::string, uint32_t>> objects = {
      {"alpha", 0x3000}, {"beta", 0x1000}, {"gamma", 0x7000}, {"delta", 0x2000}};
  std::vector<PlacementRef> held[2];
  for (const auto& [name, size] : objects) {
    ASSERT_OK_AND_ASSIGN(PlacementRef lease, forward.Place(name, size, 0x1000));
    held[0].push_back(lease);
  }
  for (auto it = objects.rbegin(); it != objects.rend(); ++it) {
    ASSERT_OK_AND_ASSIGN(PlacementRef lease, reverse.Place(it->first, it->second, 0x1000));
    held[1].push_back(lease);
  }
  ConstraintSolver* solvers[2] = {&forward, &reverse};
  for (int i = 0; i < 2; ++i) {
    std::vector<PlacementRecord> moves = solvers[i]->OptimizePlacements();
    // The moved objects' old images go, and their new homes are adopted.
    std::erase_if(held[i], [&](const PlacementRef& lease) {
      return solvers[i]->Find(lease->object()) != lease;
    });
    solvers[i]->AdoptPlacements(moves);
  }
  std::vector<PlacementRecord> a = forward.ExportPlacements();
  std::vector<PlacementRecord> b = reverse.ExportPlacements();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].object, b[i].object);
    EXPECT_EQ(a[i].placement.text_base, b[i].placement.text_base) << a[i].object;
    EXPECT_EQ(a[i].placement.data_base, b[i].placement.data_base) << a[i].object;
  }
  // Running the pass again on an already-packed layout moves nothing.
  EXPECT_TRUE(forward.OptimizePlacements().empty());
}

TEST(Constraints, ConflictRecordsUnderHintCollisionSweep) {
  // Seeded sweep: every client hints the same text base. The first wins;
  // each later one spills and must record exactly what it wanted, what it
  // got, and who holds the contested range.
  ConstraintSolver solver;
  PlacementHints hints;
  hints.text_base = 0x02000000;
  constexpr int kClients = 8;
  std::vector<PlacementRef> placed;
  for (int i = 0; i < kClients; ++i) {
    ASSERT_OK_AND_ASSIGN(PlacementRef p, solver.Place(StrCat("obj", i), 0x2000, 0x1000, hints));
    placed.push_back(p);
  }
  EXPECT_EQ(placed[0]->text_base(), 0x02000000u);
  std::vector<ConflictRecord> conflicts = solver.conflicts();
  ASSERT_EQ(conflicts.size(), static_cast<size_t>(kClients - 1));
  for (int i = 1; i < kClients; ++i) {
    const ConflictRecord& record = conflicts[static_cast<size_t>(i - 1)];
    EXPECT_EQ(record.object, StrCat("obj", i));
    EXPECT_EQ(record.wanted, 0x02000000u);
    EXPECT_EQ(record.got, placed[static_cast<size_t>(i)]->text_base());
    EXPECT_EQ(record.holder, "obj0");
    EXPECT_NE(record.got, record.wanted);
  }
  // Spills are first-fit from the arena base, so they ascend and never
  // collide with each other.
  for (int i = 2; i < kClients; ++i) {
    EXPECT_GT(placed[static_cast<size_t>(i)]->text_base(),
              placed[static_cast<size_t>(i - 1)]->text_base());
  }
}

TEST(Constraints, SolveNamespaceMovesSpilledObjectToWantedBase) {
  ConstraintSolver solver;
  PlacementHints hints;
  hints.text_base = 0x02000000;
  ASSERT_OK_AND_ASSIGN(PlacementRef holder, solver.Place("holder", 0x4000, 0x1000, hints));
  ASSERT_OK_AND_ASSIGN(PlacementRef spilled, solver.Place("tenant", 0x4000, 0x1000, hints));
  ASSERT_EQ(solver.conflicts().size(), 1u);
  holder.reset();
  std::vector<PlacementRecord> moved = solver.SolveNamespace();
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0].object, "tenant");
  EXPECT_EQ(moved[0].placement.text_base, 0x02000000u);
  EXPECT_TRUE(solver.conflicts().empty());
  // The move retires the tenant; once its old image is gone, the new home
  // is adopted and its next placement lands there, with no new conflict.
  EXPECT_EQ(solver.Find("tenant"), nullptr);
  uint32_t spilled_base = spilled->text_base();
  spilled.reset();
  solver.AdoptPlacements(moved);
  ASSERT_OK_AND_ASSIGN(PlacementRef home, solver.Place("tenant", 0x4000, 0x1000));
  EXPECT_EQ(home->text_base(), 0x02000000u);
  EXPECT_NE(home->text_base(), spilled_base);
  EXPECT_TRUE(solver.conflicts().empty());
}

TEST(Constraints, SolveNamespaceRefitsALostDataHint) {
  // Holder and tenant want the same data base; the tenant spills in the data
  // arena only. Once the holder is gone the pass moves the tenant's data to
  // the wanted base and leaves its text where it is.
  ConstraintSolver solver;
  PlacementHints hints;
  hints.data_base = 0x50000000;
  ASSERT_OK_AND_ASSIGN(PlacementRef holder, solver.Place("holder", 0x1000, 0x1000, hints));
  ASSERT_OK_AND_ASSIGN(PlacementRef tenant, solver.Place("tenant", 0x1000, 0x1000, hints));
  EXPECT_EQ(holder->data_base(), 0x50000000u);
  std::vector<ConflictRecord> conflicts = solver.conflicts();
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_TRUE(conflicts[0].data);
  EXPECT_EQ(conflicts[0].got, tenant->data_base());
  holder.reset();
  std::vector<PlacementRecord> moved = solver.SolveNamespace();
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0].object, "tenant");
  EXPECT_EQ(moved[0].placement.text_base, tenant->text_base());
  EXPECT_EQ(moved[0].placement.data_base, 0x50000000u);
  EXPECT_TRUE(solver.conflicts().empty());
  tenant.reset();
  solver.AdoptPlacements(moved);
  ASSERT_OK_AND_ASSIGN(PlacementRef home, solver.Place("tenant", 0x1000, 0x1000));
  EXPECT_EQ(home->data_base(), 0x50000000u);
  EXPECT_TRUE(solver.conflicts().empty());
}

TEST(Constraints, SolveNamespaceKeepsTextAndDataConflictsApart) {
  // The tenant lost both hints. The pass moves both in one record; while
  // the data range stays held, the text still moves and the data conflict
  // is kept for the next pass.
  ConstraintSolver solver;
  PlacementHints hints;
  hints.text_base = 0x02000000;
  hints.data_base = 0x50000000;
  PlacementHints text_only;
  text_only.text_base = 0x02000000;
  PlacementHints data_only;
  data_only.data_base = 0x50000000;
  ASSERT_OK_AND_ASSIGN(PlacementRef text_holder, solver.Place("text_holder", 0x1000, 0x1000,
                                                              text_only));
  ASSERT_OK_AND_ASSIGN(PlacementRef data_holder, solver.Place("data_holder", 0x1000, 0x1000,
                                                              data_only));
  ASSERT_OK_AND_ASSIGN(PlacementRef tenant, solver.Place("tenant", 0x1000, 0x1000, hints));
  ASSERT_EQ(solver.conflicts().size(), 2u);
  text_holder.reset();
  std::vector<PlacementRecord> moved = solver.SolveNamespace();
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0].placement.text_base, 0x02000000u);
  EXPECT_EQ(moved[0].placement.data_base, tenant->data_base());
  std::vector<ConflictRecord> conflicts = solver.conflicts();
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_TRUE(conflicts[0].data);
  EXPECT_EQ(conflicts[0].holder, "data_holder");

  // Both lost at once, both freed: one record moves both.
  ConstraintSolver both;
  ASSERT_OK_AND_ASSIGN(PlacementRef holder, both.Place("holder", 0x1000, 0x1000, hints));
  ASSERT_OK_AND_ASSIGN(PlacementRef spilled, both.Place("tenant", 0x1000, 0x1000, hints));
  ASSERT_EQ(both.conflicts().size(), 2u);
  holder.reset();
  moved = both.SolveNamespace();
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0].placement.text_base, 0x02000000u);
  EXPECT_EQ(moved[0].placement.data_base, 0x50000000u);
  EXPECT_TRUE(both.conflicts().empty());
}

TEST(Constraints, SolveNamespaceIsNoopWithoutConflicts) {
  ConstraintSolver solver;
  ASSERT_OK_AND_ASSIGN(PlacementRef a, solver.Place("a", 0x1000, 0x1000));
  EXPECT_TRUE(solver.SolveNamespace().empty());
}

TEST(Constraints, SolveNamespaceRespillKeepsConflictForNextPass) {
  ConstraintSolver solver;
  PlacementHints hints;
  hints.text_base = 0x02000000;
  ASSERT_OK_AND_ASSIGN(PlacementRef holder, solver.Place("holder", 0x4000, 0x1000, hints));
  ASSERT_OK_AND_ASSIGN(PlacementRef spilled, solver.Place("tenant", 0x4000, 0x1000, hints));
  // Holder still owns the wanted range: the pass leaves the tenant where it
  // was, keeps the conflict, and moves nothing.
  EXPECT_TRUE(solver.SolveNamespace().empty());
  EXPECT_EQ(solver.Find("tenant"), spilled);
  std::vector<ConflictRecord> conflicts = solver.conflicts();
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0].object, "tenant");
  EXPECT_EQ(conflicts[0].holder, "holder");
}

TEST(Constraints, SolveNamespaceKeepsOneConflictPerObject) {
  // Each rebuild of a tenant whose hint stays held logs a conflict; a pass
  // that cannot move it keeps one, the latest, so the log does not grow
  // with rebuilds. A released object's conflicts go.
  ConstraintSolver solver;
  PlacementHints hints;
  hints.text_base = 0x02000000;
  ASSERT_OK_AND_ASSIGN(PlacementRef holder, solver.Place("holder", 0x4000, 0x1000, hints));
  PlacementRef tenant;
  for (int i = 0; i < 5; ++i) {
    solver.Retire("tenant");  // a redefinition: the next build places afresh
    ASSERT_OK_AND_ASSIGN(tenant, solver.Place("tenant", 0x4000, 0x1000, hints));
  }
  {
    ASSERT_OK_AND_ASSIGN(PlacementRef gone, solver.Place("gone", 0x4000, 0x1000, hints));
  }
  ASSERT_EQ(solver.conflicts().size(), 6u);
  EXPECT_TRUE(solver.SolveNamespace().empty());
  std::vector<ConflictRecord> conflicts = solver.conflicts();
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0].object, "tenant");
  EXPECT_EQ(conflicts[0].got, tenant->text_base());
}

// ---- Image cache -----------------------------------------------------------------

CachedImage MakeImage(uint32_t bytes) {
  CachedImage image;
  image.image.text.resize(bytes);
  return image;
}

TEST(Cache, HitMissCounting) {
  ImageCache cache;
  EXPECT_EQ(cache.Get("a"), nullptr);
  cache.Put("a", MakeImage(100));
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, PointerStableAcrossOtherInsertions) {
  ImageCache cache;
  ImageRef a = cache.Put("a", MakeImage(10));
  for (int i = 0; i < 100; ++i) {
    cache.Put(StrCat("x", i), MakeImage(10));
  }
  EXPECT_EQ(cache.Get("a"), a);
}

TEST(Cache, LruEvictionByBytes) {
  ImageCache cache(1000);
  cache.Put("a", MakeImage(400));
  cache.Put("b", MakeImage(400));
  EXPECT_NE(cache.Get("a"), nullptr);  // touch a; b becomes LRU
  cache.Put("c", MakeImage(400));      // exceeds budget -> evict b
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_FALSE(cache.Contains("b"));
  EXPECT_TRUE(cache.Contains("c"));
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(Cache, ReplaceUpdatesBytes) {
  ImageCache cache;
  cache.Put("a", MakeImage(100));
  cache.Put("a", MakeImage(300));
  EXPECT_EQ(cache.stats().bytes_cached, 300u);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(Cache, FullVerifyOncePerLifetimeThenAmortized) {
  ImageCache cache;
  cache.Put("a", MakeImage(64 << 10));  // 16 pages
  for (int i = 0; i < 10; ++i) {
    EXPECT_NE(cache.Get("a"), nullptr);
  }
  // Exactly one full walk (first Get after Put); later warm hits probe a
  // constant number of pages each.
  EXPECT_EQ(cache.stats().full_verifies, 1u);
  EXPECT_EQ(cache.stats().pages_verified, 16u + 9u * 2u);
}

TEST(Cache, AmortizedProbesCatchResidentCorruption) {
  ImageCache cache;
  ImageRef entry = cache.Put("a", MakeImage(16 << 10));  // 4 pages
  EXPECT_NE(cache.Get("a"), nullptr);  // full verify, marks entry warm
  // Corrupt a byte behind the cache's back. Round-robin probes must catch it
  // within ceil(pages / probes-per-get) further Gets.
  const_cast<CachedImage&>(*entry).image.text[9000] ^= 0x40;
  bool caught = false;
  for (int i = 0; i < 4 && !caught; ++i) {
    caught = cache.Get("a") == nullptr;
  }
  EXPECT_TRUE(caught);
  EXPECT_EQ(cache.stats().corruption_rebuilds, 1u);
  EXPECT_FALSE(cache.Contains("a"));
}

TEST(Cache, LayoutCorruptionCaughtOnNextGet) {
  ImageCache cache;
  ImageRef entry = cache.Put("a", MakeImage(16 << 10));
  EXPECT_NE(cache.Get("a"), nullptr);
  // Layout metadata is O(1)-sized, so every probe covers it: detection on
  // the very next Get, not after a round-robin cycle.
  const_cast<CachedImage&>(*entry).image.entry ^= 0x1000;
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.stats().corruption_rebuilds, 1u);
}

TEST(Cache, ArmedBitrotCaughtOnSameGet) {
  // While a bit-rot plan is armed, every Get pays a full verify, so the
  // corruption a trip injects is detected by the very Get that tripped it —
  // even on an already-warm entry.
  ImageCache cache;
  cache.Put("a", MakeImage(64 << 10));
  for (int i = 0; i < 5; ++i) {
    EXPECT_NE(cache.Get("a"), nullptr);  // warm it well past the full verify
  }
  ScopedFaultPlan plan(FaultPlan().Arm("cache.bitrot", FaultSpec::Nth(1)));
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.stats().corruption_rebuilds, 1u);
}

// ---- Cache keys ---------------------------------------------------------------------

TEST(CacheKey, MakeAndSplitRoundTrip) {
  std::string key = MakeCacheKey("/lib/libc", "spec=lib-dynamic-impl");
  EXPECT_EQ(key, "/lib/libc\xc2\xa7spec=lib-dynamic-impl");
  std::string_view path;
  std::string_view spec;
  ASSERT_TRUE(SplitCacheKey(key, &path, &spec));
  EXPECT_EQ(path, "/lib/libc");
  EXPECT_EQ(spec, "spec=lib-dynamic-impl");
}

TEST(CacheKey, SplitAllowsEmptySpec) {
  std::string_view path;
  std::string_view spec;
  std::string key = MakeCacheKey("/bin/ls", "");
  ASSERT_TRUE(SplitCacheKey(key, &path, &spec));
  EXPECT_EQ(path, "/bin/ls");
  EXPECT_EQ(spec, "");
}

TEST(CacheKey, SplitRejectsPlainString) {
  std::string_view path = "unchanged";
  std::string_view spec = "unchanged";
  EXPECT_FALSE(SplitCacheKey("/bin/ls", &path, &spec));
  EXPECT_EQ(path, "unchanged");
  EXPECT_EQ(spec, "unchanged");
}

TEST(CacheKey, SplitWithNullOutputs) {
  std::string key = MakeCacheKey("/bin/ls", "x");
  std::string_view path;
  ASSERT_TRUE(SplitCacheKey(key, &path, nullptr));
  EXPECT_EQ(path, "/bin/ls");
  EXPECT_TRUE(SplitCacheKey(key, nullptr, nullptr));
}

// ---- Specialization keys -----------------------------------------------------------

TEST(Specialization, KeyStringRoundTrip) {
  Specialization spec;
  spec.name = "lib-constrained";
  spec.hints.text_base = 0x1000000;
  spec.hints.data_base = 0x40200000;
  ASSERT_OK_AND_ASSIGN(Specialization parsed, Specialization::FromKeyString(spec.ToKeyString()));
  EXPECT_EQ(parsed.name, spec.name);
  EXPECT_EQ(parsed.hints.text_base, spec.hints.text_base);
  EXPECT_EQ(parsed.hints.data_base, spec.hints.data_base);
}

TEST(Specialization, EmptyIsDefault) {
  ASSERT_OK_AND_ASSIGN(Specialization parsed, Specialization::FromKeyString(""));
  EXPECT_TRUE(parsed.name.empty());
  EXPECT_FALSE(parsed.hints.text_base.has_value());
}

TEST(Specialization, BasesParseInHexOctalAndDecimal) {
  ASSERT_OK_AND_ASSIGN(Specialization parsed,
                       Specialization::FromKeyString("lib;T=0xFFFFFFFF;D=4096"));
  EXPECT_EQ(parsed.hints.text_base, 0xFFFFFFFFu);
  EXPECT_EQ(parsed.hints.data_base, 4096u);
  ASSERT_OK_AND_ASSIGN(parsed, Specialization::FromKeyString("lib;T=010;D=0"));
  EXPECT_EQ(parsed.hints.text_base, 8u);
  EXPECT_EQ(parsed.hints.data_base, 0u);
}

TEST(Specialization, MalformedOrOverWideBaseIsInvalidArgument) {
  for (const char* text : {"x;T=zz", "x;D=", "x;T=0x", "x;T=12abc", "x;D=-1", "x;T= 1",
                           "x;T=0x100000000", "x;D=4294967296", "x;T=09"}) {
    Result<Specialization> parsed = Specialization::FromKeyString(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.error().code(), ErrorCode::kInvalidArgument) << text;
  }
}

// ---- Blueprint evaluator -------------------------------------------------------

// One writer republishes /obj/v.o while three threads evaluate /bin/m, a
// meta-object over it (and 64 fillers, to widen each evaluation), through
// the evaluator's memo on a bare namespace. The writer drops stale memos
// after each publish, as every namespace writer does. Every value must be a
// version current at some point of its evaluation. After the join, with no
// further drop, every superseded entry must be freed: an evaluation that
// read a superseded entry and finished after the last drop was refused at
// insert.
TEST(EvaluatorTest, MemoNeverOutlivesARacingRedefinition) {
  constexpr int kVersions = 200;
  constexpr int kFillers = 64;
  OmosNamespace name_space;
  BlueprintEvaluator evaluator(name_space);
  std::vector<ObjectFile> objects;
  for (int version = 0; version <= kVersions; ++version) {
    ASSERT_OK_AND_ASSIGN(
        ObjectFile object,
        Assemble(StrCat(".text\n.global answer\nanswer:\n  movi r0, ", version, "\n  ret\n"),
                 StrCat("v", version)));
    objects.push_back(std::move(object));
  }
  std::string meta = "(merge /obj/v.o";
  for (int i = 0; i < kFillers; ++i) {
    ASSERT_OK_AND_ASSIGN(ObjectFile filler,
                         Assemble(StrCat(".text\n.global f", i, "\nf", i, ":\n  ret\n"), "f"));
    ASSERT_OK(name_space.AddFragment(StrCat("/obj/f", i, ".o"), std::move(filler)));
    meta += StrCat(" /obj/f", i, ".o");
  }
  ASSERT_OK(name_space.AddFragment("/obj/v.o", objects[0]));
  ASSERT_OK(name_space.DefineMeta("/bin/m", meta + ")"));
  std::vector<std::weak_ptr<const NamespaceEntry>> entries(kVersions + 1);
  entries[0] = *name_space.Lookup("/obj/v.o");

  std::atomic<int> publishing{0};  // the version being published
  std::atomic<int> published{0};   // the newest version fully published
  std::atomic<bool> done{false};
  std::atomic<int> evaluations{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!done.load()) {
        int oldest = published.load();
        BuildTracker tracker;
        auto evaluated = evaluator.EvalPath("/bin/m", tracker);
        int newest = publishing.load();
        ++evaluations;
        if (!evaluated.ok() || !evaluated->value.module.has_value()) {
          ++wrong;
          continue;
        }
        int version = std::stoi(evaluated->value.module->fragments()[0]->name().substr(1));
        if (version < oldest || version > newest) {
          ++wrong;
        }
      }
    });
  }
  while (evaluations.load() == 0) {
    std::this_thread::yield();  // the readers are under way
  }
  for (int version = 1; version <= kVersions; ++version) {
    publishing.store(version);
    EXPECT_OK(name_space.AddFragment("/obj/v.o", objects[version]));
    evaluator.DropStaleMemos();
    entries[version] = *name_space.Lookup("/obj/v.o");
    published.store(version);
  }
  done.store(true);
  for (std::thread& reader : readers) {
    reader.join();
  }
  EXPECT_GT(evaluations.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
  for (int version = 0; version < kVersions; ++version) {
    EXPECT_TRUE(entries[version].expired()) << "version " << version << " is still pinned";
  }
}

}  // namespace
}  // namespace omos
