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
      {"/bin/a", a},      {"/bin/b", b},       {"/gone", nullptr}, {"/bin/a", a_again},
      {"/gone", nullptr}, {"/other", nullptr}, {"/bin/b", b},
  };
  ReadSet set(reads);
  reads = set.own();
  EXPECT_EQ(reads, (std::vector<OmosNamespace::Read>{
                       {"/bin/a", a}, {"/bin/b", b}, {"/gone", nullptr}, {"/other", nullptr}}));

  // A failed lookup stays recorded, and a read set holding one is never
  // current, even while every entry it found still is.
  EXPECT_FALSE(ns.AllCurrent(set));
  std::erase_if(reads, [](const OmosNamespace::Read& read) { return read.second == nullptr; });
  EXPECT_TRUE(ns.AllCurrent(ReadSet(reads)));
  ASSERT_OK(ns.DefineMeta("/bin/b", "(merge /c)"));
  EXPECT_FALSE(ns.AllCurrent(ReadSet(reads)));
}

// ---- Constraint solver -----------------------------------------------------------

TEST(Constraints, FirstFitWithoutHints) {
  ConstraintSolver solver;
  ASSERT_OK_AND_ASSIGN(Placement a, solver.Place("a", 0x5000, 0x1000));
  ASSERT_OK_AND_ASSIGN(Placement b, solver.Place("b", 0x5000, 0x1000));
  EXPECT_NE(a.text_base, b.text_base);
  EXPECT_GE(b.text_base, a.text_base + 0x5000);
}

TEST(Constraints, ReusePlacementForSameObject) {
  ConstraintSolver solver;
  ASSERT_OK_AND_ASSIGN(Placement first, solver.Place("libc", 0x10000, 0x2000));
  EXPECT_FALSE(first.reused);
  ASSERT_OK_AND_ASSIGN(Placement second, solver.Place("libc", 0x10000, 0x2000));
  EXPECT_TRUE(second.reused);
  EXPECT_EQ(second.text_base, first.text_base);
}

TEST(Constraints, GrowingObjectGetsNewPlacement) {
  ConstraintSolver solver;
  ASSERT_OK_AND_ASSIGN(Placement small, solver.Place("lib", 0x1000, 0x1000));
  ASSERT_OK_AND_ASSIGN(Placement big, solver.Place("lib", 0x100000, 0x1000));
  EXPECT_FALSE(big.reused);
  (void)small;
}

TEST(Constraints, HintHonouredWhenFree) {
  ConstraintSolver solver;
  PlacementHints hints;
  hints.text_base = 0x02000000;
  ASSERT_OK_AND_ASSIGN(Placement p, solver.Place("lib", 0x1000, 0x1000, hints));
  EXPECT_EQ(p.text_base, 0x02000000u);
  EXPECT_TRUE(solver.conflicts().empty());
}

TEST(Constraints, ConflictSpillsAndRecords) {
  ConstraintSolver solver;
  PlacementHints hints;
  hints.text_base = 0x02000000;
  ASSERT_OK(solver.Place("first", 0x4000, 0x1000, hints));
  ASSERT_OK_AND_ASSIGN(Placement second, solver.Place("second", 0x4000, 0x1000, hints));
  EXPECT_NE(second.text_base, 0x02000000u);
  ASSERT_EQ(solver.conflicts().size(), 1u);
  EXPECT_EQ(solver.conflicts()[0].object, "second");
  EXPECT_EQ(solver.conflicts()[0].holder, "first");
}

TEST(Constraints, ReleaseFreesRange) {
  ConstraintSolver solver;
  PlacementHints hints;
  hints.text_base = 0x02000000;
  ASSERT_OK(solver.Place("a", 0x1000, 0x1000, hints));
  solver.Release("a");
  ASSERT_OK_AND_ASSIGN(Placement b, solver.Place("b", 0x1000, 0x1000, hints));
  EXPECT_EQ(b.text_base, 0x02000000u);
}

TEST(Constraints, ExhaustionReported) {
  SolverArenas arenas;
  arenas.text_lo = 0x100000;
  arenas.text_hi = 0x103000;  // room for 3 pages only
  ConstraintSolver solver(arenas);
  ASSERT_OK(solver.Place("a", 0x2000, 0x1000));
  auto result = solver.Place("b", 0x2000, 0x1000);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kConstraintConflict);
}

TEST(Constraints, ExhaustionRecoversAfterRelease) {
  SolverArenas arenas;
  arenas.text_lo = 0x100000;
  arenas.text_hi = 0x103000;
  ConstraintSolver solver(arenas);
  ASSERT_OK(solver.Place("a", 0x2000, 0x1000));
  ASSERT_FALSE(solver.Place("b", 0x2000, 0x1000).ok());
  solver.Release("a");
  // The failed attempt left no partial reservation behind: the freed arena
  // accepts the same request, at the same first-fit base "a" vacated.
  ASSERT_OK_AND_ASSIGN(Placement b, solver.Place("b", 0x2000, 0x1000));
  EXPECT_EQ(b.text_base, 0x100000u);
  EXPECT_EQ(solver.placed_count(), 1u);
}

TEST(Constraints, FreshPlacementsAreFoundWhereTheyLanded) {
  ConstraintSolver solver;
  ASSERT_OK_AND_ASSIGN(Placement a, solver.Place("a", 0x1000, 0x1000));
  ASSERT_OK_AND_ASSIGN(Placement b, solver.Place("b", 0x1000, 0x1000));
  ASSERT_NE(solver.Find("a"), nullptr);
  EXPECT_EQ(solver.Find("a")->text_base, a.text_base);
  ASSERT_NE(solver.Find("b"), nullptr);
  EXPECT_EQ(solver.Find("b")->text_base, b.text_base);
  EXPECT_EQ(solver.Find("missing"), nullptr);
}

TEST(Constraints, RegrowRefitsAndCountsAMove) {
  ConstraintSolver solver;
  Counter* moves = MetricsRegistry::Global().GetCounter("solver.moves");
  ASSERT_OK(solver.Place("lib", 0x1000, 0x1000));
  uint64_t before = moves->value();
  ASSERT_OK_AND_ASSIGN(Placement big, solver.Place("lib", 0x40000, 0x1000));
  EXPECT_EQ(moves->value(), before + 1);
  EXPECT_FALSE(big.reused);
  ASSERT_NE(solver.Find("lib"), nullptr);
  EXPECT_EQ(solver.Find("lib")->text_base, big.text_base);
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
  for (const auto& [name, size] : objects) {
    ASSERT_OK(forward.Place(name, size, 0x1000));
  }
  for (auto it = objects.rbegin(); it != objects.rend(); ++it) {
    ASSERT_OK(reverse.Place(it->first, it->second, 0x1000));
  }
  (void)forward.OptimizePlacements();
  (void)reverse.OptimizePlacements();
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
  std::vector<Placement> placed;
  for (int i = 0; i < kClients; ++i) {
    ASSERT_OK_AND_ASSIGN(Placement p, solver.Place(StrCat("obj", i), 0x2000, 0x1000, hints));
    placed.push_back(p);
  }
  EXPECT_EQ(placed[0].text_base, 0x02000000u);
  ASSERT_EQ(solver.conflicts().size(), static_cast<size_t>(kClients - 1));
  for (int i = 1; i < kClients; ++i) {
    const ConflictRecord& record = solver.conflicts()[static_cast<size_t>(i - 1)];
    EXPECT_EQ(record.object, StrCat("obj", i));
    EXPECT_EQ(record.wanted, 0x02000000u);
    EXPECT_EQ(record.got, placed[static_cast<size_t>(i)].text_base);
    EXPECT_EQ(record.holder, "obj0");
    EXPECT_NE(record.got, record.wanted);
  }
  // Spills are first-fit from the arena base, so they ascend and never
  // collide with each other.
  for (int i = 2; i < kClients; ++i) {
    EXPECT_GT(placed[static_cast<size_t>(i)].text_base,
              placed[static_cast<size_t>(i - 1)].text_base);
  }
}

TEST(Constraints, SolveNamespaceMovesSpilledObjectToWantedBase) {
  ConstraintSolver solver;
  PlacementHints hints;
  hints.text_base = 0x02000000;
  ASSERT_OK(solver.Place("holder", 0x4000, 0x1000, hints));
  ASSERT_OK_AND_ASSIGN(Placement spilled, solver.Place("tenant", 0x4000, 0x1000, hints));
  ASSERT_EQ(solver.conflicts().size(), 1u);
  solver.Release("holder");
  std::vector<std::string> moved = solver.SolveNamespace();
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0], "tenant");
  const Placement* home = solver.Find("tenant");
  ASSERT_NE(home, nullptr);
  EXPECT_EQ(home->text_base, 0x02000000u);
  EXPECT_NE(home->text_base, spilled.text_base);
  EXPECT_TRUE(solver.conflicts().empty());
}

TEST(Constraints, SolveNamespaceIsNoopWithoutConflicts) {
  ConstraintSolver solver;
  ASSERT_OK(solver.Place("a", 0x1000, 0x1000));
  EXPECT_TRUE(solver.SolveNamespace().empty());
}

TEST(Constraints, SolveNamespaceRespillKeepsConflictForNextPass) {
  ConstraintSolver solver;
  PlacementHints hints;
  hints.text_base = 0x02000000;
  ASSERT_OK(solver.Place("holder", 0x4000, 0x1000, hints));
  ASSERT_OK_AND_ASSIGN(Placement spilled, solver.Place("tenant", 0x4000, 0x1000, hints));
  // Holder still owns the wanted range: the pass re-fits the tenant, which
  // lands back where it was, re-logs the conflict, and moves nothing.
  EXPECT_TRUE(solver.SolveNamespace().empty());
  const Placement* home = solver.Find("tenant");
  ASSERT_NE(home, nullptr);
  EXPECT_EQ(home->text_base, spilled.text_base);
  ASSERT_EQ(solver.conflicts().size(), 1u);
  EXPECT_EQ(solver.conflicts()[0].object, "tenant");
  EXPECT_EQ(solver.conflicts()[0].holder, "holder");
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
