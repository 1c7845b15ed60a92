// Property-style tests: algebraic invariants of the module calculus and
// round-trip laws, swept over generated modules with parameterized shapes.
#include <gtest/gtest.h>

#include "src/linker/link.h"
#include "src/linker/module.h"
#include "src/objfmt/backend.h"
#include "src/support/strings.h"
#include "tests/helpers.h"

namespace omos {
namespace {

// Deterministic pseudo-random generator (no global entropy in tests).
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed * 2862933555777941757ULL + 3037000493ULL) {}
  uint32_t Next(uint32_t bound) {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<uint32_t>((state_ >> 33) % bound);
  }

 private:
  uint64_t state_;
};

// Build a module of `fragments` fragments, each defining a couple of
// symbols and referencing a couple of others (possibly cross-fragment).
Module GenerateModule(uint32_t seed, int fragments, int syms_per_fragment) {
  Lcg rng(seed);
  Module m;
  bool first = true;
  int counter = 0;
  for (int f = 0; f < fragments; ++f) {
    auto object = std::make_shared<ObjectFile>(StrCat("gen", f, ".o"));
    object->section(SectionKind::kText)
        .bytes.resize(static_cast<size_t>(8 * syms_per_fragment * 2));
    uint32_t offset = 0;
    for (int s = 0; s < syms_per_fragment; ++s) {
      EXPECT_OK(object->DefineSymbol(StrCat("sym_", counter++),
                                     rng.Next(4) == 0 ? SymbolBinding::kWeak
                                                      : SymbolBinding::kGlobal,
                                     SectionKind::kText, offset));
      offset += 8;
    }
    for (int s = 0; s < syms_per_fragment; ++s) {
      std::string target = StrCat("sym_", rng.Next(static_cast<uint32_t>(counter + 4)));
      if (object->FindSymbol(target) == nullptr || !object->FindSymbol(target)->defined) {
        object->ReferenceSymbol(target);
      }
      object->AddReloc(SectionKind::kText,
                       Relocation{offset + 4, RelocKind::kAbs32, target, 0});
      offset += 8;
    }
    Module part = Module::FromObject(object);
    if (first) {
      m = std::move(part);
      first = false;
    } else {
      auto merged = Module::Merge(m, part);
      // Weak collisions can reject a strong/strong pair: retry without.
      if (merged.ok()) {
        m = std::move(merged).value();
      }
    }
  }
  return m;
}

std::vector<std::string> Exports(const Module& m) {
  auto names = m.ExportNames();
  EXPECT_TRUE(names.ok());
  return names.ok() ? names.value() : std::vector<std::string>{};
}

class ModuleAlgebra : public ::testing::TestWithParam<int> {
 protected:
  Module module_ = GenerateModule(static_cast<uint32_t>(GetParam()) * 7919u + 17u,
                                  3 + GetParam() % 4, 2 + GetParam() % 3);
};

TEST_P(ModuleAlgebra, ShowIsHideComplement) {
  // show(p) keeps exactly what hide(p) removes, over the same base.
  std::string pattern = "_[0-9]*[02468]$";  // even-numbered symbols
  std::vector<std::string> shown = Exports(module_.Show(pattern));
  std::vector<std::string> hidden = Exports(module_.Hide(pattern));
  std::vector<std::string> all = Exports(module_);
  EXPECT_EQ(shown.size() + hidden.size(), all.size());
  for (const std::string& name : shown) {
    EXPECT_TRUE(RegexMatch(name, pattern));
  }
  for (const std::string& name : hidden) {
    EXPECT_FALSE(RegexMatch(name, pattern));
  }
}

TEST_P(ModuleAlgebra, ProjectIsRestrictComplement) {
  std::string pattern = "_[0-9]*[13579]$";
  std::vector<std::string> projected = Exports(module_.Project(pattern));
  std::vector<std::string> restricted = Exports(module_.Restrict(pattern));
  std::vector<std::string> all = Exports(module_);
  EXPECT_EQ(projected.size() + restricted.size(), all.size());
}

TEST_P(ModuleAlgebra, RenameIsInvertibleOnDefs) {
  Module renamed = module_.Rename("^sym_", "tmp_&", RenameWhich::kDefs);
  Module back = renamed.Rename("^tmp_sym_", "sym_&", RenameWhich::kDefs);
  // A second rename with '&' appends; instead verify counts and prefixes.
  std::vector<std::string> names = Exports(renamed);
  EXPECT_EQ(names.size(), Exports(module_).size());
  for (const std::string& name : names) {
    EXPECT_TRUE(StartsWith(name, "tmp_sym_"));
  }
  (void)back;
}

TEST_P(ModuleAlgebra, CopyAsPreservesOriginal) {
  Module copied = module_.CopyAs("^sym_", "dup_&");
  std::vector<std::string> names = Exports(copied);
  EXPECT_EQ(names.size(), 2 * Exports(module_).size());
}

TEST_P(ModuleAlgebra, HideIsIdempotent) {
  std::string pattern = "^sym_1";
  std::vector<std::string> once = Exports(module_.Hide(pattern));
  std::vector<std::string> twice = Exports(module_.Hide(pattern).Hide(pattern));
  EXPECT_EQ(once, twice);
}

TEST_P(ModuleAlgebra, RestrictThenMergeRebinds) {
  // For every export E: restrict(E) then merge a fresh definition of E
  // leaves no unbound references to E.
  std::vector<std::string> all = Exports(module_);
  if (all.empty()) {
    GTEST_SKIP();
  }
  const std::string& victim = all[all.size() / 2];
  Module restricted = module_.Restrict(StrCat("^", victim, "$"));
  auto replacement = std::make_shared<ObjectFile>("repl.o");
  replacement->section(SectionKind::kText).bytes.resize(8);
  ASSERT_OK(replacement->DefineSymbol(victim, SymbolBinding::kGlobal, SectionKind::kText, 0));
  ASSERT_OK_AND_ASSIGN(Module merged,
                       Module::Merge(restricted, Module::FromObject(replacement)));
  ASSERT_OK_AND_ASSIGN(auto unbound, merged.UnboundRefNames());
  for (const std::string& name : unbound) {
    EXPECT_NE(name, victim);
  }
}

TEST_P(ModuleAlgebra, MergeExportUnionWhenDisjoint) {
  Module other = GenerateModule(static_cast<uint32_t>(GetParam()) + 1000u, 2, 2);
  // Rename to guarantee disjoint export sets.
  Module disjoint = other.Rename("^sym_", "other_&", RenameWhich::kBoth);
  auto merged = Module::Merge(module_, disjoint);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(Exports(*merged).size(), Exports(module_).size() + Exports(disjoint).size());
}

TEST_P(ModuleAlgebra, MaterializationIsStable) {
  Module chained = module_.Hide("^sym_2").Rename("^sym_1", "one_&", RenameWhich::kBoth);
  std::vector<std::string> first = Exports(chained);
  std::vector<std::string> second = Exports(chained);
  EXPECT_EQ(first, second);
}

TEST_P(ModuleAlgebra, LinkIsDeterministic) {
  LayoutSpec layout;
  layout.allow_unresolved = true;
  ASSERT_OK_AND_ASSIGN(LinkedImage one, LinkImage(module_, layout, "p"));
  ASSERT_OK_AND_ASSIGN(LinkedImage two, LinkImage(module_, layout, "p"));
  EXPECT_EQ(one.text, two.text);
  EXPECT_EQ(one.data, two.data);
  EXPECT_EQ(one.unresolved, two.unresolved);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModuleAlgebra, ::testing::Range(0, 12));

// ---- n-ary merge equals the pairwise left fold --------------------------------

constexpr uint32_t kNamePool = 12;  // small, so operands collide

// A leaf defining and referencing names from the shared pool; each
// definition is strong with probability strong_pct/100, else weak.
Module RandomLeaf(Lcg& rng, const std::string& name, uint32_t strong_pct) {
  auto object = std::make_shared<ObjectFile>(name);
  object->section(SectionKind::kText).bytes.resize(64);
  uint32_t offset = 0;
  for (uint32_t d = 1 + rng.Next(3); d > 0; --d) {
    std::string sym = StrCat("s", rng.Next(kNamePool));
    if (object->FindSymbol(sym) == nullptr) {
      EXPECT_OK(object->DefineSymbol(
          sym, rng.Next(100) < strong_pct ? SymbolBinding::kGlobal : SymbolBinding::kWeak,
          SectionKind::kText, offset));
      offset += 4;
    }
  }
  // References may name the leaf's own definitions (bound-to-self) or
  // anything else in the pool (unbound until some operand exports it).
  for (uint32_t r = 1 + rng.Next(3); r > 0; --r) {
    std::string sym = StrCat("s", rng.Next(kNamePool));
    if (object->FindSymbol(sym) == nullptr) {
      object->ReferenceSymbol(sym);
    }
    object->AddReloc(SectionKind::kText, Relocation{offset, RelocKind::kAbs32, sym, 0});
    offset += 4;
  }
  return Module::FromObject(object);
}

// One merge operand: a leaf, sometimes pre-merged with a second one (so
// operands carry several fragments), then put through a random view op.
Module RandomOperand(Lcg& rng, int index, uint32_t strong_pct) {
  Module m = RandomLeaf(rng, StrCat("op", index, "a.o"), strong_pct);
  if (rng.Next(4) == 0) {
    auto pair = Module::Merge(m, RandomLeaf(rng, StrCat("op", index, "b.o"), strong_pct));
    if (pair.ok()) {
      m = std::move(pair).value();
    }
  }
  std::string pick = StrCat("^s", rng.Next(kNamePool), "$");
  switch (rng.Next(5)) {
    case 0:
      return m.Rename(pick, StrCat("s", rng.Next(kNamePool)),
                      static_cast<RenameWhich>(rng.Next(3)));
    case 1:
      return m.Hide(pick);
    case 2:
      return m.Restrict(pick);
    default:
      return m;
  }
}

Result<Module> LeftFold(const std::vector<Module>& ops) {
  Module acc = ops[0];
  for (size_t i = 1; i < ops.size(); ++i) {
    OMOS_TRY(acc, Module::Merge(acc, ops[i]));
  }
  return acc;
}

// Order-independent rendering of a merge outcome: the error, or the
// fragment order plus every export and reference record.
std::string Render(const Result<Module>& result) {
  if (!result.ok()) {
    return StrCat("error ", ErrorCodeName(result.error().code()), ": ", result.error().message());
  }
  std::vector<std::string> lines;
  for (const FragmentPtr& fragment : result->fragments()) {
    lines.push_back(StrCat("fragment ", fragment->name()));
  }
  const SymbolSpace* space = result->Space().value();
  std::vector<std::string> records;
  for (const auto& [id, exp] : space->exports) {
    records.push_back(StrCat("export ", SymbolInterner::Global().Name(id), " ", exp.def.fragment,
                             ":", exp.def.symbol, exp.weak ? " weak" : ""));
  }
  for (const auto& [key, ref] : space->refs) {
    records.push_back(StrCat("ref ", RefKeyFragment(key), ":",
                             SymbolInterner::Global().Name(RefKeyName(key)), " state ",
                             static_cast<int>(ref.state), " target ", ref.target.fragment, ":",
                             ref.target.symbol, " seeks ",
                             SymbolInterner::Global().Name(ref.ext_name)));
  }
  std::sort(records.begin(), records.end());
  lines.insert(lines.end(), records.begin(), records.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out.push_back('\n');
  }
  return out;
}

TEST(MergeAllProperty, EqualsPairwiseLeftFold) {
  int failed = 0;
  int merged = 0;
  for (uint32_t seed = 0; seed < 300; ++seed) {
    Lcg rng(seed);
    uint32_t strong_pct = std::vector<uint32_t>{5, 20, 50}[rng.Next(3)];
    std::vector<Module> ops;
    for (int i = 0, n = 2 + static_cast<int>(rng.Next(39)); i < n; ++i) {
      ops.push_back(RandomOperand(rng, i, strong_pct));
    }
    Result<Module> fold = LeftFold(ops);
    Result<Module> all = Module::MergeAll(ops);
    ASSERT_EQ(Render(all), Render(fold)) << "seed " << seed << ", " << ops.size() << " operands";
    if (fold.ok()) {
      EXPECT_EQ(all->fragments(), fold->fragments()) << "seed " << seed;  // same objects
    }
    (fold.ok() ? merged : failed) += 1;
  }
  // Both outcomes were exercised.
  EXPECT_GT(merged, 30);
  EXPECT_GT(failed, 30);
}

// A reference binds at the first operand boundary where its name is
// exported and keeps that definition: binding every reference against the
// final export table would pick the later strong definition instead.
TEST(MergeAllProperty, WeakBindingSurvivesLaterStrongDefinition) {
  auto leaf = [](const std::string& name, const std::string& source) {
    auto object = Assemble(source, name);
    EXPECT_OK(object);
    return Module::FromObject(std::make_shared<const ObjectFile>(std::move(object).value()));
  };
  std::vector<Module> ops{
      leaf("weak.o", ".text\n.weak f\nf:\n  ret\n"),
      leaf("caller.o", ".text\n.global g\ng:\n  call f\n  ret\n"),
      leaf("strong.o", ".text\n.global f\nf:\n  movi r0, 1\n  ret\n"),
  };
  ASSERT_OK_AND_ASSIGN(Module all, Module::MergeAll(ops));
  ASSERT_OK_AND_ASSIGN(Module fold, LeftFold(ops));
  EXPECT_EQ(Render(all), Render(fold));
  ASSERT_OK_AND_ASSIGN(const SymbolSpace* space, all.Space());
  const RefRecord* call = space->FindRef(1, "f");
  ASSERT_NE(call, nullptr);
  EXPECT_EQ(call->state, BindState::kBound);
  EXPECT_EQ(call->target.fragment, 0u);            // the weak definition
  EXPECT_EQ(space->FindExport("f")->def.fragment, 2u);  // the export is the strong one
}

TEST(MergeAllProperty, DuplicateStrongDefinitionFailsLikeTheFold) {
  auto leaf = [](const std::string& name) {
    auto object = Assemble(".text\n.global f\nf:\n  ret\n", name);
    EXPECT_OK(object);
    return Module::FromObject(std::make_shared<const ObjectFile>(std::move(object).value()));
  };
  std::vector<Module> ops{leaf("a.o"), leaf("b.o"), leaf("c.o")};
  Result<Module> all = Module::MergeAll(ops);
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.error().code(), ErrorCode::kDuplicateSymbol);
  EXPECT_EQ(Render(all), Render(LeftFold(ops)));
}

// ---- Link plans: a plan kept on a space links as a fresh one does -----------

// A leaf whose patches reach the other sections: a pc-relative text branch
// to a local label, text references to its own data and bss symbols, and a
// data word holding the address of a pool name.
Module DataLeaf(Lcg& rng) {
  auto object = std::make_shared<ObjectFile>("data.o");
  object->section(SectionKind::kText).bytes.resize(24);
  object->section(SectionKind::kData).bytes.resize(8);
  object->section(SectionKind::kBss).bss_size = 16;
  EXPECT_OK(object->DefineSymbol("loop", SymbolBinding::kLocal, SectionKind::kText, 0));
  EXPECT_OK(object->DefineSymbol("dword", SymbolBinding::kGlobal, SectionKind::kData, 4, 4));
  EXPECT_OK(object->DefineSymbol("dbuf", SymbolBinding::kGlobal, SectionKind::kBss, 8, 8));
  object->AddReloc(SectionKind::kText, Relocation{4, RelocKind::kPcRel32, "loop", 0, {}});
  object->AddReloc(SectionKind::kText, Relocation{12, RelocKind::kAbs32, "dword", 0, {}});
  object->AddReloc(SectionKind::kText, Relocation{20, RelocKind::kPcRel32, "dbuf", 4, {}});
  std::string pool_name = StrCat("s", rng.Next(kNamePool));
  object->ReferenceSymbol(pool_name);
  object->AddReloc(SectionKind::kData, Relocation{0, RelocKind::kAbs32, pool_name, 8, {}});
  return Module::FromObject(object);
}

// The MergeAllProperty operands for `seed`, plus a DataLeaf. Equal seeds
// give equal modules built from distinct objects.
std::vector<Module> PlanOperands(uint32_t seed) {
  Lcg rng(seed);
  uint32_t strong_pct = std::vector<uint32_t>{5, 20}[rng.Next(2)];
  std::vector<Module> ops;
  for (int i = 0, n = 2 + static_cast<int>(rng.Next(20)); i < n; ++i) {
    ops.push_back(RandomOperand(rng, i, strong_pct));
  }
  ops.push_back(DataLeaf(rng));
  return ops;
}

std::string_view Interned(std::string_view name) {
  return SymbolInterner::Global().Name(SymbolInterner::Global().Intern(name));
}

// A library image exporting a random half of the name pool.
LinkedImage RandomLibrary(Lcg& rng) {
  LinkedImage lib;
  for (uint32_t k = 0; k < kNamePool; ++k) {
    if (rng.Next(2) == 0) {
      lib.symbols.push_back(ImageSymbol{Interned(StrCat("s", k)), 0x3000000 + 16 * k, 8,
                                        SectionKind::kText});
    }
  }
  lib.BuildSymbolIndex();
  return lib;
}

// Everything a link produces, or its error.
std::string RenderLink(const Result<LinkedImage>& link) {
  if (!link.ok()) {
    return StrCat("error ", ErrorCodeName(link.error().code()), ": ", link.error().message());
  }
  const LinkedImage& image = *link;
  std::string out = StrCat("bases ", Hex32(image.text_base), " ", Hex32(image.data_base), " bss ",
                           image.bss_size, " entry ", Hex32(image.entry), "\ntext");
  for (uint8_t byte : image.text) {
    out += StrCat(" ", int(byte));
  }
  out += "\ndata";
  for (uint8_t byte : image.data) {
    out += StrCat(" ", int(byte));
  }
  out += StrCat("\nstats ", image.stats.fragments, " ", image.stats.relocations_applied, " ",
                image.stats.symbols_exported, " ", image.stats.refs_bound, "\n");
  for (const ImageSymbol& sym : image.symbols) {
    out += StrCat("symbol ", sym.name, " ", Hex32(sym.addr), " ", sym.size, " ",
                  SectionKindName(sym.section), "\n");
  }
  for (const std::string& name : image.unresolved) {
    out += StrCat("unresolved ", name, "\n");
  }
  for (const RelocRecord& rec : image.reloc_log) {
    out += StrCat("reloc ", SectionKindName(rec.section), " ", Hex32(rec.field_addr), " ",
                  Hex32(rec.value), " ", rec.symbol, rec.pcrel ? " pcrel" : "",
                  rec.cross_fragment ? " cross" : "", "\n");
  }
  return out;
}

// Random bases (data after text, or on the page after it), libraries,
// entry and allow_unresolved; every applied relocation is logged.
LayoutSpec RandomLayout(Lcg& rng, const LinkedImage& lib) {
  LayoutSpec layout;
  layout.text_base = 0x100000 + 0x1000 * rng.Next(256);
  layout.data_base = rng.Next(2) == 0 ? 0 : layout.text_base + 0x10000 + 0x1000 * rng.Next(16);
  if (rng.Next(3) != 0) {
    layout.entry_symbol = StrCat("s", rng.Next(kNamePool));
  }
  layout.allow_unresolved = rng.Next(2) == 0;
  layout.record_relocs = true;
  if (rng.Next(3) != 0) {
    layout.libraries.push_back(&lib);
  }
  return layout;
}

TEST(LinkPlanProperty, KeptPlanLinksLikeAFreshModuleAtRandomBases) {
  int linked = 0;
  int failed = 0;
  for (uint32_t seed = 0; seed < 200; ++seed) {
    Result<Module> shared = Module::MergeAll(PlanOperands(seed));
    if (!shared.ok()) {
      continue;  // duplicate strong definitions: nothing to link
    }
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<const LinkPlan> plan, PlanLink(*shared));
    Lcg rng(seed * 7919u + 1);
    LinkedImage lib = RandomLibrary(rng);
    for (int round = 0; round < 2; ++round) {
      LayoutSpec layout = RandomLayout(rng, lib);
      Result<LinkedImage> planned = LinkImage(*shared, layout, "img");
      ASSERT_OK_AND_ASSIGN(Module fresh, Module::MergeAll(PlanOperands(seed)));
      ASSERT_EQ(RenderLink(planned), RenderLink(LinkImage(fresh, layout, "img")))
          << "seed " << seed << ", round " << round;
      (planned.ok() ? linked : failed) += 1;
    }
    // Both links went through the plan the space keeps.
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<const LinkPlan> again, PlanLink(*shared));
    EXPECT_EQ(again, plan) << "seed " << seed;
  }
  EXPECT_GT(linked, 50);
  EXPECT_GT(failed, 20);
}

Module LeafFromSource(const std::string& name, const std::string& source) {
  auto object = Assemble(source, name);
  EXPECT_OK(object);
  return Module::FromObject(std::make_shared<const ObjectFile>(std::move(object).value()));
}

// Links `module` twice through its kept plan, at two text bases, and
// expects the same error both times.
void ExpectLinkFails(const Module& module, LayoutSpec layout, ErrorCode code,
                     const std::string& message) {
  for (uint32_t base : {0x100000u, 0x2000000u}) {
    layout.text_base = base;
    Result<LinkedImage> image = LinkImage(module, layout, "img");
    ASSERT_FALSE(image.ok()) << Hex32(base);
    EXPECT_EQ(image.error().code(), code) << Hex32(base);
    EXPECT_EQ(image.error().message(), message) << Hex32(base);
  }
}

TEST(LinkPlanProperty, DataBaseOverlappingTextFails) {
  Module m = LeafFromSource("a.o", ".text\n.global f\nf:\n  ret\n  ret\n.data\nw: .word 1\n");
  LayoutSpec layout;
  layout.data_base = 0x100008;
  ExpectLinkFails(m, layout, ErrorCode::kInvalidArgument,
                  "img: data base 0x00100008 overlaps text");
}

TEST(LinkPlanProperty, UnresolvedExternalBeforeUnknownSymbolFailsFirst) {
  // a.o's reference to `missing` binds nowhere; b.o's relocation names a
  // symbol its own table lacks. Fragment order decides which error wins.
  Module a = LeafFromSource("a.o", ".text\n.global main\nmain:\n  call missing\n  ret\n");
  auto b = std::make_shared<ObjectFile>("b.o");
  b->section(SectionKind::kText).bytes.resize(8);
  b->AddReloc(SectionKind::kText, Relocation{4, RelocKind::kAbs32, "ghost", 0, {}});
  ASSERT_OK_AND_ASSIGN(Module m, Module::Merge(a, Module::FromObject(b)));
  ExpectLinkFails(m, LayoutSpec{}, ErrorCode::kUnresolvedSymbol,
                  "img: unresolved reference to missing from a.o");
  // Left unresolved, the unknown symbol after it is what fails.
  LayoutSpec partial;
  partial.allow_unresolved = true;
  ExpectLinkFails(m, partial, ErrorCode::kRelocationError, "b.o: reloc names unknown symbol ghost");
}

TEST(LinkPlanProperty, RenamedReferenceResolvesThroughLibraryByItsNewName) {
  // The plan records the name a reference seeks after the rename, not the
  // name its relocation carries.
  Module m = LeafFromSource("a.o", ".text\n.global main\nmain:\n  call old_fn\n  ret\n")
                 .Rename("^old_fn$", "lib_fn", RenameWhich::kRefs);
  LinkedImage lib;
  lib.symbols.push_back(ImageSymbol{"old_fn", 0x3000000, 8, SectionKind::kText});
  lib.symbols.push_back(ImageSymbol{"lib_fn", 0x3000040, 8, SectionKind::kText});
  lib.BuildSymbolIndex();
  LayoutSpec layout;
  layout.libraries.push_back(&lib);
  layout.record_relocs = true;
  for (uint32_t base : {0x100000u, 0x2000000u}) {
    layout.text_base = base;
    ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(m, layout, "img"));
    ASSERT_EQ(image.reloc_log.size(), 1u);
    EXPECT_EQ(image.reloc_log[0].symbol, "old_fn");
    EXPECT_EQ(image.reloc_log[0].value, 0x3000040u);
  }
}

TEST(LinkPlanProperty, MissingEntrySymbolFails) {
  Module m = LeafFromSource("a.o", ".text\n.global f\nf:\n  ret\n");
  LayoutSpec layout;
  layout.entry_symbol = "_start";
  ExpectLinkFails(m, layout, ErrorCode::kUnresolvedSymbol, "img: no entry symbol _start");
}

// ---- Codec round-trip properties over generated objects ----------------------

class CodecProperty : public ::testing::TestWithParam<int> {};

TEST_P(CodecProperty, BinaryAndTextRoundTrip) {
  Lcg rng(static_cast<uint64_t>(GetParam()) * 104729u);
  ObjectFile object(StrCat("rand", GetParam(), ".o"));
  size_t text_size = 8 * (1 + rng.Next(16));
  object.section(SectionKind::kText).bytes.resize(text_size);
  for (auto& byte : object.section(SectionKind::kText).bytes) {
    byte = static_cast<uint8_t>(rng.Next(256));
  }
  object.section(SectionKind::kBss).bss_size = rng.Next(4096);
  int syms = 1 + static_cast<int>(rng.Next(6));
  for (int i = 0; i < syms; ++i) {
    EXPECT_OK(object.DefineSymbol(StrCat("s", i),
                                  static_cast<SymbolBinding>(rng.Next(3)), SectionKind::kText,
                                  rng.Next(static_cast<uint32_t>(text_size))));
  }
  object.ReferenceSymbol("ext");
  object.AddReloc(SectionKind::kText,
                  Relocation{rng.Next(static_cast<uint32_t>(text_size - 4)),
                             static_cast<RelocKind>(rng.Next(2)), "ext",
                             static_cast<int32_t>(rng.Next(100)) - 50});

  for (const char* format : {"xof-binary", "xof-text"}) {
    const ObjectBackend* backend = BackendRegistry::Default().Find(format);
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> bytes, backend->Encode(object));
    ASSERT_OK_AND_ASSIGN(ObjectFile decoded, backend->Decode(bytes));
    EXPECT_EQ(decoded, object) << format;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecProperty, ::testing::Range(0, 16));

}  // namespace
}  // namespace omos
