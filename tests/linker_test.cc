// The module calculus (Jigsaw operators) and the link step.
#include <gtest/gtest.h>

#include "src/linker/image_codec.h"
#include "src/linker/link.h"
#include "src/linker/module.h"
#include "src/support/strings.h"
#include "tests/helpers.h"

namespace omos {
namespace {

FragmentPtr MakeFragment(const std::string& name,
                         const std::vector<std::pair<std::string, bool>>& defs_and_weak,
                         const std::vector<std::string>& refs) {
  auto object = std::make_shared<ObjectFile>(name);
  uint32_t offset = 0;
  object->section(SectionKind::kText).bytes.resize(8 * (defs_and_weak.size() + refs.size()) + 8);
  for (const auto& [def, weak] : defs_and_weak) {
    EXPECT_OK(object->DefineSymbol(def, weak ? SymbolBinding::kWeak : SymbolBinding::kGlobal,
                                   SectionKind::kText, offset));
    offset += 8;
  }
  for (const std::string& ref : refs) {
    object->ReferenceSymbol(ref);
    object->AddReloc(SectionKind::kText, Relocation{offset + 4, RelocKind::kAbs32, ref, 0});
    offset += 8;
  }
  return object;
}

Module Leaf(const std::string& name, const std::vector<std::string>& defs,
            const std::vector<std::string>& refs) {
  std::vector<std::pair<std::string, bool>> dw;
  for (const std::string& def : defs) {
    dw.emplace_back(def, false);
  }
  return Module::FromObject(MakeFragment(name, dw, refs));
}

BindState StateOfRef(const Module& m, uint32_t fragment, const std::string& name) {
  auto space = m.Space();
  EXPECT_TRUE(space.ok());
  const RefRecord* ref = (*space)->FindRef(fragment, name);
  return ref == nullptr ? BindState::kUnbound : ref->state;
}

const Export& ExportAt(const SymbolSpace* space, std::string_view name) {
  const Export* exp = space->FindExport(name);
  EXPECT_NE(exp, nullptr) << "no export named " << name;
  return *exp;
}

const RefRecord& RefAt(const SymbolSpace* space, uint32_t fragment, std::string_view name) {
  const RefRecord* ref = space->FindRef(fragment, name);
  EXPECT_NE(ref, nullptr) << "no ref (" << fragment << ", " << name << ")";
  return *ref;
}

TEST(Module, LeafExportsAndRefs) {
  Module m = Leaf("a.o", {"f", "g"}, {"h"});
  ASSERT_OK_AND_ASSIGN(auto exports, m.ExportNames());
  EXPECT_EQ(exports, (std::vector<std::string>{"f", "g"}));
  ASSERT_OK_AND_ASSIGN(auto unbound, m.UnboundRefNames());
  EXPECT_EQ(unbound, (std::vector<std::string>{"h"}));
}

TEST(Module, SelfReferenceBoundButVirtual) {
  // A fragment that calls its own export starts bound (not frozen).
  auto object = std::make_shared<ObjectFile>("self.o");
  object->section(SectionKind::kText).bytes.resize(16);
  ASSERT_OK(object->DefineSymbol("f", SymbolBinding::kGlobal, SectionKind::kText, 0));
  object->AddReloc(SectionKind::kText, Relocation{12, RelocKind::kAbs32, "f", 0});
  Module m = Module::FromObject(object);
  EXPECT_EQ(StateOfRef(m, 0, "f"), BindState::kBound);
}

TEST(Module, DefaultHiddenPrunesExports) {
  // Two globals, one explicitly exported, under default-hidden: only the
  // exported one reaches the symbol space.
  auto object = std::make_shared<ObjectFile>("lib.o");
  object->section(SectionKind::kText).bytes.resize(16);
  EXPECT_OK(object->DefineSymbol("api", SymbolBinding::kGlobal, SectionKind::kText, 0));
  EXPECT_OK(object->DefineSymbol("internal", SymbolBinding::kGlobal, SectionKind::kText, 8));
  object->set_default_hidden(true);
  object->FindMutableSymbol("api")->visibility = SymbolVisibility::kExported;
  Module m = Module::FromObject(object);
  ASSERT_OK_AND_ASSIGN(auto exports, m.ExportNames());
  EXPECT_EQ(exports, (std::vector<std::string>{"api"}));
}

TEST(Module, HiddenSymbolInvisibleToMerge) {
  // a calls helper; b defines helper but hides it — the merge must NOT bind
  // a's reference to the hidden definition.
  Module a = Leaf("a.o", {"main"}, {"helper"});
  auto hider = std::make_shared<ObjectFile>("b.o");
  hider->section(SectionKind::kText).bytes.resize(8);
  EXPECT_OK(hider->DefineSymbol("helper", SymbolBinding::kGlobal, SectionKind::kText, 0));
  hider->FindMutableSymbol("helper")->visibility = SymbolVisibility::kHidden;
  ASSERT_OK_AND_ASSIGN(Module merged, Module::Merge(a, Module::FromObject(hider)));
  EXPECT_EQ(StateOfRef(merged, 0, "helper"), BindState::kUnbound);
  ASSERT_OK_AND_ASSIGN(auto unbound, merged.UnboundRefNames());
  EXPECT_EQ(unbound, (std::vector<std::string>{"helper"}));
}

TEST(Module, HiddenSelfReferenceFrozenAndStillLinks) {
  // A fragment calling its own hidden export: the ref freezes at FromObject
  // (nothing outside may rebind it) but the link still resolves it to the
  // local definition.
  auto object = std::make_shared<ObjectFile>("self.o");
  object->section(SectionKind::kText).bytes.resize(16);
  ASSERT_OK(object->DefineSymbol("f", SymbolBinding::kGlobal, SectionKind::kText, 0));
  object->AddReloc(SectionKind::kText, Relocation{12, RelocKind::kAbs32, "f", 0});
  object->FindMutableSymbol("f")->visibility = SymbolVisibility::kHidden;
  Module m = Module::FromObject(object);
  EXPECT_EQ(StateOfRef(m, 0, "f"), BindState::kFrozen);
  ASSERT_OK_AND_ASSIGN(auto exports, m.ExportNames());
  EXPECT_TRUE(exports.empty());
  LayoutSpec layout;
  ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(m, layout, "t"));
  uint32_t patched = static_cast<uint32_t>(image.text[12]) |
                     static_cast<uint32_t>(image.text[13]) << 8 |
                     static_cast<uint32_t>(image.text[14]) << 16 |
                     static_cast<uint32_t>(image.text[15]) << 24;
  EXPECT_EQ(patched, image.text_base);  // f sits at text offset 0
}

TEST(Module, MergeBindsReferences) {
  Module a = Leaf("a.o", {"main"}, {"helper"});
  Module b = Leaf("b.o", {"helper"}, {});
  ASSERT_OK_AND_ASSIGN(Module merged, Module::Merge(a, b));
  EXPECT_EQ(StateOfRef(merged, 0, "helper"), BindState::kBound);
  ASSERT_OK_AND_ASSIGN(auto unbound, merged.UnboundRefNames());
  EXPECT_TRUE(unbound.empty());
}

TEST(Module, MergeDuplicateStrongDefinitionsError) {
  Module a = Leaf("a.o", {"f"}, {});
  Module b = Leaf("b.o", {"f"}, {});
  auto merged = Module::Merge(a, b);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.error().code(), ErrorCode::kDuplicateSymbol);
}

TEST(Module, WeakYieldsToStrong) {
  Module weak = Module::FromObject(MakeFragment("w.o", {{"f", true}}, {}));
  Module strong = Leaf("s.o", {"f"}, {});
  // Both orders succeed and the strong definition wins.
  for (auto [first, second] : {std::pair{weak, strong}, std::pair{strong, weak}}) {
    ASSERT_OK_AND_ASSIGN(Module merged, Module::Merge(first, second));
    ASSERT_OK_AND_ASSIGN(const SymbolSpace* space, merged.Space());
    const Export& exp = ExportAt(space, "f");
    EXPECT_FALSE(exp.weak);
  }
}

TEST(Module, TwoWeakDefinitionsFirstWins) {
  Module w1 = Module::FromObject(MakeFragment("w1.o", {{"f", true}}, {}));
  Module w2 = Module::FromObject(MakeFragment("w2.o", {{"f", true}}, {}));
  ASSERT_OK_AND_ASSIGN(Module merged, Module::Merge(w1, w2));
  ASSERT_OK_AND_ASSIGN(const SymbolSpace* space, merged.Space());
  EXPECT_EQ(ExportAt(space, "f").def.fragment, 0u);
}

TEST(Module, OverrideRebindsNonFrozen) {
  // a defines f and calls it; override with a new f rebinds a's internal call.
  auto object = std::make_shared<ObjectFile>("a.o");
  object->section(SectionKind::kText).bytes.resize(16);
  ASSERT_OK(object->DefineSymbol("f", SymbolBinding::kGlobal, SectionKind::kText, 0));
  object->AddReloc(SectionKind::kText, Relocation{12, RelocKind::kAbs32, "f", 0});
  Module a = Module::FromObject(object);
  Module b = Leaf("b.o", {"f"}, {});
  ASSERT_OK_AND_ASSIGN(Module overridden, Module::Override(a, b));
  ASSERT_OK_AND_ASSIGN(const SymbolSpace* space, overridden.Space());
  // a's ref to f now targets b's definition (fragment 1).
  EXPECT_EQ(RefAt(space, 0, "f").target.fragment, 1u);
  EXPECT_EQ(ExportAt(space, "f").def.fragment, 1u);
}

TEST(Module, FreezeProtectsFromOverride) {
  auto object = std::make_shared<ObjectFile>("a.o");
  object->section(SectionKind::kText).bytes.resize(16);
  ASSERT_OK(object->DefineSymbol("f", SymbolBinding::kGlobal, SectionKind::kText, 0));
  object->AddReloc(SectionKind::kText, Relocation{12, RelocKind::kAbs32, "f", 0});
  Module a = Module::FromObject(object).Freeze("^f$");
  Module b = Leaf("b.o", {"f"}, {});
  ASSERT_OK_AND_ASSIGN(Module overridden, Module::Override(a, b));
  ASSERT_OK_AND_ASSIGN(const SymbolSpace* space, overridden.Space());
  // Frozen binding still targets the original definition...
  EXPECT_EQ(RefAt(space, 0, "f").target.fragment, 0u);
  // ...even though the export table now shows the override.
  EXPECT_EQ(ExportAt(space, "f").def.fragment, 1u);
}

TEST(Module, FreezeProtectsFromRestrict) {
  Module a = Leaf("a.o", {"main"}, {"util"});
  Module b = Leaf("b.o", {"util"}, {});
  ASSERT_OK_AND_ASSIGN(Module merged, Module::Merge(a, b));
  Module frozen = merged.Freeze("^util$").Restrict("^util$");
  EXPECT_EQ(StateOfRef(frozen, 0, "util"), BindState::kFrozen);
  // But the export is gone.
  ASSERT_OK_AND_ASSIGN(bool has, frozen.HasExport("util"));
  EXPECT_FALSE(has);
}

TEST(Module, RestrictUnbindsAndRemoves) {
  Module a = Leaf("a.o", {"main"}, {"util"});
  Module b = Leaf("b.o", {"util"}, {});
  ASSERT_OK_AND_ASSIGN(Module merged, Module::Merge(a, b));
  Module restricted = merged.Restrict("^util$");
  EXPECT_EQ(StateOfRef(restricted, 0, "util"), BindState::kUnbound);
  ASSERT_OK_AND_ASSIGN(bool has, restricted.HasExport("util"));
  EXPECT_FALSE(has);
  // Re-merging a new util rebinds (the Fig. 2 pattern).
  Module c = Leaf("c.o", {"util"}, {});
  ASSERT_OK_AND_ASSIGN(Module again, Module::Merge(restricted, c));
  ASSERT_OK_AND_ASSIGN(const SymbolSpace* space, again.Space());
  EXPECT_EQ(RefAt(space, 0, "util").target.fragment, 2u);
}

TEST(Module, ProjectKeepsOnlyMatching) {
  Module m = Leaf("a.o", {"keep_this", "drop_this"}, {});
  Module projected = m.Project("^keep_");
  ASSERT_OK_AND_ASSIGN(auto names, projected.ExportNames());
  EXPECT_EQ(names, (std::vector<std::string>{"keep_this"}));
}

TEST(Module, HideFreezesAndRemoves) {
  Module a = Leaf("a.o", {"main"}, {"internal"});
  Module b = Leaf("b.o", {"internal"}, {});
  ASSERT_OK_AND_ASSIGN(Module merged, Module::Merge(a, b));
  Module hidden = merged.Hide("^internal$");
  EXPECT_EQ(StateOfRef(hidden, 0, "internal"), BindState::kFrozen);
  ASSERT_OK_AND_ASSIGN(bool has, hidden.HasExport("internal"));
  EXPECT_FALSE(has);
}

TEST(Module, ShowIsHideComplement) {
  Module m = Leaf("a.o", {"api_f", "api_g", "impl_h"}, {});
  Module shown = m.Show("^api_");
  ASSERT_OK_AND_ASSIGN(auto names, shown.ExportNames());
  EXPECT_EQ(names, (std::vector<std::string>{"api_f", "api_g"}));
}

TEST(Module, RenameDefsOnly) {
  Module m = Leaf("a.o", {"old_name"}, {"old_name_ref"});
  Module renamed = m.Rename("^old_name$", "new_name", RenameWhich::kDefs);
  ASSERT_OK_AND_ASSIGN(bool has_new, renamed.HasExport("new_name"));
  EXPECT_TRUE(has_new);
  ASSERT_OK_AND_ASSIGN(bool has_old, renamed.HasExport("old_name"));
  EXPECT_FALSE(has_old);
}

TEST(Module, RenameRefsOnlyRedirectsBinding) {
  Module a = Leaf("a.o", {"main"}, {"bad_fn"});
  Module b = Leaf("b.o", {"good_fn"}, {});
  Module redirected = a.Rename("^bad_fn$", "good_fn", RenameWhich::kRefs);
  ASSERT_OK_AND_ASSIGN(Module merged, Module::Merge(redirected, b));
  ASSERT_OK_AND_ASSIGN(auto unbound, merged.UnboundRefNames());
  EXPECT_TRUE(unbound.empty());
}

TEST(Module, RenameAmpersandSubstitution) {
  Module m = Leaf("a.o", {"read", "write"}, {});
  Module renamed = m.Rename("^", "wrapped_&", RenameWhich::kDefs);
  ASSERT_OK_AND_ASSIGN(auto names, renamed.ExportNames());
  EXPECT_EQ(names, (std::vector<std::string>{"wrapped_read", "wrapped_write"}));
}

TEST(Module, CopyAsDuplicatesDefinition) {
  Module m = Leaf("a.o", {"malloc"}, {});
  Module copied = m.CopyAs("^malloc$", "_REAL_malloc");
  ASSERT_OK_AND_ASSIGN(const SymbolSpace* space, copied.Space());
  EXPECT_EQ(ExportAt(space, "malloc").def, ExportAt(space, "_REAL_malloc").def);
}

TEST(Module, ViewOpsAreLazy) {
  Module m = Leaf("a.o", {"f"}, {});
  Module chained = m.Rename("^f$", "g", RenameWhich::kBoth).Hide("^nothing$").Freeze(".*");
  EXPECT_EQ(chained.pending_ops(), 3u);
  ASSERT_OK(chained.Space());  // materializes
  Module more = chained.Show(".*");
  EXPECT_EQ(more.pending_ops(), 4u);
}

TEST(Module, ReorderFragmentsPreservesSemantics) {
  Module a = Leaf("a.o", {"f"}, {"g"});
  Module b = Leaf("b.o", {"g"}, {});
  Module c = Leaf("c.o", {"h"}, {});
  ASSERT_OK_AND_ASSIGN(Module m, Module::Merge(a, b));
  ASSERT_OK_AND_ASSIGN(m, Module::Merge(m, c));
  ASSERT_OK_AND_ASSIGN(Module reordered, m.ReorderFragments({2, 0, 1}));
  ASSERT_OK_AND_ASSIGN(const SymbolSpace* space, reordered.Space());
  EXPECT_EQ(ExportAt(space, "h").def.fragment, 0u);
  EXPECT_EQ(ExportAt(space, "f").def.fragment, 1u);
  // f's ref to g follows its fragment.
  EXPECT_EQ(RefAt(space, 1, "g").target.fragment, 2u);
}

TEST(Module, ReorderRejectsBadPermutation) {
  Module m = Leaf("a.o", {"f"}, {});
  EXPECT_FALSE(m.ReorderFragments({0, 0}).ok());
  EXPECT_FALSE(m.ReorderFragments({5}).ok());
}

// ---- Link step ----------------------------------------------------------------

TEST(Link, AppliesAbsoluteRelocation) {
  // main calls helper; verify the imm field holds helper's final address.
  Module a = Leaf("a.o", {"main"}, {"helper"});
  Module b = Leaf("b.o", {"helper"}, {});
  ASSERT_OK_AND_ASSIGN(Module m, Module::Merge(a, b));
  LayoutSpec layout;
  ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(m, layout, "t"));
  const ImageSymbol* helper = image.FindSymbol("helper");
  ASSERT_NE(helper, nullptr);
  // a.o's reloc is at text offset 12 (imm field at 8+4).
  uint32_t patched = static_cast<uint32_t>(image.text[12]) |
                     static_cast<uint32_t>(image.text[13]) << 8 |
                     static_cast<uint32_t>(image.text[14]) << 16 |
                     static_cast<uint32_t>(image.text[15]) << 24;
  EXPECT_EQ(patched, helper->addr);
}

TEST(Link, ExternalsResolveUnboundRefs) {
  Module a = Leaf("a.o", {"main"}, {"lib_fn"});
  LinkedImage lib;
  lib.symbols.push_back(ImageSymbol{"lib_fn", 0x02000040, 8, SectionKind::kText});
  lib.BuildSymbolIndex();
  LayoutSpec layout;
  layout.libraries.push_back(&lib);
  ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(a, layout, "t"));
  uint32_t patched = static_cast<uint32_t>(image.text[12]) |
                     static_cast<uint32_t>(image.text[13]) << 8 |
                     static_cast<uint32_t>(image.text[14]) << 16 |
                     static_cast<uint32_t>(image.text[15]) << 24;
  EXPECT_EQ(patched, 0x02000040u);
}

TEST(Link, UnresolvedFailsUnlessAllowed) {
  Module a = Leaf("a.o", {"main"}, {"ghost"});
  LayoutSpec layout;
  auto strict = LinkImage(a, layout, "t");
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.error().code(), ErrorCode::kUnresolvedSymbol);
  layout.allow_unresolved = true;
  ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(a, layout, "t"));
  EXPECT_EQ(image.unresolved, (std::vector<std::string>{"ghost"}));
}

TEST(Link, EntrySymbolResolution) {
  Module a = Leaf("a.o", {"_start"}, {});
  LayoutSpec layout;
  layout.entry_symbol = "_start";
  ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(a, layout, "t"));
  EXPECT_EQ(image.entry, image.text_base);
  layout.entry_symbol = "nonexistent";
  EXPECT_FALSE(LinkImage(a, layout, "t").ok());
}

TEST(Link, DataFollowsTextOnNextPage) {
  auto object = std::make_shared<ObjectFile>("d.o");
  object->section(SectionKind::kText).bytes.resize(8);
  object->section(SectionKind::kData).bytes = {1, 2, 3, 4};
  object->section(SectionKind::kBss).bss_size = 32;
  ASSERT_OK(object->DefineSymbol("d", SymbolBinding::kGlobal, SectionKind::kData, 0));
  ASSERT_OK(object->DefineSymbol("z", SymbolBinding::kGlobal, SectionKind::kBss, 4));
  Module m = Module::FromObject(object);
  LayoutSpec layout;
  layout.text_base = 0x100000;
  ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(m, layout, "t"));
  EXPECT_EQ(image.data_base, 0x101000u);
  EXPECT_EQ(image.FindSymbol("d")->addr, image.data_base);
  // bss symbols land after initialized data.
  EXPECT_EQ(image.FindSymbol("z")->addr, image.data_base + 4 + 4);
  EXPECT_EQ(image.bss_size, 32u);
}

TEST(Link, RecordRelocsLogsEverything) {
  Module a = Leaf("a.o", {"main"}, {"helper"});
  Module b = Leaf("b.o", {"helper"}, {});
  ASSERT_OK_AND_ASSIGN(Module m, Module::Merge(a, b));
  LayoutSpec layout;
  layout.record_relocs = true;
  ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(m, layout, "t"));
  ASSERT_EQ(image.reloc_log.size(), image.stats.relocations_applied);
  ASSERT_FALSE(image.reloc_log.empty());
  EXPECT_EQ(image.reloc_log[0].symbol, "helper");
  EXPECT_TRUE(image.reloc_log[0].cross_fragment);
}

TEST(Link, FragmentAlignment) {
  // Two fragments with odd-sized text: second must start 8-aligned.
  auto odd = std::make_shared<ObjectFile>("odd.o");
  odd->section(SectionKind::kText).bytes.resize(12);
  ASSERT_OK(odd->DefineSymbol("a", SymbolBinding::kGlobal, SectionKind::kText, 0));
  auto next = std::make_shared<ObjectFile>("next.o");
  next->section(SectionKind::kText).bytes.resize(8);
  ASSERT_OK(next->DefineSymbol("b", SymbolBinding::kGlobal, SectionKind::kText, 0));
  ASSERT_OK_AND_ASSIGN(Module m,
                       Module::Merge(Module::FromObject(odd), Module::FromObject(next)));
  LayoutSpec layout;
  ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(m, layout, "t"));
  EXPECT_EQ(image.FindSymbol("b")->addr % 8, 0u);
}

TEST(Link, LaidOutSectionSizesMatchTheLinkedImage) {
  // Unaligned text, data and bss in every fragment: each fragment after the
  // first starts at a padded offset, so a size pass that skipped the
  // padding would place a too-small image.
  std::vector<FragmentPtr> fragments;
  const uint32_t sizes[][3] = {{12, 3, 5}, {20, 6, 1}, {4, 1, 7}};
  for (int i = 0; i < 3; ++i) {
    auto object = std::make_shared<ObjectFile>(StrCat("f", i, ".o"));
    object->section(SectionKind::kText).bytes.resize(sizes[i][0]);
    object->section(SectionKind::kData).bytes.resize(sizes[i][1]);
    object->section(SectionKind::kBss).bss_size = sizes[i][2];
    ASSERT_OK(object->DefineSymbol(StrCat("t", i), SymbolBinding::kGlobal, SectionKind::kText, 0));
    ASSERT_OK(object->DefineSymbol(StrCat("d", i), SymbolBinding::kGlobal, SectionKind::kData, 0));
    fragments.push_back(std::move(object));
  }
  Module m = Module::FromObject(fragments[0]);
  for (size_t i = 1; i < fragments.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(m, Module::Merge(m, Module::FromObject(fragments[i])));
  }
  SectionLayout sections = LayOutSections(m.fragments());
  ASSERT_EQ(sections.fragments.size(), 3u);
  // 12 -> 16 + 20 = 36 -> 40 + 4; 3 -> 4 + 6 = 10 -> 12 + 1; 5 -> 8 + 1 = 9 -> 12 + 7.
  EXPECT_EQ(sections.text_size, 44u);
  EXPECT_EQ(sections.data_size, 13u);
  EXPECT_EQ(sections.bss_size, 19u);
  LayoutSpec layout;
  ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(m, layout, "t"));
  EXPECT_EQ(image.text.size(), sections.text_size);
  EXPECT_EQ(image.data.size(), sections.data_size);
  EXPECT_EQ(image.bss_size, sections.bss_size);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(image.FindSymbol(StrCat("t", i))->addr,
              image.text_base + sections.fragments[i].text);
    EXPECT_EQ(image.FindSymbol(StrCat("d", i))->addr,
              image.data_base + sections.fragments[i].data);
  }
}


TEST(ImageCodec, RoundTrip) {
  Module a = Leaf("a.o", {"_start", "main"}, {"helper"});
  Module b = Leaf("b.o", {"helper"}, {});
  auto merged = Module::Merge(a, b);
  ASSERT_TRUE(merged.ok());
  LayoutSpec layout;
  layout.entry_symbol = "_start";
  ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(*merged, layout, "prog"));
  std::vector<uint8_t> bytes = EncodeImage(image);
  ASSERT_TRUE(IsEncodedImage(bytes));
  ASSERT_OK_AND_ASSIGN(LinkedImage decoded, DecodeImage(bytes));
  EXPECT_EQ(decoded.name, image.name);
  EXPECT_EQ(decoded.text_base, image.text_base);
  EXPECT_EQ(decoded.data_base, image.data_base);
  EXPECT_EQ(decoded.entry, image.entry);
  EXPECT_EQ(decoded.text, image.text);
  EXPECT_EQ(decoded.data, image.data);
  EXPECT_EQ(decoded.symbols.size(), image.symbols.size());
}

TEST(ImageCodec, RejectsGarbageAndTruncation) {
  EXPECT_FALSE(DecodeImage({1, 2, 3}).ok());
  Module a = Leaf("a.o", {"f"}, {});
  LayoutSpec layout;
  ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(a, layout, "t"));
  std::vector<uint8_t> bytes = EncodeImage(image);
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(DecodeImage(bytes).ok());
}

}  // namespace
}  // namespace omos
