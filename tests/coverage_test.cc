// Edge-path coverage across modules: loader corner cases, layout errors,
// kernel billing, blueprint evaluator error paths, module Bind, misc.
#include <gtest/gtest.h>

#include "src/core/server.h"
#include "src/support/strings.h"
#include "tests/helpers.h"

namespace omos {
namespace {

// ---- Link layout corner cases -------------------------------------------------

TEST(Coverage, ExplicitDataBaseOverlapRejected) {
  auto object = std::make_shared<ObjectFile>("o.o");
  object->section(SectionKind::kText).bytes.resize(kPageSize + 16);
  object->section(SectionKind::kData).bytes = {1, 2, 3, 4};
  ASSERT_OK(object->DefineSymbol("f", SymbolBinding::kGlobal, SectionKind::kText, 0));
  Module m = Module::FromObject(object);
  LayoutSpec layout;
  layout.text_base = 0x100000;
  layout.data_base = 0x100800;  // inside the text segment
  auto result = LinkImage(m, layout, "bad");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kInvalidArgument);
}

TEST(Coverage, EmptyModuleLinks) {
  Module m;
  LayoutSpec layout;
  ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(m, layout, "empty"));
  EXPECT_TRUE(image.text.empty());
  EXPECT_EQ(image.entry, 0u);
}

TEST(Coverage, PcRelRelocationAcrossFragments) {
  // callpc from one fragment to a symbol in another: displacement math.
  ASSERT_OK_AND_ASSIGN(ObjectFile a, Assemble(R"(
.text
.global _start
_start:
  callpc target
  sys 0
)", "a.o"));
  ASSERT_OK_AND_ASSIGN(ObjectFile b, Assemble(R"(
.text
.global target
target:
  movi r0, 33
  ret
)", "b.o"));
  Kernel kernel;
  Module ma = Module::FromObject(std::make_shared<const ObjectFile>(std::move(a)));
  Module mb = Module::FromObject(std::make_shared<const ObjectFile>(std::move(b)));
  ASSERT_OK_AND_ASSIGN(Module merged, Module::Merge(ma, mb));
  LayoutSpec layout;
  layout.entry_symbol = "_start";
  ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(merged, layout, "p"));
  ASSERT_OK_AND_ASSIGN(RunOutcome out, RunImage(kernel, image));
  EXPECT_EQ(out.exit_code, 33);
}

TEST(Coverage, RelocationAddendApplied) {
  // lea of symbol+8 via a manual reloc with addend.
  auto object = std::make_shared<ObjectFile>("a.o");
  ObjectFile& obj = *object;
  uint8_t insn[8] = {static_cast<uint8_t>(2 /*kMovI*/), 0, 0, 0, 0, 0, 0, 0};
  auto& text = obj.section(SectionKind::kText).bytes;
  text.insert(text.end(), insn, insn + 8);
  obj.section(SectionKind::kData).bytes.resize(16);
  ASSERT_OK(obj.DefineSymbol("d", SymbolBinding::kGlobal, SectionKind::kData, 0));
  obj.AddReloc(SectionKind::kText, Relocation{4, RelocKind::kAbs32, "d", 8, {}});
  Module m = Module::FromObject(object);
  LayoutSpec layout;
  ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(m, layout, "p"));
  uint32_t patched = static_cast<uint32_t>(image.text[4]) |
                     static_cast<uint32_t>(image.text[5]) << 8 |
                     static_cast<uint32_t>(image.text[6]) << 16 |
                     static_cast<uint32_t>(image.text[7]) << 24;
  EXPECT_EQ(patched, image.data_base + 8);
}

// ---- Module::Bind explicitly ---------------------------------------------------

TEST(Coverage, BindAfterRenameResolvesWithoutMerge) {
  ASSERT_OK_AND_ASSIGN(ObjectFile both, Assemble(R"(
.text
.global caller
caller:
  push lr
  call old_name
  pop lr
  ret
.global new_name
new_name:
  movi r0, 1
  ret
)", "both.o"));
  Module m = Module::FromObject(std::make_shared<const ObjectFile>(std::move(both)));
  // old_name is unbound; rename the reference and Bind() resolves it in
  // place — no merge required.
  Module renamed = m.Rename("^old_name$", "new_name", RenameWhich::kRefs);
  ASSERT_OK_AND_ASSIGN(const SymbolSpace* before, renamed.Space());
  EXPECT_FALSE(before->FullyBound());
  ASSERT_OK_AND_ASSIGN(Module bound, renamed.Bind());
  ASSERT_OK_AND_ASSIGN(auto unbound, bound.UnboundRefNames());
  EXPECT_TRUE(unbound.empty());

  // The bound space records that nothing is left to bind, so binding it
  // again shares it.
  ASSERT_OK_AND_ASSIGN(const SymbolSpace* space, bound.Space());
  EXPECT_TRUE(space->FullyBound());
  ASSERT_OK_AND_ASSIGN(Module again, bound.Bind());
  ASSERT_OK_AND_ASSIGN(const SymbolSpace* shared, again.Space());
  EXPECT_EQ(shared, space);
}

TEST(Coverage, UnboundReferenceWithNoExportLeavesTheSpaceFullyBound) {
  // A reference to a name nothing exports (a library's, resolved at link)
  // is no binding work: the space is fully bound and Bind shares it.
  ASSERT_OK_AND_ASSIGN(ObjectFile caller, Assemble(R"(
.text
.global caller
caller:
  push lr
  call elsewhere
  pop lr
  ret
)", "caller.o"));
  Module m = Module::FromObject(std::make_shared<const ObjectFile>(std::move(caller)));
  ASSERT_OK_AND_ASSIGN(const SymbolSpace* space, m.Space());
  EXPECT_TRUE(space->FullyBound());
  ASSERT_OK_AND_ASSIGN(Module bound, m.Bind());
  ASSERT_OK_AND_ASSIGN(const SymbolSpace* shared, bound.Space());
  EXPECT_EQ(shared, space);
  ASSERT_OK_AND_ASSIGN(auto unbound, bound.UnboundRefNames());
  EXPECT_EQ(unbound, (std::vector<std::string>{"elsewhere"}));
}

// ---- Blueprint evaluator error paths --------------------------------------------

class EvalErrors : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<OmosServer>(kernel_);
    ASSERT_OK_AND_ASSIGN(ObjectFile obj,
                         Assemble(".text\n.global f\nf: ret\n", "f.o"));
    ASSERT_OK(server_->AddFragment("/obj/f.o", std::move(obj)));
  }
  Kernel kernel_;
  std::unique_ptr<OmosServer> server_;
};

TEST_F(EvalErrors, UnknownOperation) {
  auto result = server_->EvaluateBlueprint("(frobnicate /obj/f.o)");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message().find("unknown operation"), std::string::npos);
}

TEST_F(EvalErrors, MissingStringArgument) {
  auto result = server_->EvaluateBlueprint("(restrict /obj/f.o)");
  ASSERT_FALSE(result.ok());
}

TEST_F(EvalErrors, UnknownName) {
  auto result = server_->EvaluateBlueprint("(merge /obj/missing.o)");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kNotFound);
}

TEST_F(EvalErrors, RecursiveMetaObjectDetected) {
  ASSERT_OK(server_->DefineMeta("/meta/self", "(merge /meta/self)"));
  auto result = server_->Instantiate("/meta/self", {}, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message().find("too deep"), std::string::npos);
}

TEST_F(EvalErrors, BadSourceLanguage) {
  auto result = server_->EvaluateBlueprint("(source \"fortran\" \"x\")");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kUnsupported);
}

TEST_F(EvalErrors, SourceAsmSyntaxErrorPropagates) {
  auto result = server_->EvaluateBlueprint("(source \"asm\" \"frob r99\")");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kParseError);
}

TEST_F(EvalErrors, SpecializeOnNonLibraryRejected) {
  auto result = server_->EvaluateBlueprint("(specialize \"lib-dynamic\" /obj/f.o)");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kUnsupported);
}

TEST_F(EvalErrors, ConstrainSetsHintForProgram) {
  ASSERT_OK(server_->DefineMeta("/bin/pinned", R"(
(constrain "T" 0x5000000
  (merge (source "asm" ".text\n.global _start\n_start:\n  sys 0\n")))
)"));
  ASSERT_OK_AND_ASSIGN(const CachedImage* image,
                       server_->Instantiate("/bin/pinned", {}, nullptr));
  EXPECT_EQ(image->image.text_base, 0x5000000u);
}

// ---- Kernel billing and mapping --------------------------------------------------

TEST(Coverage, MapPrivateBillsMapAndCopy) {
  Kernel kernel;
  Task& task = kernel.CreateTask("t");
  uint64_t before = task.sys_cycles();
  std::vector<uint8_t> init(kPageSize * 2, 1);
  ASSERT_OK(kernel.MapPrivate(task, 0x10000, kPageSize * 2, init, kProtRead | kProtWrite, "d"));
  uint64_t billed = task.sys_cycles() - before;
  EXPECT_EQ(billed, 2 * (kernel.costs().page_map + kernel.costs().page_copy));
}

TEST(Coverage, MapSharedBillsMapOnly) {
  Kernel kernel;
  Task& task = kernel.CreateTask("t");
  std::vector<uint8_t> bytes(kPageSize, 2);
  ASSERT_OK_AND_ASSIGN(const SegmentImage* seg, kernel.PageCachePut("k", bytes));
  uint64_t before = task.sys_cycles();
  ASSERT_OK(kernel.MapShared(task, 0x10000, *seg, kProtRead, "t"));
  EXPECT_EQ(task.sys_cycles() - before, kernel.costs().page_map);
}

TEST(Coverage, TaskExitCodePropagation) {
  Kernel kernel;
  ASSERT_OK_AND_ASSIGN(RunOutcome out, AssembleAndRun(kernel, R"(
.text
.global _start
_start:
  movi r0, 7
  sys 0
  movi r0, 9   ; never reached
  sys 0
)"));
  EXPECT_EQ(out.exit_code, 7);
}

TEST(Coverage, WriteToUnknownFdFails) {
  Kernel kernel;
  ASSERT_OK_AND_ASSIGN(RunOutcome out, AssembleAndRun(kernel, R"(
.text
.global _start
_start:
  movi r0, 42     ; not an open fd
  lea r1, msg
  movi r2, 2
  sys 1
  sys 0           ; exit(write result)
.data
msg: .ascii "xy"
)"));
  EXPECT_EQ(out.exit_code, -1);
}

// ---- Partial-image interplay with redefinition ------------------------------------

TEST(Coverage, LazyStubsOnlyForReferencedEntryPoints) {
  Kernel kernel;
  OmosServer server(kernel);
  ASSERT_OK_AND_ASSIGN(ObjectFile lib, Assemble(R"(
.text
.global used_fn
used_fn:
  movi r0, 6
  ret
.global unused_fn
unused_fn:
  movi r0, 7
  ret
)", "lib.o"));
  ASSERT_OK(server.AddFragment("/obj/lib.o", std::move(lib)));
  ASSERT_OK(server.DefineLibrary("/lib/l", "(merge /obj/lib.o)"));
  ASSERT_OK_AND_ASSIGN(ObjectFile main_obj, Assemble(R"(
.text
.global _start
_start:
  call used_fn
  sys 0
)", "m.o"));
  ASSERT_OK(server.AddFragment("/obj/m.o", std::move(main_obj)));
  ASSERT_OK(server.DefineMeta("/bin/p",
                              "(merge /obj/m.o (specialize \"lib-dynamic\" /lib/l))"));
  ASSERT_OK_AND_ASSIGN(const CachedImage* image, server.Instantiate("/bin/p", {}, nullptr));
  // "stub functions [are] generated for each referenced entry point" (§4.2):
  // only used_fn has a stub slot.
  ASSERT_EQ(image->stub_slots.size(), 1u);
  EXPECT_EQ(image->stub_slots[0].symbol, "used_fn");
}

// ---- Specialized instantiations are distinct cache entries ------------------------

TEST(Coverage, MonitorAndPlainImagesCoexist) {
  Kernel kernel;
  OmosServer server(kernel);
  ASSERT_OK_AND_ASSIGN(ObjectFile obj, Assemble(R"(
.text
.global _start
_start:
  call work
  sys 0
.global work
work:
  movi r0, 0
  ret
)", "w.o"));
  ASSERT_OK(server.AddFragment("/obj/w.o", std::move(obj)));
  ASSERT_OK(server.DefineMeta("/bin/w", "(merge /obj/w.o)"));
  ASSERT_OK_AND_ASSIGN(const CachedImage* plain, server.Instantiate("/bin/w", {}, nullptr));
  ASSERT_OK_AND_ASSIGN(const CachedImage* monitored,
                       server.Instantiate("/bin/w", Specialization{"monitor", {}}, nullptr));
  EXPECT_NE(plain->key, monitored->key);
  // The monitored image is larger (wrappers added).
  EXPECT_GT(monitored->image.text.size(), plain->image.text.size());
  EXPECT_EQ(server.cache().entry_count(), 2u);
}

// ---- SimFs + namespace normalization edge cases ------------------------------------

TEST(Coverage, NamespaceNormalization) {
  EXPECT_EQ(OmosNamespace::Normalize("lib/libc"), "/lib/libc");
  EXPECT_EQ(OmosNamespace::Normalize("//lib//libc/"), "/lib/libc");
  EXPECT_EQ(OmosNamespace::Normalize("/"), "/");
  EXPECT_EQ(OmosNamespace::Normalize(""), "/");
}

TEST(Coverage, SolverDataArenaIndependentOfText) {
  ConstraintSolver solver;
  PlacementHints hints;
  hints.text_base = 0x01000000;
  hints.data_base = 0x40000000;
  ASSERT_OK_AND_ASSIGN(PlacementRef p, solver.Place("x", 0x1000, 0x1000, hints));
  EXPECT_EQ(p->text_base(), 0x01000000u);
  EXPECT_EQ(p->data_base(), 0x40000000u);
  // Second object with only a data hint that collides spills data only.
  PlacementHints hints2;
  hints2.data_base = 0x40000000;
  ASSERT_OK_AND_ASSIGN(PlacementRef q, solver.Place("y", 0x1000, 0x1000, hints2));
  EXPECT_NE(q->data_base(), 0x40000000u);
  EXPECT_EQ(solver.conflicts().size(), 1u);
}

}  // namespace
}  // namespace omos
