// Unit tests for the assembler: directives, operands, labels, relocations,
// and error reporting with line numbers.
#include <ostream>

#include <gtest/gtest.h>

#include "src/isa/isa.h"
#include "src/vasm/assembler.h"
#include "tests/helpers.h"

namespace omos {
namespace {

Instruction FirstInsn(const ObjectFile& object) {
  auto result = DecodeInsn(object.section(SectionKind::kText).bytes.data());
  EXPECT_TRUE(result.ok());
  return result.value_or(Instruction{});
}

TEST(Assembler, EmptyInput) {
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble("", "empty.o"));
  EXPECT_EQ(object.TotalSize(), 0u);
}

TEST(Assembler, CommentsIgnored) {
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(R"(
; full line comment
.text
  nop ; trailing comment
  nop # hash comment
)", "c.o"));
  EXPECT_EQ(object.section(SectionKind::kText).size(), 2 * kInsnSize);
}

TEST(Assembler, SemicolonInsideStringNotAComment) {
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(".data\ns: .asciiz \"a;b\"\n", "s.o"));
  const auto& data = object.section(SectionKind::kData).bytes;
  EXPECT_EQ(std::string(data.begin(), data.end()), std::string("a;b\0", 4));
}

TEST(Assembler, RegisterAliases) {
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(".text\n  mov sp, lr\n", "r.o"));
  Instruction insn = FirstInsn(object);
  EXPECT_EQ(insn.r1, kRegSp);
  EXPECT_EQ(insn.r2, kRegLr);
}

TEST(Assembler, NumericLiterals) {
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(R"(
.text
  movi r0, 0x10
  movi r1, -5
  movi r2, 'A'
  movi r3, '\n'
)", "n.o"));
  const auto& text = object.section(SectionKind::kText).bytes;
  EXPECT_EQ(DecodeInsn(text.data())->imm, 0x10u);
  EXPECT_EQ(DecodeInsn(text.data() + 8)->imm, static_cast<uint32_t>(-5));
  EXPECT_EQ(DecodeInsn(text.data() + 16)->imm, static_cast<uint32_t>('A'));
  EXPECT_EQ(DecodeInsn(text.data() + 24)->imm, static_cast<uint32_t>('\n'));
}

TEST(Assembler, MemoryOperandForms) {
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(R"(
.text
  ld r0, [r1]
  ld r0, [r1+8]
  ld r0, [r1-8]
  ld r0, [r11+-4]
)", "m.o"));
  const auto& text = object.section(SectionKind::kText).bytes;
  EXPECT_EQ(static_cast<int32_t>(DecodeInsn(text.data())->imm), 0);
  EXPECT_EQ(static_cast<int32_t>(DecodeInsn(text.data() + 8)->imm), 8);
  EXPECT_EQ(static_cast<int32_t>(DecodeInsn(text.data() + 16)->imm), -8);
  EXPECT_EQ(static_cast<int32_t>(DecodeInsn(text.data() + 24)->imm), -4);
}

TEST(Assembler, LabelsBecomeLocalSymbols) {
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(R"(
.text
start:
  nop
here:
  nop
)", "l.o"));
  const Symbol* here = object.FindSymbol("here");
  ASSERT_NE(here, nullptr);
  EXPECT_EQ(here->binding, SymbolBinding::kLocal);
  EXPECT_EQ(here->value, kInsnSize);
}

TEST(Assembler, GlobalAndWeakDirectives) {
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(R"(
.text
.global f
f: nop
.weak g
g: nop
)", "g.o"));
  EXPECT_EQ(object.FindSymbol("f")->binding, SymbolBinding::kGlobal);
  EXPECT_EQ(object.FindSymbol("g")->binding, SymbolBinding::kWeak);
}

TEST(Assembler, ExportAndHiddenDirectives) {
  // Visibility is orthogonal to binding: .export/.hidden annotate without
  // touching .global/.weak.
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(R"(
.text
.global api
.export api
api: nop
.global helper
.hidden helper
helper: nop
.global plain
plain: nop
)", "v.o"));
  EXPECT_EQ(object.FindSymbol("api")->visibility, SymbolVisibility::kExported);
  EXPECT_EQ(object.FindSymbol("api")->binding, SymbolBinding::kGlobal);
  EXPECT_EQ(object.FindSymbol("helper")->visibility, SymbolVisibility::kHidden);
  EXPECT_EQ(object.FindSymbol("helper")->binding, SymbolBinding::kGlobal);
  EXPECT_EQ(object.FindSymbol("plain")->visibility, SymbolVisibility::kDefault);
  EXPECT_FALSE(object.default_hidden());
  EXPECT_TRUE(object.IsEffectivelyHidden(*object.FindSymbol("helper")));
  EXPECT_FALSE(object.IsEffectivelyHidden(*object.FindSymbol("plain")));
}

TEST(Assembler, DefaultHiddenDirective) {
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(R"(
.default_hidden
.text
.global api
.export api
api: nop
.global internal
internal: nop
)", "dh.o"));
  EXPECT_TRUE(object.default_hidden());
  // Unannotated globals flip to hidden; explicit exports stay visible.
  EXPECT_TRUE(object.IsEffectivelyHidden(*object.FindSymbol("internal")));
  EXPECT_FALSE(object.IsEffectivelyHidden(*object.FindSymbol("api")));
}

TEST(Assembler, ExportOfUndefinedLabelFails) {
  auto result = Assemble(".text\n.export ghost\n  nop\n", "bad.o");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message().find("ghost"), std::string::npos);
}

TEST(Assembler, SymbolOperandsEmitRelocations) {
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(R"(
.text
  call external_fn      ; abs32
  callpc external_fn    ; pcrel32
  lea r0, buffer        ; abs32
  leapc r0, buffer      ; pcrel32
.bss
buffer: .space 4
)", "r.o"));
  const auto& relocs = object.section(SectionKind::kText).relocs;
  ASSERT_EQ(relocs.size(), 4u);
  EXPECT_EQ(relocs[0].kind, RelocKind::kAbs32);
  EXPECT_EQ(relocs[0].offset, 4u);  // imm field of insn 0
  EXPECT_EQ(relocs[1].kind, RelocKind::kPcRel32);
  EXPECT_EQ(relocs[2].kind, RelocKind::kAbs32);
  EXPECT_EQ(relocs[3].kind, RelocKind::kPcRel32);
  // external_fn became an undefined symbol; buffer a local defined one.
  EXPECT_FALSE(object.FindSymbol("external_fn")->defined);
  EXPECT_TRUE(object.FindSymbol("buffer")->defined);
}

TEST(Assembler, WordDirectiveWithSymbol) {
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(R"(
.data
table: .word 7, target, 9
.text
target: nop
)", "w.o"));
  const auto& data = object.section(SectionKind::kData);
  EXPECT_EQ(data.bytes.size(), 12u);
  ASSERT_EQ(data.relocs.size(), 1u);
  EXPECT_EQ(data.relocs[0].offset, 4u);
  EXPECT_EQ(data.relocs[0].symbol, "target");
}

TEST(Assembler, ByteAsciiSpaceAlign) {
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(R"(
.data
b: .byte 1, 2, 255
s: .ascii "ab"
z: .asciiz "cd"
.align 8
w: .word 5
.bss
.align 16
buf: .space 100
)", "d.o"));
  const auto& data = object.section(SectionKind::kData).bytes;
  // 3 bytes + "ab" + "cd\0" = 8 bytes, aligned to 8 -> word at offset 8.
  EXPECT_EQ(object.FindSymbol("w")->value, 8u);
  EXPECT_EQ(data.size(), 12u);
  EXPECT_EQ(data[2], 255);
  EXPECT_EQ(object.FindSymbol("buf")->value, 0u);
  EXPECT_EQ(object.section(SectionKind::kBss).bss_size, 100u);
}

TEST(Assembler, BssSymbolOffsets) {
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(R"(
.bss
a: .space 8
b: .space 4
c: .space 4
)", "b.o"));
  EXPECT_EQ(object.FindSymbol("a")->value, 0u);
  EXPECT_EQ(object.FindSymbol("b")->value, 8u);
  EXPECT_EQ(object.FindSymbol("c")->value, 12u);
  EXPECT_EQ(object.section(SectionKind::kBss).bss_size, 16u);
}

// ---- Error cases, all carrying line numbers ----------------------------------

struct ErrorCase {
  const char* name;
  const char* source;
  const char* expect_substring;
};

// Printed after the case name in the test listing; the default would print
// the bytes of the three pointers.
void PrintTo(const ErrorCase& c, std::ostream* os) { *os << c.expect_substring; }

class AssemblerErrors : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(AssemblerErrors, ReportsLineAndReason) {
  auto result = Assemble(GetParam().source, "err.o");
  ASSERT_FALSE(result.ok()) << "expected failure";
  EXPECT_EQ(result.error().code(), ErrorCode::kParseError);
  EXPECT_NE(result.error().message().find(GetParam().expect_substring), std::string::npos)
      << result.error().message();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AssemblerErrors,
    ::testing::Values(
        ErrorCase{"unknown_mnemonic", ".text\n  frob r0\n", "unknown mnemonic"},
        ErrorCase{"bad_operand_count", ".text\n  add r0, r1\n", "expects 3 operands"},
        ErrorCase{"register_wanted", ".text\n  mov 5, r1\n", "must be a register"},
        ErrorCase{"duplicate_label", ".text\nx: nop\nx: nop\n", "duplicate label"},
        ErrorCase{"insn_in_data", ".data\n  nop\n", "instruction outside .text"},
        ErrorCase{"unknown_directive", ".wibble 4\n", "unknown directive"},
        ErrorCase{"bad_space", ".data\n.space banana\n", "bad .space"},
        ErrorCase{"global_undefined", ".text\n.global nothing\n", "undefined label"},
        ErrorCase{"data_in_bss", ".bss\n.word 4\n", "only .space allowed in .bss"},
        ErrorCase{"bad_mem", ".text\n  ld r0, [5]\n", "bad base register"}),
    [](const ::testing::TestParamInfo<ErrorCase>& info) { return info.param.name; });

TEST(Assembler, ErrorMessagesIncludeLineNumbers) {
  auto result = Assemble(".text\n  nop\n  frob\n", "lines.o");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message().find("lines.o:3:"), std::string::npos)
      << result.error().message();
}

}  // namespace
}  // namespace omos
