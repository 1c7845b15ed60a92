// Interpreter semantics: one parameterized sweep over ALU operations
// checked against a host-computed reference, plus control-flow, memory and
// fault cases.
#include <ostream>

#include <gtest/gtest.h>

#include "src/support/strings.h"
#include "tests/helpers.h"

namespace omos {
namespace {

struct AluCase {
  const char* mnemonic;
  int32_t lhs;
  int32_t rhs;
  int32_t expected;
};

// gtest names each case (and ctest each discovered test) by the printed
// parameter; the default would print the bytes of `mnemonic`'s address.
void PrintTo(const AluCase& c, std::ostream* os) {
  *os << c.mnemonic << "(" << c.lhs << ", " << c.rhs << ") = " << c.expected;
}

class AluSemantics : public ::testing::TestWithParam<AluCase> {};

TEST_P(AluSemantics, MatchesReference) {
  const AluCase& c = GetParam();
  Kernel kernel;
  std::string source = StrCat(".text\n.global _start\n_start:\n  movi r1, ", c.lhs,
                              "\n  movi r2, ", c.rhs, "\n  ", c.mnemonic,
                              " r0, r1, r2\n  sys 0\n");
  ASSERT_OK_AND_ASSIGN(RunOutcome out, AssembleAndRun(kernel, source));
  EXPECT_EQ(out.exit_code, c.expected) << c.mnemonic << " " << c.lhs << ", " << c.rhs;
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, AluSemantics,
    ::testing::Values(AluCase{"add", 2, 3, 5}, AluCase{"add", -2, 3, 1},
                      AluCase{"add", 0x7FFFFFFF, 1, INT32_MIN},  // wraparound
                      AluCase{"sub", 3, 5, -2}, AluCase{"sub", -3, -5, 2},
                      AluCase{"mul", 7, 6, 42}, AluCase{"mul", -4, 3, -12},
                      AluCase{"div", 42, 5, 8}, AluCase{"div", -42, 5, -8},
                      AluCase{"mod", 42, 5, 2}, AluCase{"mod", -7, 3, -1},
                      AluCase{"and", 12, 10, 8}, AluCase{"or", 12, 10, 14},
                      AluCase{"xor", 12, 10, 6}, AluCase{"shl", 1, 5, 32},
                      AluCase{"shl", 1, 37, 32},  // shift count masked to 5 bits
                      AluCase{"shr", 64, 3, 8}));

struct BranchCase {
  const char* mnemonic;
  int32_t lhs;
  int32_t rhs;
  bool taken;
};

void PrintTo(const BranchCase& c, std::ostream* os) {
  *os << c.mnemonic << "(" << c.lhs << ", " << c.rhs << ") "
      << (c.taken ? "taken" : "not taken");
}

class BranchSemantics : public ::testing::TestWithParam<BranchCase> {};

TEST_P(BranchSemantics, TakenAndNotTaken) {
  const BranchCase& c = GetParam();
  Kernel kernel;
  std::string source = StrCat(".text\n.global _start\n_start:\n  movi r1, ", c.lhs,
                              "\n  movi r2, ", c.rhs, "\n  ", c.mnemonic,
                              " r1, r2, taken\n  movi r0, 0\n  sys 0\ntaken:\n  movi r0, 1\n"
                              "  sys 0\n");
  ASSERT_OK_AND_ASSIGN(RunOutcome out, AssembleAndRun(kernel, source));
  EXPECT_EQ(out.exit_code, c.taken ? 1 : 0)
      << c.mnemonic << " " << c.lhs << ", " << c.rhs;
}

INSTANTIATE_TEST_SUITE_P(
    Branches, BranchSemantics,
    ::testing::Values(BranchCase{"beq", 5, 5, true}, BranchCase{"beq", 5, 6, false},
                      BranchCase{"bne", 5, 6, true}, BranchCase{"bne", 5, 5, false},
                      BranchCase{"blt", -1, 0, true}, BranchCase{"blt", 0, -1, false},
                      BranchCase{"bge", 3, 3, true}, BranchCase{"bge", 2, 3, false},
                      // Unsigned: -1 is UINT32_MAX.
                      BranchCase{"bltu", 0, -1, true}, BranchCase{"bltu", -1, 0, false},
                      BranchCase{"bgeu", -1, 0, true}, BranchCase{"bgeu", 0, -1, false}));

TEST(Cpu, DivideByZeroFaults) {
  Kernel kernel;
  auto result = AssembleAndRun(kernel, R"(
.text
.global _start
_start:
  movi r1, 1
  movi r2, 0
  div r0, r1, r2
  sys 0
)");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kExecFault);
  EXPECT_NE(result.error().message().find("divide by zero"), std::string::npos);
}

TEST(Cpu, ModByZeroFaults) {
  Kernel kernel;
  auto result = AssembleAndRun(kernel,
                               ".text\n.global _start\n_start:\n  movi r1, 1\n  movi r2, 0\n"
                               "  mod r0, r1, r2\n  sys 0\n");
  ASSERT_FALSE(result.ok());
}

TEST(Cpu, PcRelativeAddressing) {
  Kernel kernel;
  // leapc and ldpc against a data word via pcrel relocation.
  ASSERT_OK_AND_ASSIGN(RunOutcome out, AssembleAndRun(kernel, R"(
.text
.global _start
_start:
  ldpc r0, value      ; r0 = *value
  leapc r1, value     ; r1 = &value
  ld r2, [r1+0]
  sub r0, r0, r2      ; should be 0
  sys 0
.data
.align 4
value: .word 1234
)"));
  EXPECT_EQ(out.exit_code, 0);
}

TEST(Cpu, IndirectCallAndJump) {
  Kernel kernel;
  ASSERT_OK_AND_ASSIGN(RunOutcome out, AssembleAndRun(kernel, R"(
.text
.global _start
_start:
  lea r1, target
  callr r1
  addi r0, r0, 1
  lea r1, finish
  jmpr r1
  movi r0, 99        ; skipped
finish:
  sys 0
target:
  movi r0, 10
  ret
)"));
  EXPECT_EQ(out.exit_code, 11);
}

TEST(Cpu, NestedCallsPreserveDiscipline) {
  Kernel kernel;
  ASSERT_OK_AND_ASSIGN(RunOutcome out, AssembleAndRun(kernel, R"(
.text
.global _start
_start:
  movi r0, 0
  call a
  sys 0
a:
  push lr
  addi r0, r0, 1
  call b
  addi r0, r0, 16
  pop lr
  ret
b:
  push lr
  addi r0, r0, 2
  call c
  addi r0, r0, 32
  pop lr
  ret
c:
  addi r0, r0, 4
  ret
)"));
  EXPECT_EQ(out.exit_code, 1 + 2 + 4 + 16 + 32);
}

TEST(Cpu, HaltExitsCleanly) {
  Kernel kernel;
  ASSERT_OK_AND_ASSIGN(RunOutcome out,
                       AssembleAndRun(kernel, ".text\n.global _start\n_start:\n  halt\n"));
  EXPECT_EQ(out.exit_code, 0);
}

TEST(Cpu, TouchedTextPagesTracked) {
  Kernel kernel;
  ASSERT_OK_AND_ASSIGN(ObjectFile object, Assemble(R"(
.text
.global _start
_start:
  call far
  sys 0
.space 8192
far:
  movi r0, 0
  ret
)", "far.o"));
  Module m = Module::FromObject(std::make_shared<const ObjectFile>(std::move(object)));
  LayoutSpec layout;
  layout.entry_symbol = "_start";
  ASSERT_OK_AND_ASSIGN(LinkedImage image, LinkImage(m, layout, "far"));
  Task& task = kernel.CreateTask("far");
  ASSERT_OK(MapLinkedImage(kernel, task, image, ""));
  ASSERT_OK(StartTask(kernel, task, image.entry, {}));
  ASSERT_OK(kernel.RunTask(task));
  EXPECT_GE(task.touched_text_pages(), 2u);  // entry page + far page
}

}  // namespace
}  // namespace omos
