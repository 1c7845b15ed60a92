#include "src/isa/isa.h"

#include <array>

#include "src/support/strings.h"

namespace omos {

namespace {

constexpr std::array<std::string_view, static_cast<size_t>(Opcode::kCount)> kNames = {
    "halt", "nop",  "movi", "mov",  "lea",  "leapc", "add",  "sub",   "mul",  "div",
    "mod",  "and",  "or",   "xor",  "shl",  "shr",   "addi", "ld",    "st",   "ldb",
    "stb",  "ldpc", "beq",  "bne",  "blt",  "bge",   "bltu", "bgeu",  "jmp",  "br",
    "jmpr", "call", "callpc", "callr", "ret", "push", "pop",  "sys",
};
static_assert(kNames.size() == static_cast<size_t>(Opcode::kCount));

enum class Shape { kNone, kR1, kR1R2, kR1R2R3, kImm, kR1Imm, kR1R2Imm, kMem, kBranch };

Shape OpShape(Opcode op) {
  switch (op) {
    case Opcode::kHalt:
    case Opcode::kNop:
    case Opcode::kRet:
      return Shape::kNone;
    case Opcode::kJmpR:
    case Opcode::kCallR:
    case Opcode::kPush:
    case Opcode::kPop:
      return Shape::kR1;
    case Opcode::kMov:
      return Shape::kR1R2;
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kMod:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kShr:
      return Shape::kR1R2R3;
    case Opcode::kJmp:
    case Opcode::kBr:
    case Opcode::kCall:
    case Opcode::kCallPc:
    case Opcode::kSys:
      return Shape::kImm;
    case Opcode::kMovI:
    case Opcode::kLea:
    case Opcode::kLeaPc:
    case Opcode::kLdPc:
      return Shape::kR1Imm;
    case Opcode::kAddI:
      return Shape::kR1R2Imm;
    case Opcode::kLd:
    case Opcode::kSt:
    case Opcode::kLdB:
    case Opcode::kStB:
      return Shape::kMem;
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBltu:
    case Opcode::kBgeu:
      return Shape::kBranch;
    case Opcode::kCount:
      break;
  }
  return Shape::kNone;
}

}  // namespace

std::string_view OpcodeName(Opcode op) {
  auto index = static_cast<size_t>(op);
  return index < kNames.size() ? kNames[index] : "?";
}

Result<Opcode> OpcodeFromName(std::string_view name) {
  for (size_t i = 0; i < kNames.size(); ++i) {
    if (kNames[i] == name) {
      return static_cast<Opcode>(i);
    }
  }
  return Err(ErrorCode::kParseError, StrCat("unknown mnemonic '", name, "'"));
}

void EncodeInsn(const Instruction& insn, uint8_t* out) {
  out[0] = static_cast<uint8_t>(insn.op);
  out[1] = insn.r1;
  out[2] = insn.r2;
  out[3] = insn.r3;
  out[4] = static_cast<uint8_t>(insn.imm);
  out[5] = static_cast<uint8_t>(insn.imm >> 8);
  out[6] = static_cast<uint8_t>(insn.imm >> 16);
  out[7] = static_cast<uint8_t>(insn.imm >> 24);
}

Result<Instruction> DecodeInsn(const uint8_t* bytes) {
  if (!IsValidInsn(bytes)) {
    if (!IsValidOpcode(bytes[0])) {
      return Err(ErrorCode::kExecFault, StrCat("illegal opcode ", static_cast<int>(bytes[0])));
    }
    return Err(ErrorCode::kExecFault, "register index out of range");
  }
  Instruction insn;
  insn.op = static_cast<Opcode>(bytes[0]);
  insn.r1 = bytes[1];
  insn.r2 = bytes[2];
  insn.r3 = bytes[3];
  insn.imm = static_cast<uint32_t>(bytes[4]) | static_cast<uint32_t>(bytes[5]) << 8 |
             static_cast<uint32_t>(bytes[6]) << 16 | static_cast<uint32_t>(bytes[7]) << 24;
  return insn;
}

std::string Disassemble(const Instruction& insn) {
  std::string name(OpcodeName(insn.op));
  auto reg = [](uint8_t r) { return StrCat("r", static_cast<int>(r)); };
  switch (OpShape(insn.op)) {
    case Shape::kNone:
      return name;
    case Shape::kR1:
      return StrCat(name, " ", reg(insn.r1));
    case Shape::kR1R2:
      return StrCat(name, " ", reg(insn.r1), ", ", reg(insn.r2));
    case Shape::kR1R2R3:
      return StrCat(name, " ", reg(insn.r1), ", ", reg(insn.r2), ", ", reg(insn.r3));
    case Shape::kImm:
      return StrCat(name, " ", Hex32(insn.imm));
    case Shape::kR1Imm:
      return StrCat(name, " ", reg(insn.r1), ", ", Hex32(insn.imm));
    case Shape::kR1R2Imm:
      return StrCat(name, " ", reg(insn.r1), ", ", reg(insn.r2), ", ",
                    static_cast<int32_t>(insn.imm));
    case Shape::kMem:
      return StrCat(name, " ", reg(insn.r1), ", [", reg(insn.r2), "+",
                    static_cast<int32_t>(insn.imm), "]");
    case Shape::kBranch:
      return StrCat(name, " ", reg(insn.r1), ", ", reg(insn.r2), ", ",
                    static_cast<int32_t>(insn.imm));
  }
  return name;
}

}  // namespace omos
