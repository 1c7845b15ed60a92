// SimISA — the simulated 32-bit RISC-like instruction set.
//
// Every instruction is 8 bytes: opcode, r1, r2, r3, then a 32-bit
// little-endian immediate at offset +4. Relocations patch exactly that
// immediate field, which keeps the linker's relocation engine trivial and
// honest: kAbs32 materializes an absolute address (the self-contained
// shared-library scheme), kPcRel32 a pc-relative displacement (the PIC
// baseline). Branch/call targets are relative to the *next* instruction.
//
// Register convention: r0-r3 arguments / r0 return value, r4-r11
// callee-saved, r12 scratch, r13 stack pointer, r14 link register.
#ifndef OMOS_SRC_ISA_ISA_H_
#define OMOS_SRC_ISA_ISA_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/support/result.h"

namespace omos {

inline constexpr int kNumRegisters = 16;
inline constexpr int kRegSp = 13;
inline constexpr int kRegLr = 14;
inline constexpr uint32_t kInsnSize = 8;

enum class Opcode : uint8_t {
  kHalt = 0,
  kNop,
  // Data movement.
  kMovI,   // r1 = imm
  kMov,    // r1 = r2
  kLea,    // r1 = imm (same as MovI; used with an abs32 reloc to take an address)
  kLeaPc,  // r1 = pc_next + imm (PIC address materialization)
  // ALU, three-register.
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kAnd,
  kOr,
  kXor,
  kShl,
  kShr,
  kAddI,  // r1 = r2 + imm
  // Memory.
  kLd,    // r1 = mem32[r2 + imm]
  kSt,    // mem32[r2 + imm] = r1
  kLdB,   // r1 = mem8[r2 + imm]
  kStB,   // mem8[r2 + imm] = r1 & 0xff
  kLdPc,  // r1 = mem32[pc_next + imm] (PIC GOT load)
  // Control flow. Branch displacements are relative to pc_next.
  kBeq,   // if (r1 == r2) pc = pc_next + imm
  kBne,
  kBlt,   // signed
  kBge,   // signed
  kBltu,
  kBgeu,
  kJmp,     // pc = imm (absolute)
  kBr,      // pc = pc_next + imm
  kJmpR,    // pc = r1
  kCall,    // lr = pc_next; pc = imm (absolute)
  kCallPc,  // lr = pc_next; pc = pc_next + imm
  kCallR,   // lr = pc_next; pc = r1
  kRet,     // pc = lr
  kPush,    // sp -= 4; mem32[sp] = r1
  kPop,     // r1 = mem32[sp]; sp += 4
  kSys,     // system call; number in imm, args r0-r3, result r0
  kCount,
};

// Mnemonic for the opcode ("movi", "beq", ...), or "?" if invalid.
std::string_view OpcodeName(Opcode op);
// Reverse lookup used by the assembler; Result error on unknown mnemonic.
Result<Opcode> OpcodeFromName(std::string_view name);

struct Instruction {
  Opcode op = Opcode::kHalt;
  uint8_t r1 = 0;
  uint8_t r2 = 0;
  uint8_t r3 = 0;
  uint32_t imm = 0;

  bool operator==(const Instruction&) const = default;
};

// Serialize into 8 bytes at `out` (caller guarantees space).
void EncodeInsn(const Instruction& insn, uint8_t* out);

// The one validity rule for an encoded word: its opcode is below kCount
// and each of its registers below kNumRegisters. DecodeInsn fails exactly
// on the words it rejects, and the execution engine's page decode
// (src/engine/) marks exactly those as undecodable.
inline bool IsValidOpcode(uint8_t op) { return op < static_cast<uint8_t>(Opcode::kCount); }
inline bool IsValidInsn(const uint8_t* bytes) {
  return IsValidOpcode(bytes[0]) && bytes[1] < kNumRegisters && bytes[2] < kNumRegisters &&
         bytes[3] < kNumRegisters;
}

// Decode 8 bytes; fails on a word IsValidInsn rejects.
Result<Instruction> DecodeInsn(const uint8_t* bytes);

// "call 0x00001040" style rendering for debugging and the OFE tool.
std::string Disassemble(const Instruction& insn);

}  // namespace omos

#endif  // OMOS_SRC_ISA_ISA_H_
