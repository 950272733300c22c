// RISC-V RV64IM substrate: the paper's Section 7 extension path.
//
// "COMET can be extended to other open-source ISAs ... by mapping the
// current perturbation algorithm to the new ISA. We need to define the
// opcodes (operands) that could replace each opcode (operand) to generate
// a valid perturbation. While the high-level formalism can be carried
// over, instance-specific challenges can arise."
//
// This module carries the formalism over to RV64IM and meets exactly those
// requirements: a catalog of ~45 opcodes grouped by encoding format (which
// defines the opcode-replacement sets), register semantics including the
// hardwired-zero x0 (the promised instance-specific challenge: writes to
// x0 are discarded, so they carry no dependency), a parser for standard
// assembly, and read/write semantics for dependency extraction.
//
// RISC-V's regularity makes the mapping crisp: every opcode of a format
// accepts exactly the operands of that format, so the replacement relation
// is format-equality — contrast x86, where replacement requires per-opcode
// signature matching.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace comet::riscv {

// X-macro: name, mnemonic, format, class.
#define COMET_RV_OPCODES(X)                                          \
  /* R-type integer ALU */                                           \
  X(ADD, add, R, IntAlu) X(SUB, sub, R, IntAlu)                      \
  X(AND, and, R, IntAlu) X(OR, or, R, IntAlu) X(XOR, xor, R, IntAlu) \
  X(SLL, sll, R, IntAlu) X(SRL, srl, R, IntAlu) X(SRA, sra, R, IntAlu) \
  X(SLT, slt, R, IntAlu) X(SLTU, sltu, R, IntAlu)                    \
  X(ADDW, addw, R, IntAlu) X(SUBW, subw, R, IntAlu)                  \
  X(SLLW, sllw, R, IntAlu) X(SRLW, srlw, R, IntAlu)                  \
  X(SRAW, sraw, R, IntAlu)                                           \
  /* R-type multiply / divide (M extension) */                       \
  X(MUL, mul, R, IntMul) X(MULH, mulh, R, IntMul)                    \
  X(MULHU, mulhu, R, IntMul) X(MULW, mulw, R, IntMul)                \
  X(DIV, div, R, IntDiv) X(DIVU, divu, R, IntDiv)                    \
  X(REM, rem, R, IntDiv) X(REMU, remu, R, IntDiv)                    \
  X(DIVW, divw, R, IntDiv) X(REMW, remw, R, IntDiv)                  \
  /* I-type ALU-with-immediate */                                    \
  X(ADDI, addi, I, IntAlu) X(ANDI, andi, I, IntAlu)                  \
  X(ORI, ori, I, IntAlu) X(XORI, xori, I, IntAlu)                    \
  X(SLTI, slti, I, IntAlu) X(SLTIU, sltiu, I, IntAlu)                \
  X(SLLI, slli, I, IntAlu) X(SRLI, srli, I, IntAlu)                  \
  X(SRAI, srai, I, IntAlu) X(ADDIW, addiw, I, IntAlu)                \
  /* U-type */                                                       \
  X(LUI, lui, U, IntAlu)                                             \
  /* loads */                                                        \
  X(LD, ld, Load, Load) X(LW, lw, Load, Load) X(LWU, lwu, Load, Load) \
  X(LH, lh, Load, Load) X(LHU, lhu, Load, Load)                      \
  X(LB, lb, Load, Load) X(LBU, lbu, Load, Load)                      \
  /* stores */                                                       \
  X(SD, sd, Store, Store) X(SW, sw, Store, Store)                    \
  X(SH, sh, Store, Store) X(SB, sb, Store, Store)

enum class Opcode : std::uint8_t {
#define COMET_RV_ENUM(name, mn, fmt, cls) name,
  COMET_RV_OPCODES(COMET_RV_ENUM)
#undef COMET_RV_ENUM
      kCount,
};
constexpr std::size_t kNumOpcodes = static_cast<std::size_t>(Opcode::kCount);

/// Encoding format — determines the operand shape and therefore the
/// opcode-replacement sets of the perturbation algorithm.
enum class Format : std::uint8_t {
  R,      ///< op rd, rs1, rs2
  I,      ///< op rd, rs1, imm
  U,      ///< op rd, imm
  Load,   ///< op rd, imm(rs1)
  Store,  ///< op rs2, imm(rs1)
};

/// Cost class, used by the analytical RV cost model.
enum class RvClass : std::uint8_t { IntAlu, IntMul, IntDiv, Load, Store };

struct OpcodeInfo {
  Opcode op;
  std::string_view mnemonic;
  Format format;
  RvClass cls;
};

const OpcodeInfo& info(Opcode op);
std::string_view mnemonic(Opcode op);
std::optional<Opcode> parse_opcode(std::string_view mnemonic);
std::span<const Opcode> all_opcodes();

/// All opcodes of the same format other than `op` — the replacement
/// candidate set (the Section 7 requirement, answered by format equality).
std::span<const Opcode> replacement_opcodes(Opcode op);

// ---------------------------------------------------------------------------
// Registers: x0..x31 with ABI names. x0 is hardwired to zero.

struct Reg {
  std::uint8_t index = 0;  // 0..31
  auto operator<=>(const Reg&) const = default;
};

inline constexpr Reg kZero{0};

/// ABI name ("a0", "sp", "t3", ...).
std::string_view reg_name(Reg r);
std::optional<Reg> parse_reg(std::string_view name);

// ---------------------------------------------------------------------------
// Instructions and blocks. The operand shape is fixed by the format, so an
// instruction is a flat record rather than an operand vector.

struct Instruction {
  Opcode opcode = Opcode::ADD;
  Reg rd{};         // R, I, U, Load
  Reg rs1{};        // R, I, Load (address base), Store (address base)
  Reg rs2{};        // R, Store (data source)
  std::int64_t imm = 0;  // I, U, Load/Store offset

  std::string to_string() const;
  bool operator==(const Instruction&) const = default;
};

struct BasicBlock {
  std::vector<Instruction> instructions;
  std::size_t size() const { return instructions.size(); }
  bool empty() const { return instructions.empty(); }
  std::string to_string() const;
  bool operator==(const BasicBlock&) const = default;
};

/// Append `block`'s memo key to `out`: a compact binary form of exactly
/// the fields to_string() prints (the opcode, then the registers and
/// immediate its format prints), so two blocks' keys are equal exactly
/// when their texts are. The query broker finds it by argument-dependent
/// lookup and keys its memo with it.
void append_memo_key(const BasicBlock& block, std::string& out);

/// Registers read / written by `inst`. Writes to x0 are discarded by the
/// hardware and therefore reported as no write at all; reads of x0 carry
/// no dependency and are likewise omitted.
struct RvSemantics {
  std::vector<Reg> reads;
  std::optional<Reg> write;
  bool mem_read = false;
  bool mem_write = false;
};
RvSemantics semantics(const Instruction& inst);

/// Immediate-range and operand validity for the instruction's format.
bool is_valid(const Instruction& inst);
bool is_valid(const BasicBlock& block);

}  // namespace comet::riscv
