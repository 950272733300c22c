// Instructions and basic blocks, plus per-instruction access semantics
// (the read/write sets the dependency multigraph is computed from).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/inline_vec.h"
#include "x86/isa.h"
#include "x86/operand.h"

namespace comet::x86 {

/// One assembly instruction: an opcode plus concrete operands.
struct Instruction {
  Opcode opcode = Opcode::NOP;
  std::vector<Operand> operands;

  /// Intel-syntax rendering ("add rcx, rax").
  std::string to_string() const;

  /// Append to_string() to `out` without building temporaries.
  void append_to(std::string& out) const;

  bool operator==(const Instruction&) const = default;
};

/// A basic block: a straight-line instruction sequence (no control flow).
struct BasicBlock {
  std::vector<Instruction> instructions;

  std::size_t size() const { return instructions.size(); }
  bool empty() const { return instructions.empty(); }

  /// Multi-line Intel-syntax rendering, one instruction per line, each
  /// ending in '\n'. These bytes are a contract: they are the remote shard
  /// client's wire payload and the anchor engine's RNG seed, and the query
  /// broker's memo key is equal for two blocks exactly when their texts
  /// are, so they must not change (tests/test_block_text_golden.cpp pins
  /// them).
  std::string to_string() const;

  bool operator==(const BasicBlock&) const = default;
};

/// Append `block`'s memo key to `out`: a compact binary form of exactly
/// the fields to_string() prints (opcode; per operand its kind, then the
/// register's printed name, the immediate's value, or the memory operand's
/// size, registers, scale when it has an index, and displacement), so two
/// blocks' keys are equal exactly when their texts are. The query broker
/// finds it by argument-dependent lookup and keys its memo with it.
void append_memo_key(const BasicBlock& block, std::string& out);

/// One register access performed by an instruction.
struct RegAccess {
  Reg reg;
  bool read = false;
  bool write = false;
};

/// The register accesses of one instruction, stored inline: the widest form
/// in the catalog (`div qword ptr [rbx + rcx*8]`: base, index and the
/// implicit rax/rdx) needs four of the eight slots.
using RegAccessList = util::InlineVec<RegAccess, 8>;

/// Explicit-memory access performed by an instruction (at most one memory
/// operand exists per instruction in this ISA subset).
struct MemAccess {
  MemOperand mem;
  bool read = false;
  bool write = false;
};

/// Full access semantics of one instruction, derived from the catalog:
/// register reads/writes (explicit operands, memory addressing registers,
/// and implicit registers), the explicit memory access if any, implicit
/// stack memory effects, and flags effects. Holds no heap memory.
struct InstSemantics {
  RegAccessList regs;
  std::optional<MemAccess> mem;
  bool stack_mem_read = false;
  bool stack_mem_write = false;
  bool reads_flags = false;
  bool writes_flags = false;
};

/// Compute the access semantics of `inst`. Throws std::invalid_argument if
/// the instruction does not match any catalog signature.
InstSemantics semantics(const Instruction& inst);

/// Is the instruction valid per the catalog (opcode accepts the operands)?
bool is_valid(const Instruction& inst);

/// Are all instructions in the block valid?
bool is_valid(const BasicBlock& block);

}  // namespace comet::x86
