#include "x86/instruction.h"

#include <stdexcept>

namespace comet::x86 {

std::string Instruction::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void Instruction::append_to(std::string& out) const {
  out += mnemonic(opcode);
  for (std::size_t i = 0; i < operands.size(); ++i) {
    out += (i == 0 ? " " : ", ");
    operands[i].append_to(out);
  }
}

std::string BasicBlock::to_string() const {
  // Rendered into a per-thread buffer and copied out once: one allocation
  // of exactly the text's length, where a string grown by appending would
  // reallocate as it doubles. The remote shard client keeps one per block
  // of a request.
  thread_local std::string buffer;
  buffer.clear();
  for (const auto& inst : instructions) {
    inst.append_to(buffer);
    buffer += '\n';
  }
  return buffer;
}

namespace {

/// Append the bytes of a trivially copyable value.
template <typename T>
void append_bytes(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// A register as the two things append_reg_name reads: its family and
/// which of the family's names it picks (flags has one name, a vector
/// family two, a GPR one per width plus the high-8 name).
void append_reg_key(std::string& out, const Reg& r) {
  char form = 0;
  if (reg_class(r) == RegClass::Vec) {
    form = r.width_bits == 256;
  } else if (reg_class(r) == RegClass::Gpr) {
    form = r.high8 ? char(-1) : static_cast<char>(r.width_bits / 8);
  }
  out += static_cast<char>(r.family);
  out += form;
}

void append_operand_key(std::string& out, const Operand& op) {
  out += static_cast<char>(op.kind());
  switch (op.kind()) {
    case OperandKind::Reg:
      append_reg_key(out, op.as_reg());
      return;
    case OperandKind::Imm:
      append_bytes(out, op.as_imm().value);  // its width is not printed
      return;
    case OperandKind::Mem: {
      const MemOperand& m = op.as_mem();
      append_bytes(out, m.size_bits);
      // "[rax]" is printed both for a base and for an index at scale 1.
      const bool index_as_base = !m.base && m.index && m.scale == 1;
      const std::optional<Reg>& base = index_as_base ? m.index : m.base;
      const bool has_index = m.index && !index_as_base;
      out += static_cast<char>(base.has_value() | has_index << 1);
      if (base) append_reg_key(out, *base);
      if (has_index) {
        append_reg_key(out, *m.index);
        out += static_cast<char>(m.scale);  // printed only beside an index
      }
      append_bytes(out, m.disp);
      return;
    }
  }
}

}  // namespace

void append_memo_key(const BasicBlock& block, std::string& out) {
  for (const auto& inst : block.instructions) {
    append_bytes(out, inst.opcode);
    out += static_cast<char>(inst.operands.size());
    for (const auto& op : inst.operands) append_operand_key(out, op);
  }
}

namespace {

void merge_reg_access(RegAccessList& regs, Reg r, bool read, bool write) {
  for (auto& a : regs) {
    if (a.reg == r) {
      a.read |= read;
      a.write |= write;
      return;
    }
  }
  regs.push_back(RegAccess{r, read, write});
}

}  // namespace

InstSemantics semantics(const Instruction& inst) {
  const auto& inf = info(inst.opcode);
  const Signature* sig = find_signature(inst.opcode, inst.operands);
  if (sig == nullptr) {
    throw std::invalid_argument("semantics: invalid instruction: " +
                                inst.to_string());
  }
  InstSemantics out;
  out.reads_flags = inf.reads_flags;
  out.writes_flags = inf.writes_flags;
  out.stack_mem_read = inf.stack_mem_read;
  out.stack_mem_write = inf.stack_mem_write;

  for (std::size_t i = 0; i < inst.operands.size(); ++i) {
    const auto& op = inst.operands[i];
    const auto access = sig->slots[i].access;
    const bool rd = (access & kRead) != 0;
    const bool wr = (access & kWrite) != 0;
    switch (op.kind()) {
      case OperandKind::Reg:
        merge_reg_access(out.regs, op.as_reg(), rd, wr);
        break;
      case OperandKind::Mem: {
        // Address registers are always read, even for stores.
        const MemOperand& m = op.as_mem();
        if (m.base) merge_reg_access(out.regs, *m.base, true, false);
        if (m.index) merge_reg_access(out.regs, *m.index, true, false);
        if (!inf.address_only_mem && (rd || wr)) {
          out.mem = MemAccess{op.as_mem(), rd, wr};
        }
        break;
      }
      case OperandKind::Imm:
        break;
    }
  }

  const std::uint16_t op0_width =
      inst.operands.empty() ? 64 : inst.operands[0].size_bits();
  for (const auto& imp : sig->implicit) {
    const std::uint16_t w = imp.fixed_width ? imp.fixed_width : op0_width;
    merge_reg_access(out.regs, Reg{imp.family, w, false}, imp.read, imp.write);
  }
  return out;
}

bool is_valid(const Instruction& inst) {
  return find_signature(inst.opcode, inst.operands) != nullptr;
}

bool is_valid(const BasicBlock& block) {
  for (const auto& inst : block.instructions) {
    if (!is_valid(inst)) return false;
  }
  return true;
}

}  // namespace comet::x86
