// Operands of x86 instructions: register, memory reference, or immediate.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "x86/registers.h"

namespace comet::x86 {

/// Broad operand kind, used for signature matching during perturbation:
/// an opcode can replace another only if it accepts operands of the same
/// kinds and sizes (Section 5.2 of the paper).
enum class OperandKind : std::uint8_t { Reg, Mem, Imm };

/// Memory reference `[base + index*scale + disp]` with an access size.
struct MemOperand {
  std::optional<Reg> base;   ///< 64-bit GPR if present
  std::optional<Reg> index;  ///< 64-bit GPR if present
  std::uint8_t scale = 1;    ///< 1, 2, 4, or 8
  std::int64_t disp = 0;
  std::uint16_t size_bits = 64;  ///< access width: 8..512

  bool operator==(const MemOperand&) const = default;
};

/// Immediate constant with the width it occupies in the encoding model.
struct ImmOperand {
  std::int64_t value = 0;
  std::uint16_t size_bits = 32;

  bool operator==(const ImmOperand&) const = default;
};

/// An instruction operand.
class Operand {
 public:
  Operand() : v_(ImmOperand{}) {}
  explicit Operand(Reg r) : v_(r) {}
  explicit Operand(MemOperand m) : v_(std::move(m)) {}
  explicit Operand(ImmOperand imm) : v_(imm) {}

  static Operand reg(Reg r) { return Operand(r); }
  static Operand mem(MemOperand m) { return Operand(std::move(m)); }
  static Operand imm(std::int64_t value, std::uint16_t size_bits = 32) {
    return Operand(ImmOperand{value, size_bits});
  }

  OperandKind kind() const {
    if (std::holds_alternative<Reg>(v_)) return OperandKind::Reg;
    if (std::holds_alternative<MemOperand>(v_)) return OperandKind::Mem;
    return OperandKind::Imm;
  }
  bool is_reg() const { return kind() == OperandKind::Reg; }
  bool is_mem() const { return kind() == OperandKind::Mem; }
  bool is_imm() const { return kind() == OperandKind::Imm; }

  const Reg& as_reg() const { return std::get<Reg>(v_); }
  Reg& as_reg() { return std::get<Reg>(v_); }
  const MemOperand& as_mem() const { return std::get<MemOperand>(v_); }
  MemOperand& as_mem() { return std::get<MemOperand>(v_); }
  const ImmOperand& as_imm() const { return std::get<ImmOperand>(v_); }
  ImmOperand& as_imm() { return std::get<ImmOperand>(v_); }

  /// Data width of the operand in bits (register width / memory access
  /// width / immediate width).
  std::uint16_t size_bits() const;

  /// Intel-syntax rendering ("rax", "qword ptr [rdi + 24]", "80").
  std::string to_string() const;

  /// Append to_string() to `out` without building temporaries. Block text
  /// is the query broker's memo key, so it is built this way.
  void append_to(std::string& out) const;

  bool operator==(const Operand&) const = default;

 private:
  std::variant<Reg, MemOperand, ImmOperand> v_;
};

/// Human-readable size keyword for a memory width ("qword", "dword", ...).
std::string_view size_keyword(std::uint16_t size_bits);

/// Parse a size keyword; 0 if unknown.
std::uint16_t parse_size_keyword(std::string_view kw);

}  // namespace comet::x86
