// x86-64 register model.
//
// A register is a (family, width, high8) triple: `eax` is {RAX, 32, false},
// `ah` is {RAX, 8, true}. This representation makes sub-register aliasing
// (the thing dependency analysis actually needs) a byte-range intersection
// test instead of a 100-entry alias table, and makes "rename this operand to
// another register of the same type and size" (the thing the perturbation
// algorithm Γ needs) a family substitution.
//
// Width semantics follow hardware: a 32-bit GPR write zeroes the upper half
// of the 64-bit register, so for dependency purposes a 32-bit write covers
// bytes [0, 8). 8/16-bit writes are partial (they merge with the old value);
// the dependency graph treats them as covering only their own bytes, which
// is the standard approximation used by basic-block cost models.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace comet::x86 {

/// Register families. A family is the full architectural register; the
/// addressable sub-registers are (family, width) pairs.
enum class RegFamily : std::uint8_t {
  RAX, RBX, RCX, RDX, RSI, RDI, RBP, RSP,
  R8, R9, R10, R11, R12, R13, R14, R15,
  XMM0, XMM1, XMM2, XMM3, XMM4, XMM5, XMM6, XMM7,
  XMM8, XMM9, XMM10, XMM11, XMM12, XMM13, XMM14, XMM15,
  FLAGS,
  kCount,
};

/// A set of register families, one bit per family.
using FamilyMask = std::uint64_t;
static_assert(static_cast<std::size_t>(RegFamily::kCount) <= 64,
              "FamilyMask needs one bit per register family");

/// The set holding only `f`.
constexpr FamilyMask family_bit(RegFamily f) {
  return FamilyMask{1} << static_cast<unsigned>(f);
}

/// Broad register class: general-purpose, vector, or the flags pseudo-reg.
enum class RegClass : std::uint8_t { Gpr, Vec, Flags };

/// A concrete architectural register (possibly a sub-register).
struct Reg {
  RegFamily family = RegFamily::RAX;
  std::uint16_t width_bits = 64;  ///< 8, 16, 32, 64 (GPR); 128, 256 (vec)
  bool high8 = false;             ///< true only for ah/bh/ch/dh

  auto operator<=>(const Reg&) const = default;
};

/// Class of a family.
RegClass reg_class(RegFamily family);
inline RegClass reg_class(const Reg& r) { return reg_class(r.family); }

/// True for rsp/rbp families (excluded from random operand pools so
/// perturbations do not fabricate stack corruption semantics).
bool is_stack_family(RegFamily family);

/// Byte range [begin, end) that reading `r` covers within its family.
struct ByteRange {
  std::uint16_t begin = 0;
  std::uint16_t end = 0;
  bool overlaps(const ByteRange& o) const {
    return begin < o.end && o.begin < end;
  }
};
ByteRange read_range(const Reg& r);

/// Byte range a *write* to `r` covers. Differs from read_range only for
/// 32-bit GPR writes, which zero-extend and therefore cover the full 8 bytes.
ByteRange write_range(const Reg& r);

/// Canonical Intel-syntax name ("rax", "eax", "ah", "xmm3", ...).
std::string reg_name(const Reg& r);

/// Append reg_name(r) to `out` without building a temporary string.
void append_reg_name(std::string& out, const Reg& r);

/// Parse an Intel-syntax register name; nullopt if not a register.
std::optional<Reg> parse_reg(std::string_view name);

/// Whether (family, width, high8) designates a register that exists.
bool reg_exists(RegFamily family, std::uint16_t width_bits, bool high8);

/// GPR families safe for random substitution (excludes RSP and RBP).
const std::vector<RegFamily>& substitutable_gpr_families();

/// All vector families xmm0..xmm15.
const std::vector<RegFamily>& vec_families();

/// The flags pseudo-register.
Reg flags_reg();

}  // namespace comet::x86
