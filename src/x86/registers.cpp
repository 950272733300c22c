#include "x86/registers.h"

#include <stdexcept>

#include "util/name_table.h"

namespace comet::x86 {

namespace {

constexpr std::size_t kNumGpr = 16;
constexpr std::size_t kNumVec = 16;

const std::array<std::string_view, kNumGpr> kGpr64 = {
    "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
    "r8",  "r9",  "r10", "r11", "r12", "r13", "r14", "r15"};
const std::array<std::string_view, kNumGpr> kGpr32 = {
    "eax", "ebx", "ecx",  "edx",  "esi",  "edi",  "ebp",  "esp",
    "r8d", "r9d", "r10d", "r11d", "r12d", "r13d", "r14d", "r15d"};
const std::array<std::string_view, kNumGpr> kGpr16 = {
    "ax",  "bx",  "cx",   "dx",   "si",   "di",   "bp",   "sp",
    "r8w", "r9w", "r10w", "r11w", "r12w", "r13w", "r14w", "r15w"};
const std::array<std::string_view, kNumGpr> kGpr8 = {
    "al",  "bl",  "cl",   "dl",   "sil",  "dil",  "bpl",  "spl",
    "r8b", "r9b", "r10b", "r11b", "r12b", "r13b", "r14b", "r15b"};
const std::array<std::string_view, kNumVec> kXmm = {
    "xmm0", "xmm1", "xmm2",  "xmm3",  "xmm4",  "xmm5",  "xmm6",  "xmm7",
    "xmm8", "xmm9", "xmm10", "xmm11", "xmm12", "xmm13", "xmm14", "xmm15"};
const std::array<std::string_view, kNumVec> kYmm = {
    "ymm0", "ymm1", "ymm2",  "ymm3",  "ymm4",  "ymm5",  "ymm6",  "ymm7",
    "ymm8", "ymm9", "ymm10", "ymm11", "ymm12", "ymm13", "ymm14", "ymm15"};
// High-8 registers exist only for the first four families.
const std::array<std::string_view, 4> kGprHigh8 = {"ah", "bh", "ch", "dh"};

bool is_gpr_family(RegFamily f) {
  return static_cast<int>(f) >= static_cast<int>(RegFamily::RAX) &&
         static_cast<int>(f) <= static_cast<int>(RegFamily::R15);
}

bool is_vec_family(RegFamily f) {
  return static_cast<int>(f) >= static_cast<int>(RegFamily::XMM0) &&
         static_cast<int>(f) <= static_cast<int>(RegFamily::XMM15);
}

std::size_t gpr_index(RegFamily f) {
  return static_cast<std::size_t>(f) - static_cast<std::size_t>(RegFamily::RAX);
}

std::size_t vec_index(RegFamily f) {
  return static_cast<std::size_t>(f) -
         static_cast<std::size_t>(RegFamily::XMM0);
}

}  // namespace

RegClass reg_class(RegFamily family) {
  if (is_gpr_family(family)) return RegClass::Gpr;
  if (is_vec_family(family)) return RegClass::Vec;
  return RegClass::Flags;
}

bool is_stack_family(RegFamily family) {
  return family == RegFamily::RSP || family == RegFamily::RBP;
}

ByteRange read_range(const Reg& r) {
  if (r.high8) return {1, 2};
  return {0, static_cast<std::uint16_t>(r.width_bits / 8)};
}

ByteRange write_range(const Reg& r) {
  if (r.high8) return {1, 2};
  // 32-bit GPR writes zero-extend to 64 bits.
  if (reg_class(r) == RegClass::Gpr && r.width_bits == 32) return {0, 8};
  return {0, static_cast<std::uint16_t>(r.width_bits / 8)};
}

std::string reg_name(const Reg& r) {
  std::string out;
  append_reg_name(out, r);
  return out;
}

void append_reg_name(std::string& out, const Reg& r) {
  if (r.family == RegFamily::FLAGS) {
    out += "flags";
    return;
  }
  if (is_vec_family(r.family)) {
    const auto idx = vec_index(r.family);
    out += r.width_bits == 256 ? kYmm[idx] : kXmm[idx];
    return;
  }
  const auto idx = gpr_index(r.family);
  if (r.high8) {
    if (idx >= kGprHigh8.size()) {
      throw std::invalid_argument("reg_name: no high-8 register in family");
    }
    out += kGprHigh8[idx];
    return;
  }
  switch (r.width_bits) {
    case 64: out += kGpr64[idx]; return;
    case 32: out += kGpr32[idx]; return;
    case 16: out += kGpr16[idx]; return;
    case 8: out += kGpr8[idx]; return;
    default:
      throw std::invalid_argument("reg_name: invalid GPR width");
  }
}

std::optional<Reg> parse_reg(std::string_view name) {
  static const util::NameTable<Reg> kByName = [] {
    std::vector<std::pair<std::string_view, Reg>> names;
    for (std::size_t i = 0; i < kNumGpr; ++i) {
      const auto fam = static_cast<RegFamily>(i);
      names.emplace_back(kGpr64[i], Reg{fam, 64, false});
      names.emplace_back(kGpr32[i], Reg{fam, 32, false});
      names.emplace_back(kGpr16[i], Reg{fam, 16, false});
      names.emplace_back(kGpr8[i], Reg{fam, 8, false});
    }
    for (std::size_t i = 0; i < kGprHigh8.size(); ++i) {
      names.emplace_back(kGprHigh8[i], Reg{static_cast<RegFamily>(i), 8, true});
    }
    for (std::size_t i = 0; i < kNumVec; ++i) {
      const auto fam = static_cast<RegFamily>(
          static_cast<std::size_t>(RegFamily::XMM0) + i);
      names.emplace_back(kXmm[i], Reg{fam, 128, false});
      names.emplace_back(kYmm[i], Reg{fam, 256, false});
    }
    names.emplace_back("flags", flags_reg());
    return util::NameTable<Reg>(names);
  }();
  return kByName.find(name);
}

bool reg_exists(RegFamily family, std::uint16_t width_bits, bool high8) {
  if (family == RegFamily::FLAGS) return width_bits == 64 && !high8;
  if (is_vec_family(family)) {
    return !high8 && (width_bits == 128 || width_bits == 256);
  }
  if (high8) {
    return width_bits == 8 && gpr_index(family) < kGprHigh8.size();
  }
  return width_bits == 8 || width_bits == 16 || width_bits == 32 ||
         width_bits == 64;
}

const std::vector<RegFamily>& substitutable_gpr_families() {
  static const std::vector<RegFamily> fams = [] {
    std::vector<RegFamily> v;
    for (std::size_t i = 0; i < kNumGpr; ++i) {
      const auto fam = static_cast<RegFamily>(i);
      if (!is_stack_family(fam)) v.push_back(fam);
    }
    return v;
  }();
  return fams;
}

const std::vector<RegFamily>& vec_families() {
  static const std::vector<RegFamily> fams = [] {
    std::vector<RegFamily> v;
    for (std::size_t i = 0; i < kNumVec; ++i) {
      v.push_back(static_cast<RegFamily>(
          static_cast<std::size_t>(RegFamily::XMM0) + i));
    }
    return v;
  }();
  return fams;
}

Reg flags_reg() { return Reg{RegFamily::FLAGS, 64, false}; }

}  // namespace comet::x86
