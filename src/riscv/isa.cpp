#include "riscv/isa.h"

#include <array>
#include <unordered_map>

#include "util/str.h"

namespace comet::riscv {

namespace {

constexpr std::array<OpcodeInfo, kNumOpcodes> kCatalog = {{
#define COMET_RV_INFO(name, mn, fmt, cls) \
  OpcodeInfo{Opcode::name, #mn, Format::fmt, RvClass::cls},
    COMET_RV_OPCODES(COMET_RV_INFO)
#undef COMET_RV_INFO
}};

constexpr std::array<std::string_view, 32> kAbiNames = {
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0",
    "a1",   "a2", "a3", "a4", "a5", "t3", "t4", "t5", "t6", "s2", "s3",
    "s4",   "s5", "s6", "s7", "s8", "s9", "s10", "s11", "a6", "a7"};
// Note: index here is a presentation order; the canonical mapping below
// assigns each ABI name its architectural register number.

struct AbiEntry {
  std::string_view name;
  std::uint8_t index;
};
constexpr std::array<AbiEntry, 33> kAbiMap = {{
    {"zero", 0}, {"ra", 1},  {"sp", 2},   {"gp", 3},   {"tp", 4},
    {"t0", 5},   {"t1", 6},  {"t2", 7},   {"s0", 8},   {"fp", 8},
    {"s1", 9},   {"a0", 10}, {"a1", 11},  {"a2", 12},  {"a3", 13},
    {"a4", 14},  {"a5", 15}, {"a6", 16},  {"a7", 17},  {"s2", 18},
    {"s3", 19},  {"s4", 20}, {"s5", 21},  {"s6", 22},  {"s7", 23},
    {"s8", 24},  {"s9", 25}, {"s10", 26}, {"s11", 27}, {"t3", 28},
    {"t4", 29},  {"t5", 30}, {"t6", 31},
}};

bool imm_fits(std::int64_t v, int bits) {
  const std::int64_t lo = -(std::int64_t{1} << (bits - 1));
  const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
  return v >= lo && v <= hi;
}

}  // namespace

const OpcodeInfo& info(Opcode op) {
  return kCatalog[static_cast<std::size_t>(op)];
}

std::string_view mnemonic(Opcode op) { return info(op).mnemonic; }

std::optional<Opcode> parse_opcode(std::string_view mn) {
  static const std::unordered_map<std::string, Opcode> kByName = [] {
    std::unordered_map<std::string, Opcode> m;
    for (const auto& e : kCatalog) m[std::string(e.mnemonic)] = e.op;
    return m;
  }();
  const auto it = kByName.find(util::to_lower(mn));
  if (it == kByName.end()) return std::nullopt;
  return it->second;
}

std::span<const Opcode> all_opcodes() {
  static const std::vector<Opcode> kAll = [] {
    std::vector<Opcode> v;
    for (std::size_t i = 0; i < kNumOpcodes; ++i) {
      v.push_back(static_cast<Opcode>(i));
    }
    return v;
  }();
  return kAll;
}

std::span<const Opcode> replacement_opcodes(Opcode op) {
  static const std::array<std::vector<Opcode>, kNumOpcodes> kByOpcode = [] {
    std::array<std::vector<Opcode>, kNumOpcodes> table;
    for (std::size_t i = 0; i < kNumOpcodes; ++i) {
      const auto fmt = kCatalog[i].format;
      for (std::size_t j = 0; j < kNumOpcodes; ++j) {
        if (i != j && kCatalog[j].format == fmt) {
          table[i].push_back(static_cast<Opcode>(j));
        }
      }
    }
    return table;
  }();
  return kByOpcode[static_cast<std::size_t>(op)];
}

std::string_view reg_name(Reg r) {
  for (const auto& e : kAbiMap) {
    if (e.index == r.index && e.name != "fp") return e.name;
  }
  return kAbiNames[0];
}

std::optional<Reg> parse_reg(std::string_view name) {
  const std::string lower = util::to_lower(name);
  for (const auto& e : kAbiMap) {
    if (e.name == lower) return Reg{e.index};
  }
  // Also accept architectural names x0..x31.
  if (lower.size() >= 2 && lower[0] == 'x') {
    int idx = 0;
    for (std::size_t i = 1; i < lower.size(); ++i) {
      if (lower[i] < '0' || lower[i] > '9') return std::nullopt;
      idx = idx * 10 + (lower[i] - '0');
    }
    if (idx < 32) return Reg{static_cast<std::uint8_t>(idx)};
  }
  return std::nullopt;
}

std::string Instruction::to_string() const {
  const auto& inf = info(opcode);
  std::string out(inf.mnemonic);
  out += ' ';
  switch (inf.format) {
    case Format::R:
      out += std::string(reg_name(rd)) + ", " + std::string(reg_name(rs1)) +
             ", " + std::string(reg_name(rs2));
      break;
    case Format::I:
      out += std::string(reg_name(rd)) + ", " + std::string(reg_name(rs1)) +
             ", " + std::to_string(imm);
      break;
    case Format::U:
      out += std::string(reg_name(rd)) + ", " + std::to_string(imm);
      break;
    case Format::Load:
      out += std::string(reg_name(rd)) + ", " + std::to_string(imm) + "(" +
             std::string(reg_name(rs1)) + ")";
      break;
    case Format::Store:
      out += std::string(reg_name(rs2)) + ", " + std::to_string(imm) + "(" +
             std::string(reg_name(rs1)) + ")";
      break;
  }
  return out;
}

std::string BasicBlock::to_string() const {
  std::string out;
  for (const auto& inst : instructions) {
    out += inst.to_string();
    out += '\n';
  }
  return out;
}

namespace {

/// A register as reg_name prints it: an index past x31 prints as x0.
char reg_key(Reg r) { return static_cast<char>(r.index < 32 ? r.index : 0); }

void append_imm_key(std::string& out, std::int64_t imm) {
  out.append(reinterpret_cast<const char*>(&imm), sizeof imm);
}

}  // namespace

void append_memo_key(const BasicBlock& block, std::string& out) {
  for (const auto& inst : block.instructions) {
    out += static_cast<char>(inst.opcode);
    switch (info(inst.opcode).format) {
      case Format::R:
        out += reg_key(inst.rd);
        out += reg_key(inst.rs1);
        out += reg_key(inst.rs2);
        break;
      case Format::I:
      case Format::Load:
        out += reg_key(inst.rd);
        out += reg_key(inst.rs1);
        append_imm_key(out, inst.imm);
        break;
      case Format::U:
        out += reg_key(inst.rd);
        append_imm_key(out, inst.imm);
        break;
      case Format::Store:
        out += reg_key(inst.rs2);
        out += reg_key(inst.rs1);
        append_imm_key(out, inst.imm);
        break;
    }
  }
}

RvSemantics semantics(const Instruction& inst) {
  RvSemantics s;
  const auto add_read = [&](Reg r) {
    if (r != kZero) s.reads.push_back(r);
  };
  const auto set_write = [&](Reg r) {
    if (r != kZero) s.write = r;  // x0 writes are architecturally discarded
  };
  switch (info(inst.opcode).format) {
    case Format::R:
      add_read(inst.rs1);
      add_read(inst.rs2);
      set_write(inst.rd);
      break;
    case Format::I:
      add_read(inst.rs1);
      set_write(inst.rd);
      break;
    case Format::U:
      set_write(inst.rd);
      break;
    case Format::Load:
      add_read(inst.rs1);
      set_write(inst.rd);
      s.mem_read = true;
      break;
    case Format::Store:
      add_read(inst.rs1);
      add_read(inst.rs2);
      s.mem_write = true;
      break;
  }
  return s;
}

bool is_valid(const Instruction& inst) {
  if (static_cast<std::size_t>(inst.opcode) >= kNumOpcodes) return false;
  switch (info(inst.opcode).format) {
    case Format::R:
      return inst.imm == 0;
    case Format::I: {
      // Shift-immediates use a 6-bit unsigned shamt; the rest a 12-bit
      // signed immediate.
      switch (inst.opcode) {
        case Opcode::SLLI:
        case Opcode::SRLI:
        case Opcode::SRAI:
          return inst.imm >= 0 && inst.imm < 64;
        default:
          return imm_fits(inst.imm, 12);
      }
    }
    case Format::U:
      return inst.imm >= 0 && inst.imm < (std::int64_t{1} << 20);
    case Format::Load:
    case Format::Store:
      return imm_fits(inst.imm, 12);
  }
  return false;
}

bool is_valid(const BasicBlock& block) {
  for (const auto& inst : block.instructions) {
    if (!is_valid(inst)) return false;
  }
  return true;
}

}  // namespace comet::riscv
