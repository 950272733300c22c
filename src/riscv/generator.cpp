#include "riscv/generator.h"

#include <array>
#include <utility>
#include <vector>

namespace comet::riscv {

namespace {

constexpr std::size_t kMinInsts = 4;
constexpr std::size_t kMaxInsts = 10;

/// Relative class weights, in draw order.
constexpr std::array<std::pair<RvClass, double>, 5> kWeights = {{
    {RvClass::IntAlu, 6.0},
    {RvClass::IntMul, 1.0},
    {RvClass::IntDiv, 0.5},
    {RvClass::Load, 2.0},
    {RvClass::Store, 1.5},
}};

/// A small register pool (a0-a5) induces realistic dependency chains.
constexpr std::size_t kRegPool = 6;

const std::vector<Opcode>& opcodes_of_class(RvClass cls) {
  static const std::array<std::vector<Opcode>, 5> kByClass = [] {
    std::array<std::vector<Opcode>, 5> table;
    for (const Opcode op : all_opcodes()) {
      table[static_cast<std::size_t>(info(op).cls)].push_back(op);
    }
    return table;
  }();
  return kByClass[static_cast<std::size_t>(cls)];
}

}  // namespace

BasicBlock generate_block(util::Rng& rng) {
  // Register pool: a0-a5 working set (skip x0).
  std::vector<Reg> pool;
  for (std::size_t i = 0; i < kRegPool; ++i) {
    pool.push_back(Reg{static_cast<std::uint8_t>(10 + i)});  // a0, a1, ...
  }
  const Reg sp{2};

  double total = 0;
  for (const auto& [cls, w] : kWeights) total += w;

  const std::size_t n = kMinInsts + rng.index(kMaxInsts - kMinInsts + 1);
  BasicBlock block;
  for (std::size_t i = 0; i < n; ++i) {
    double pick = rng.uniform(0, total);
    RvClass cls = RvClass::IntAlu;
    for (const auto& [c, w] : kWeights) {
      if (pick < w) {
        cls = c;
        break;
      }
      pick -= w;
    }
    const auto& ops = opcodes_of_class(cls);
    Instruction inst;
    inst.opcode = ops[rng.index(ops.size())];
    switch (info(inst.opcode).format) {
      case Format::R:
        inst.rd = rng.pick(pool);
        inst.rs1 = rng.pick(pool);
        inst.rs2 = rng.pick(pool);
        break;
      case Format::I:
        inst.rd = rng.pick(pool);
        inst.rs1 = rng.pick(pool);
        inst.imm = (inst.opcode == Opcode::SLLI ||
                    inst.opcode == Opcode::SRLI ||
                    inst.opcode == Opcode::SRAI)
                       ? std::int64_t(rng.index(64))
                       : std::int64_t(rng.index(256)) - 128;
        break;
      case Format::U:
        inst.rd = rng.pick(pool);
        inst.imm = std::int64_t(rng.index(1 << 20));
        break;
      case Format::Load:
        inst.rd = rng.pick(pool);
        inst.rs1 = rng.uniform() < 0.5 ? sp : rng.pick(pool);
        inst.imm = std::int64_t(rng.index(32)) * 8;
        break;
      case Format::Store:
        inst.rs2 = rng.pick(pool);
        inst.rs1 = rng.uniform() < 0.5 ? sp : rng.pick(pool);
        inst.imm = std::int64_t(rng.index(32)) * 8;
        break;
    }
    block.instructions.push_back(inst);
  }
  return block;
}

std::vector<BasicBlock> generate_corpus(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<BasicBlock> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(generate_block(rng));
  return out;
}

}  // namespace comet::riscv
