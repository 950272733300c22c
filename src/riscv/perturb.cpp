#include "riscv/perturb.h"

#include <algorithm>
#include <optional>
#include <set>
#include <tuple>

namespace comet::riscv {

namespace {

/// Probability that an unpinned instruction keeps its opcode.
constexpr double kInstRetain = 0.5;
/// Probability that an unpreserved hazard is left intact.
constexpr double kDepRetain = 0.5;
/// Probability that a free instruction is deleted rather than replaced.
constexpr double kDelete = 0.33;

}  // namespace

RvPerturber::RvPerturber(BasicBlock block)
    : block_(std::move(block)), graph_(DepGraph::build(block_)) {}

RvPerturbedBlock RvPerturber::sample(const RvFeatureSet& preserve,
                                     util::Rng& rng) const {
  const std::size_t n = block_.size();

  bool preserve_eta = false;
  std::vector<bool> opcode_pinned(n, false);
  std::vector<bool> vertex_pinned(n, false);  // may not be deleted
  // Pinned register occurrences, keyed by (instruction, register, role):
  // role distinguishes the read and write occurrences of the same register
  // within one instruction (e.g. `add a3, a3, a4`), so preserving a WAW
  // hazard pins only the write slots and leaves a coincident RAW's read
  // slot free to rename — otherwise every same-pair hazard would become an
  // inseparable proxy for the others.
  enum : std::uint8_t { kRoleRead = 0, kRoleWrite = 1 };
  std::set<std::tuple<std::size_t, std::uint8_t, std::uint8_t>> reg_pinned;
  // Preserved hazards, by (from, to, kind): only same-kind edges of a pair
  // are off-limits to the edge-perturbation pass.
  std::set<std::tuple<std::size_t, std::size_t, DepKind>> preserved_deps;

  for (const auto& f : preserve.items()) {
    if (f.is_num_insts()) {
      preserve_eta = true;
    } else if (f.is_inst()) {
      opcode_pinned[f.as_inst().index] = true;
      vertex_pinned[f.as_inst().index] = true;
    } else {
      const auto& d = f.as_dep();
      // Pin the endpoints' opcodes and the hazard-carrying occurrences —
      // mirroring the x86 Γ.
      opcode_pinned[d.from] = opcode_pinned[d.to] = true;
      vertex_pinned[d.from] = vertex_pinned[d.to] = true;
      preserved_deps.insert(std::make_tuple(d.from, d.to, d.kind));
      for (const auto& e : graph_.edges()) {
        if (e.from != d.from || e.to != d.to || e.kind != d.kind ||
            e.memory) {
          continue;
        }
        switch (e.kind) {
          case DepKind::RAW:
            reg_pinned.insert(std::make_tuple(e.from, e.reg.index, kRoleWrite));
            reg_pinned.insert(std::make_tuple(e.to, e.reg.index, kRoleRead));
            break;
          case DepKind::WAR:
            reg_pinned.insert(std::make_tuple(e.from, e.reg.index, kRoleRead));
            reg_pinned.insert(std::make_tuple(e.to, e.reg.index, kRoleWrite));
            break;
          case DepKind::WAW:
            reg_pinned.insert(std::make_tuple(e.from, e.reg.index, kRoleWrite));
            reg_pinned.insert(std::make_tuple(e.to, e.reg.index, kRoleWrite));
            break;
        }
      }
    }
  }

  BasicBlock out = block_;
  std::vector<bool> deleted(n, false);

  // --- vertex perturbation: opcode replacement or deletion ---
  for (std::size_t i = 0; i < n; ++i) {
    if (opcode_pinned[i]) continue;
    if (rng.uniform() < kInstRetain) continue;
    const bool can_delete = !preserve_eta && !vertex_pinned[i];
    if (can_delete && rng.uniform() < kDelete) {
      deleted[i] = true;
      continue;
    }
    // Format equality is necessary but not sufficient: shift-immediates
    // (slli/srli/srai) take a 6-bit shamt while the other I-type opcodes
    // take a signed 12-bit immediate, so a candidate must also keep the
    // concrete instruction valid — one of the "instance-specific
    // challenges" Section 7 anticipates for new ISAs.
    std::vector<Opcode> valid;
    for (const Opcode cand :
         replacement_opcodes(block_.instructions[i].opcode)) {
      Instruction probe = out.instructions[i];
      probe.opcode = cand;
      if (is_valid(probe)) valid.push_back(cand);
    }
    if (valid.empty()) continue;  // retained (Appendix D)
    out.instructions[i].opcode = valid[rng.index(valid.size())];
  }

  // --- edge perturbation: break unpreserved register hazards by renaming,
  //     memory hazards by shifting the offset ---
  // Registers already used anywhere in the block (fresh-rename pool is the
  // complement, excluding x0).
  std::set<std::uint8_t> used;
  for (const auto& inst : block_.instructions) {
    used.insert(inst.rd.index);
    used.insert(inst.rs1.index);
    used.insert(inst.rs2.index);
  }
  const auto fresh_reg = [&]() -> Reg {
    std::vector<std::uint8_t> pool;
    for (std::uint8_t r = 1; r < 32; ++r) {
      if (!used.count(r)) pool.push_back(r);
    }
    if (pool.empty()) return Reg{5};  // t0 fallback: pathological blocks
    return Reg{pool[rng.index(pool.size())]};
  };

  std::set<std::tuple<std::size_t, std::size_t, DepKind>> broken;
  for (const auto& e : graph_.edges()) {
    if (preserved_deps.count(std::make_tuple(e.from, e.to, e.kind))) continue;
    if (deleted[e.from] || deleted[e.to]) continue;  // edge already gone
    if (broken.count(std::make_tuple(e.from, e.to, e.kind))) continue;
    if (rng.uniform() < kDepRetain) continue;

    if (e.memory) {
      // Shift the consumer's offset; keeps the 12-bit range by wrapping.
      auto& inst = out.instructions[e.to];
      const std::int64_t shifted = inst.imm + 8;
      inst.imm = shifted <= 2047 ? shifted : inst.imm - 8;
      broken.insert(std::make_tuple(e.from, e.to, e.kind));
      continue;
    }

    // Register hazard: rename the consumer-side occurrence to a fresh
    // register (RAW renames the read; WAR/WAW rename the write).
    auto& inst = out.instructions[e.to];
    const std::uint8_t r = e.reg.index;
    const std::uint8_t role = e.kind == DepKind::RAW ? 0 : 1;
    if (reg_pinned.count(std::make_tuple(e.to, r, std::uint8_t{role}))) continue;  // retained (App. D)
    const Reg fresh = fresh_reg();
    used.insert(fresh.index);
    switch (e.kind) {
      case DepKind::RAW:
        if (inst.rs1.index == r) inst.rs1 = fresh;
        if (inst.rs2.index == r) inst.rs2 = fresh;
        break;
      case DepKind::WAR:
      case DepKind::WAW:
        if (inst.rd.index == r) inst.rd = fresh;
        break;
    }
    broken.insert(std::make_tuple(e.from, e.to, e.kind));
  }

  RvPerturbedBlock pb;
  for (std::size_t i = 0; i < n; ++i) {
    if (deleted[i]) continue;
    pb.block.instructions.push_back(out.instructions[i]);
    pb.orig_index.push_back(i);
  }
  return pb;
}

bool RvPerturber::contains(const RvPerturbedBlock& pb,
                           const RvFeatureSet& fs) const {
  // The sample's graph is built only once a Dep feature needs it.
  std::optional<DepGraph> g;
  for (const auto& f : fs.items()) {
    if (f.is_num_insts()) {
      if (pb.block.size() != f.as_num_insts().count) return false;
    } else if (f.is_inst()) {
      const std::size_t pos = pb.position_of(f.as_inst().index);
      if (pos == RvPerturbedBlock::npos ||
          pb.block.instructions[pos].opcode != f.as_inst().opcode) {
        return false;
      }
    } else {
      const auto& d = f.as_dep();
      const std::size_t from = pb.position_of(d.from);
      const std::size_t to = pb.position_of(d.to);
      if (from == RvPerturbedBlock::npos || to == RvPerturbedBlock::npos) {
        return false;
      }
      if (!g) g = DepGraph::build(pb.block);
      if (!g->has_edge(from, to, d.kind)) return false;
    }
  }
  return true;
}

}  // namespace comet::riscv
