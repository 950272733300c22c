#include "riscv/perturb.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <tuple>

namespace comet::riscv {

namespace {

/// Probability that an unpinned instruction keeps its opcode.
constexpr double kInstRetain = 0.5;
/// Probability that an unpreserved hazard is left intact.
constexpr double kDepRetain = 0.5;
/// Probability that a free instruction is deleted rather than replaced.
constexpr double kDelete = 0.33;

/// A hazard by (from, to, kind): the unit Γ preserves and breaks. A pair
/// may carry several same-kind edges (one per register).
using DepKey = std::tuple<std::size_t, std::size_t, DepKind>;

bool has_key(const std::vector<DepKey>& keys, const DepKey& key) {
  return std::find(keys.begin(), keys.end(), key) != keys.end();
}

/// Register occurrence roles: the read and write occurrences of the same
/// register within one instruction (e.g. `add a3, a3, a4`) are pinned
/// apart.
enum : unsigned { kRoleRead = 0, kRoleWrite = 1 };

/// The bit of (register, role) in an instruction's pinned-occurrence mask.
/// Registers past x31 do not exist and have none.
std::uint64_t occurrence_bit(std::uint8_t reg, unsigned role) {
  return reg < 32 ? std::uint64_t{1} << (role * 32 + reg) : 0;
}

/// The bit of a register in a 32-register set.
std::uint32_t reg_bit(Reg r) {
  return r.index < 32 ? std::uint32_t{1} << r.index : 0;
}

/// RvPerturber::sample's per-call working state, kept per thread and
/// cleared, not freed, between calls (as the x86 Γ keeps its own).
struct SampleScratch {
  std::vector<bool> opcode_pinned;
  std::vector<bool> vertex_pinned;  // may not be deleted
  std::vector<bool> deleted;
  /// Pinned register occurrences per instruction (occurrence_bit).
  std::vector<std::uint64_t> reg_pinned;
  std::vector<DepKey> preserved_deps;
  std::vector<DepKey> broken;
  std::vector<Opcode> valid;
};

}  // namespace

RvPerturber::RvPerturber(BasicBlock block)
    : block_(std::move(block)), graph_(DepGraph::build(block_)) {}

RvPerturbedBlock RvPerturber::sample(const RvFeatureSet& preserve,
                                     util::Rng& rng) const {
  RvPerturbedBlock pb;
  sample(preserve, rng, pb);
  return pb;
}

void RvPerturber::sample(const RvFeatureSet& preserve, util::Rng& rng,
                         RvPerturbedBlock& pb) const {
  const std::size_t n = block_.size();
  thread_local SampleScratch scratch;

  bool preserve_eta = false;
  std::vector<bool>& opcode_pinned = scratch.opcode_pinned;
  std::vector<bool>& vertex_pinned = scratch.vertex_pinned;
  opcode_pinned.assign(n, false);
  vertex_pinned.assign(n, false);
  // Pinned register occurrences, by instruction, register and role, so
  // preserving a WAW hazard pins only the write slots and leaves a
  // coincident RAW's read slot free to rename — otherwise every same-pair
  // hazard would become an inseparable proxy for the others.
  std::vector<std::uint64_t>& reg_pinned = scratch.reg_pinned;
  reg_pinned.assign(n, 0);
  // Preserved hazards: only same-kind edges of a pair are off-limits to
  // the edge-perturbation pass.
  std::vector<DepKey>& preserved_deps = scratch.preserved_deps;
  preserved_deps.clear();

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
      preserved_deps.emplace_back(d.from, d.to, d.kind);
      for (const auto& e : graph_.edges()) {
        if (e.from != d.from || e.to != d.to || e.kind != d.kind ||
            e.memory) {
          continue;
        }
        const std::uint8_t r = e.reg.index;
        switch (e.kind) {
          case DepKind::RAW:
            reg_pinned[e.from] |= occurrence_bit(r, kRoleWrite);
            reg_pinned[e.to] |= occurrence_bit(r, kRoleRead);
            break;
          case DepKind::WAR:
            reg_pinned[e.from] |= occurrence_bit(r, kRoleRead);
            reg_pinned[e.to] |= occurrence_bit(r, kRoleWrite);
            break;
          case DepKind::WAW:
            reg_pinned[e.from] |= occurrence_bit(r, kRoleWrite);
            reg_pinned[e.to] |= occurrence_bit(r, kRoleWrite);
            break;
        }
      }
    }
  }

  // Edited in place in the caller's slot; deleted positions are compacted
  // away at the end.
  pb.block = block_;
  std::vector<Instruction>& insts = pb.block.instructions;
  std::vector<bool>& deleted = scratch.deleted;
  deleted.assign(n, false);

  // --- vertex perturbation: opcode replacement or deletion ---
  std::vector<Opcode>& valid = scratch.valid;
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
    valid.clear();
    for (const Opcode cand :
         replacement_opcodes(block_.instructions[i].opcode)) {
      Instruction probe = insts[i];
      probe.opcode = cand;
      if (is_valid(probe)) valid.push_back(cand);
    }
    if (valid.empty()) continue;  // retained (Appendix D)
    insts[i].opcode = valid[rng.index(valid.size())];
  }

  // --- edge perturbation: break unpreserved register hazards by renaming,
  //     memory hazards by shifting the offset ---
  // Registers already used anywhere in the block (fresh-rename pool is the
  // complement, excluding x0).
  std::uint32_t used = 0;
  for (const auto& inst : block_.instructions) {
    used |= reg_bit(inst.rd) | reg_bit(inst.rs1) | reg_bit(inst.rs2);
  }
  // A uniform pick among the unused x1..x31, in ascending order.
  const auto fresh_reg = [&]() -> Reg {
    const std::uint32_t pool = ~used & ~reg_bit(kZero);
    if (pool == 0) return Reg{5};  // t0 fallback: pathological blocks
    std::size_t k = rng.index(static_cast<std::size_t>(std::popcount(pool)));
    std::uint8_t r = 1;
    for (;; ++r) {
      if ((pool & reg_bit(Reg{r})) != 0 && k-- == 0) break;
    }
    return Reg{r};
  };

  std::vector<DepKey>& broken = scratch.broken;
  broken.clear();
  for (const auto& e : graph_.edges()) {
    const DepKey key(e.from, e.to, e.kind);
    if (has_key(preserved_deps, key)) continue;
    if (deleted[e.from] || deleted[e.to]) continue;  // edge already gone
    if (has_key(broken, key)) continue;
    if (rng.uniform() < kDepRetain) continue;

    if (e.memory) {
      // Shift the consumer's offset; keeps the 12-bit range by wrapping.
      auto& inst = insts[e.to];
      const std::int64_t shifted = inst.imm + 8;
      inst.imm = shifted <= 2047 ? shifted : inst.imm - 8;
      broken.push_back(key);
      continue;
    }

    // Register hazard: rename the consumer-side occurrence to a fresh
    // register (RAW renames the read; WAR/WAW rename the write).
    auto& inst = insts[e.to];
    const std::uint8_t r = e.reg.index;
    const unsigned role = e.kind == DepKind::RAW ? kRoleRead : kRoleWrite;
    if ((reg_pinned[e.to] & occurrence_bit(r, role)) != 0) {
      continue;  // retained (App. D)
    }
    const Reg fresh = fresh_reg();
    used |= reg_bit(fresh);
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
    broken.push_back(key);
  }

  pb.orig_index.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (deleted[i]) continue;
    insts[pb.orig_index.size()] = insts[i];
    pb.orig_index.push_back(i);
  }
  insts.resize(pb.orig_index.size());
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
