#include "perturb/perturber.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/contract.h"

namespace comet::perturb {

namespace {

using graph::DepEdge;
using graph::DepFeature;
using graph::DepKind;
using graph::DepResource;
using graph::Feature;
using graph::FeatureSet;
using x86::BasicBlock;
using x86::family_bit;
using x86::FamilyMask;
using x86::Instruction;
using x86::Operand;
using x86::Reg;
using x86::RegClass;
using x86::RegFamily;

/// p_I,ret: probability that an unpinned instruction keeps its opcode.
constexpr double kInstRetain = 0.5;
/// p_D,ret: probability that an unpreserved hazard is left intact.
constexpr double kDepRetain = 0.5;

/// Families named by explicit operands: register operands plus the base
/// and index registers of memory operands.
FamilyMask operand_families(const Instruction& inst) {
  FamilyMask m = 0;
  for (const auto& op : inst.operands) {
    if (op.is_reg()) {
      m |= family_bit(op.as_reg().family);
    } else if (op.is_mem()) {
      const auto& mem = op.as_mem();
      if (mem.base) m |= family_bit(mem.base->family);
      if (mem.index) m |= family_bit(mem.index->family);
    }
  }
  return m;
}

/// Families a signature accesses implicitly (div/mul rax/rdx, push/pop rsp).
FamilyMask implicit_families(const x86::Signature& sig) {
  FamilyMask m = 0;
  for (const auto& imp : sig.implicit) m |= family_bit(imp.family);
  return m;
}

/// Every family `inst` touches — explicit operands, address registers and
/// implicit effects: the families of x86::semantics(inst).regs, without
/// building the semantics. `inst` must be valid.
FamilyMask touched_families(const Instruction& inst) {
  const x86::Signature* sig = x86::find_signature(inst.opcode, inst.operands);
  COMET_CHECK_MSG(sig != nullptr, "invalid instruction: " << inst.to_string());
  return operand_families(inst) | implicit_families(*sig);
}

/// Rename every explicit occurrence of family `from` in `inst` to `to`.
void rename_family(Instruction& inst, RegFamily from, RegFamily to) {
  for (auto& op : inst.operands) {
    if (op.is_reg()) {
      auto& r = op.as_reg();
      if (r.family != from) continue;
      r.family = to;
      // high8 registers only exist in the first four families.
      if (r.high8 && !x86::reg_exists(to, 8, true)) r.high8 = false;
    } else if (op.is_mem()) {
      auto& mem = op.as_mem();
      if (mem.base && mem.base->family == from) mem.base->family = to;
      if (mem.index && mem.index->family == from) mem.index->family = to;
    }
  }
}

/// rng.pick over the members of `set` listed in `order`'s order: the same
/// draw, and the same result, as picking from that filtered list.
RegFamily pick_family(util::Rng& rng, FamilyMask set,
                      const std::vector<RegFamily>& order) {
  std::size_t k = rng.index(static_cast<std::size_t>(std::popcount(set)));
  for (RegFamily f : order) {
    if ((set & family_bit(f)) != 0 && k-- == 0) return f;
  }
  COMET_CHECK_MSG(false, "family set is not a subset of its pick order");
  return order.front();
}

/// Per-sample bookkeeping of what must not be touched.
struct Pins {
  std::vector<bool> opcode_pinned;      // per instruction
  std::vector<bool> delete_forbidden;   // per instruction
  /// Families whose occurrences are pinned, per instruction.
  std::vector<FamilyMask> pinned_families;
  /// Memory operand identity pinned (explicit mem operand must stay put).
  std::vector<bool> mem_pinned;
  /// Families carrying any preserved edge anywhere (excluded as rename
  /// targets so dependency rerouting cannot destroy a preserved edge).
  FamilyMask globally_reserved = 0;
  bool preserve_count = false;

  /// Unpin everything for an n-instruction block, keeping capacity.
  void reset(std::size_t n) {
    opcode_pinned.assign(n, false);
    delete_forbidden.assign(n, false);
    pinned_families.assign(n, 0);
    mem_pinned.assign(n, false);
    globally_reserved = 0;
    preserve_count = false;
  }

  /// Pin both endpoints of preserved edge `e` and whatever carries it.
  void pin_edge(const DepEdge& e) {
    opcode_pinned[e.from] = true;
    opcode_pinned[e.to] = true;
    delete_forbidden[e.from] = true;
    delete_forbidden[e.to] = true;
    if (e.resource == DepResource::Register) {
      pinned_families[e.from] |= family_bit(e.family);
      pinned_families[e.to] |= family_bit(e.family);
      globally_reserved |= family_bit(e.family);
    } else if (e.resource == DepResource::Memory) {
      mem_pinned[e.from] = true;
      mem_pinned[e.to] = true;
    }
  }
};

/// Decode `preserve` into `pins`: Inst and NumInsts features directly, and
/// each Dep feature into the graph edges it names, which replace the
/// contents of `edges` for the caller to pin with Pins::pin_edge.
void decode_features(const FeatureSet& preserve, const graph::DepGraph& graph,
                     Pins& pins, std::vector<DepEdge>& edges) {
  const std::size_t n = pins.opcode_pinned.size();
  edges.clear();
  for (const Feature& f : preserve.items()) {
    switch (f.type()) {
      case graph::FeatureType::Inst: {
        const auto& fi = f.as_inst();
        if (fi.index < n) {
          pins.opcode_pinned[fi.index] = true;
          pins.delete_forbidden[fi.index] = true;
        }
        break;
      }
      case graph::FeatureType::NumInsts:
        pins.preserve_count = true;
        break;
      case graph::FeatureType::Dep: {
        const auto& fd = f.as_dep();
        for (const DepEdge& e : graph.edges()) {
          if (e.from == fd.from && e.to == fd.to && e.kind == fd.kind) {
            edges.push_back(e);
          }
        }
        break;
      }
    }
  }
}

/// Perturber::sample's per-call working state, kept per thread and
/// cleared, not freed, between calls (see perturber.h).
struct SampleScratch {
  Pins pins;
  std::vector<DepEdge> preserved_edges;
  /// Points into the sampling Perturber's graph; valid for one call only.
  std::vector<const DepEdge*> free_edges;
  std::vector<FamilyMask> sensitive;
  std::vector<bool> deleted;
  std::vector<FamilyMask> used_by;
  /// An instruction's state before a rename that may be undone.
  Instruction backup;
};

}  // namespace

Perturber::Perturber(x86::BasicBlock block,
                     graph::DepGraphOptions graph_options,
                     PerturbConfig config)
    : block_(std::move(block)),
      graph_options_(graph_options),
      config_(config),
      graph_(graph::DepGraph::build(block_, graph_options_)) {
  replacements_.reserve(block_.size());
  families_.reserve(block_.size());
  for (const auto& inst : block_.instructions) {
    replacements_.push_back(
        x86::replacement_opcodes(inst.opcode, inst.operands));
    families_.push_back(touched_families(inst));
  }
}

PerturbedBlock Perturber::sample(const FeatureSet& preserve,
                                 util::Rng& rng) const {
  const std::size_t n = block_.size();
  thread_local SampleScratch scratch;
  Pins& pins = scratch.pins;
  pins.reset(n);

  // 1. Decode the preserved feature set into pins.
  std::vector<DepEdge>& preserved_edges = scratch.preserved_edges;
  decode_features(preserve, graph_, pins, preserved_edges);

  // 2. Explicit voluntary retention of other dependencies (Appendix E.3):
  //    each non-preserved edge is pinned outright with a small probability,
  //    producing perturbations close to the original block.
  std::vector<const DepEdge*>& free_edges = scratch.free_edges;
  free_edges.clear();
  for (const DepEdge& e : graph_.edges()) {
    const bool already =
        std::find_if(preserved_edges.begin(), preserved_edges.end(),
                     [&](const DepEdge& p) {
                       return p.from == e.from && p.to == e.to &&
                              p.kind == e.kind && p.resource == e.resource &&
                              p.family == e.family;
                     }) != preserved_edges.end();
    if (already) continue;
    if (rng.bernoulli(config_.p_explicit_dep_retain)) {
      preserved_edges.push_back(e);
    } else {
      free_edges.push_back(&e);
    }
  }

  // 3. Apply pins implied by preserved edges.
  for (const DepEdge& e : preserved_edges) pins.pin_edge(e);

  // Families whose access pattern must not change at a given position: an
  // instruction sitting between the endpoints of a preserved register
  // dependency would reroute that edge under nearest-writer chaining if a
  // replacement opcode changed how the carrying family is accessed there —
  // implicitly (a 1-operand div clobbering rax) or explicitly (cmp -> cmov
  // turning a read of the destination into a write).
  std::vector<FamilyMask>& sensitive = scratch.sensitive;
  sensitive.assign(n, 0);
  for (const DepEdge& e : preserved_edges) {
    if (e.resource != DepResource::Register) continue;
    for (std::size_t v = e.from + 1; v < e.to; ++v) {
      sensitive[v] |= family_bit(e.family);
    }
  }

  // The sample is edited in place: a copy of β whose deleted positions
  // are compacted away in step 6. used_by[v] is the family mask of
  // insts[v] as it stands (0 once deleted); every edit to an instruction
  // must refresh its entry.
  PerturbedBlock out{block_, {}};
  std::vector<Instruction>& insts = out.block.instructions;
  std::vector<bool>& deleted = scratch.deleted;
  deleted.assign(n, false);
  std::vector<FamilyMask>& used_by = scratch.used_by;
  used_by = families_;

  // 4. Vertex perturbation: opcode replacement or deletion.
  for (std::size_t v = 0; v < n; ++v) {
    if (pins.opcode_pinned[v]) continue;
    if (rng.bernoulli(kInstRetain)) continue;
    const bool can_delete = !pins.preserve_count && !pins.delete_forbidden[v];
    const bool try_delete = can_delete && rng.bernoulli(config_.p_delete);
    if (try_delete) {
      deleted[v] = true;
      used_by[v] = 0;
      continue;
    }
    const auto& cands = replacements_[v];
    if (cands.empty()) continue;  // e.g. lea: forced retention (Appendix D)
    const auto reroute_conflict = [&](x86::Opcode cand) {
      if (sensitive[v] == 0) return false;
      // Operands referencing a sensitive family: any access-pattern change
      // could reroute the preserved edge, so force retention.
      if ((operand_families(insts[v]) & sensitive[v]) != 0) return true;
      const x86::Signature* sig =
          x86::find_signature(cand, insts[v].operands);
      if (sig == nullptr) return true;  // defensive: reject
      return (implicit_families(*sig) & sensitive[v]) != 0;
    };
    x86::Opcode chosen = rng.pick(cands);
    for (int attempt = 0; attempt < 4 && reroute_conflict(chosen);
         ++attempt) {
      chosen = rng.pick(cands);
    }
    if (reroute_conflict(chosen)) continue;  // forced retention
    insts[v].opcode = chosen;
    if (config_.whole_instruction_replacement) {
      // Ablation: also re-randomize unpinned register operands.
      for (auto& op : insts[v].operands) {
        if (!op.is_reg()) continue;
        auto& r = op.as_reg();
        if ((pins.pinned_families[v] & family_bit(r.family)) != 0) continue;
        const auto& pool = reg_class(r) == RegClass::Vec
                               ? x86::vec_families()
                               : x86::substitutable_gpr_families();
        scratch.backup = insts[v];
        r.family = rng.pick(pool);
        if (r.high8 && !x86::reg_exists(r.family, 8, true)) r.high8 = false;
        if (!x86::is_valid(insts[v])) insts[v] = scratch.backup;
      }
    }
    used_by[v] = touched_families(insts[v]);
  }

  // 5. Edge perturbation: break non-retained hazards via operand renaming.
  for (const DepEdge* ep : free_edges) {
    const DepEdge& e = *ep;
    if (deleted[e.from] || deleted[e.to]) continue;  // already gone
    if (rng.bernoulli(kDepRetain)) continue;

    if (e.resource == DepResource::Memory) {
      // Shift the displacement of one endpoint's memory operand: breaks
      // syntactic address identity without touching register hazards.
      const std::size_t side = rng.bernoulli(0.5) ? e.from : e.to;
      const std::size_t other = side == e.from ? e.to : e.from;
      const auto try_shift = [&](std::size_t idx) {
        if (pins.mem_pinned[idx]) return false;
        for (auto& op : insts[idx].operands) {
          if (!op.is_mem()) continue;
          op.as_mem().disp += 8 * rng.range(1, 16);
          return true;
        }
        return false;
      };
      if (!try_shift(side)) try_shift(other);
      continue;
    }
    if (e.resource != DepResource::Register) continue;  // flags: unbreakable

    // Pick a rename target family: same class, not the carrying family,
    // not reserved by any preserved edge. Prefer families the block does not
    // touch at all (explicitly or implicitly), so that breaking one
    // dependency does not accidentally create a new one (which would distort
    // the cost of unrelated feature sets and bias precision estimates).
    const auto& base_pool = x86::reg_class(e.family) == RegClass::Vec
                                ? x86::vec_families()
                                : x86::substitutable_gpr_families();
    FamilyMask pool = 0;
    for (RegFamily f : base_pool) pool |= family_bit(f);
    pool &= ~(family_bit(e.family) | pins.globally_reserved);
    FamilyMask block_used = 0;
    for (FamilyMask m : used_by) block_used |= m;
    if ((pool & ~block_used) != 0) pool &= ~block_used;
    if (pool == 0) continue;

    // Prefer renaming the consumer's occurrences; fall back to the producer.
    const auto try_rename = [&](std::size_t idx) {
      if ((pins.pinned_families[idx] & family_bit(e.family)) != 0) return false;
      // An implicit operand cannot be renamed.
      if ((operand_families(insts[idx]) & family_bit(e.family)) == 0) {
        return false;
      }
      scratch.backup = insts[idx];
      rename_family(insts[idx], e.family, pick_family(rng, pool, base_pool));
      if (!x86::is_valid(insts[idx])) {
        insts[idx] = scratch.backup;  // e.g. shift count must stay cl
        return false;
      }
      used_by[idx] = touched_families(insts[idx]);
      return true;
    };
    if (!try_rename(e.to)) try_rename(e.from);
  }

  // 6. Compact away the deleted positions, recording the
  //    original-position mapping.
  out.orig_index.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (deleted[v]) continue;
    const std::size_t k = out.orig_index.size();
    if (k != v) insts[k] = std::move(insts[v]);
    out.orig_index.push_back(v);
  }
  insts.resize(out.orig_index.size());
  return out;
}

bool Perturber::contains(const PerturbedBlock& pb,
                         const FeatureSet& fs) const {
  for (const Feature& f : fs.items()) {
    switch (f.type()) {
      case graph::FeatureType::NumInsts:
        if (pb.block.size() != f.as_num_insts().count) return false;
        break;
      case graph::FeatureType::Inst: {
        const auto& fi = f.as_inst();
        const auto pos = pb.position_of(fi.index);
        if (pos == PerturbedBlock::npos) return false;
        if (pb.block.instructions[pos].opcode != fi.opcode) return false;
        break;
      }
      case graph::FeatureType::Dep: {
        const auto& fd = f.as_dep();
        const auto pf = pb.position_of(fd.from);
        const auto pt = pb.position_of(fd.to);
        if (pf == PerturbedBlock::npos || pt == PerturbedBlock::npos) {
          return false;
        }
        if (!graph::has_dep_edge(pb.block, pf, pt, fd.kind, graph_options_)) {
          return false;
        }
        break;
      }
    }
  }
  return true;
}

double Perturber::log10_space_size(const FeatureSet& preserve) const {
  const std::size_t n = block_.size();
  Pins pins;
  pins.reset(n);
  std::vector<DepEdge> edges;
  decode_features(preserve, graph_, pins, edges);
  for (const DepEdge& e : edges) pins.pin_edge(e);

  double log10_total = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    // Opcode choices: retain + each replacement (+ delete).
    double opcode_choices = 1.0;
    if (!pins.opcode_pinned[v]) {
      opcode_choices += static_cast<double>(replacements_[v].size());
      if (!pins.preserve_count && !pins.delete_forbidden[v]) {
        opcode_choices += 1.0;
      }
    }
    log10_total += std::log10(opcode_choices);

    // Operand choices: every renameable register occurrence can take any
    // family of its class; memory displacements contribute a word-aligned
    // neighborhood factor, unless a preserved memory dependency pins the
    // operand's identity (Γ never shifts it then).
    const auto& inst = block_.instructions[v];
    for (const auto& op : inst.operands) {
      const auto count_family = [&](RegFamily fam, RegClass cls) {
        if ((pins.pinned_families[v] & family_bit(fam)) != 0) return;
        const std::size_t pool = cls == RegClass::Vec
                                     ? x86::vec_families().size()
                                     : x86::substitutable_gpr_families().size();
        log10_total += std::log10(static_cast<double>(pool));
      };
      if (op.is_reg()) {
        const auto& r = op.as_reg();
        count_family(r.family, x86::reg_class(r));
      } else if (op.is_mem()) {
        const auto& m = op.as_mem();
        if (m.base) count_family(m.base->family, RegClass::Gpr);
        if (m.index) count_family(m.index->family, RegClass::Gpr);
        if (!pins.mem_pinned[v]) {
          log10_total += std::log10(16.0);  // displacement neighborhood
        }
      }
    }
  }
  return log10_total;
}

}  // namespace comet::perturb
