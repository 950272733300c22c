// The perturbation algorithm Γ mapped onto RISC-V (paper Section 7).
//
// Same independence structure as the x86 Γ (Algorithm 1): vertices perturb
// opcodes only (replacement within the encoding format, or deletion when η
// need not be preserved), edges perturb registers only (a hazard is broken
// by renaming its carrying occurrence to a register unused in the block),
// and the opcodes plus carrying registers of every preserved dependency are
// pinned.
//
// Instance-specific challenges, as the paper predicts, and how they land
// here:
//   * x0 is hardwired zero: it never carries a dependency, is never chosen
//     as a rename target for a destination, and writing to it is legal but
//     dead — the dependency graph (not the syntax) is what Γ must respect.
//   * sp-relative loads/stores share a base register by convention, so
//     memory hazards are broken by shifting the 12-bit offset rather than
//     renaming the base (renaming sp would perturb every other stack access
//     — a dependence between edge perturbations Γ must avoid).
//
// Γ's retain and delete probabilities are constants of perturb.cpp: no
// caller varies them, so RvPerturber takes only the block.
#pragma once

#include <cstdint>
#include <vector>

#include "riscv/graph.h"
#include "util/rng.h"

namespace comet::riscv {

using RvPerturbedBlock = graph::PerturbedBlockOf<BasicBlock>;

class RvPerturber {
 public:
  explicit RvPerturber(BasicBlock block);

  const BasicBlock& block() const { return block_; }

  /// Sample β' ~ D_F retaining every feature in `preserve`.
  RvPerturbedBlock sample(const RvFeatureSet& preserve, util::Rng& rng) const;

  /// Does the perturbed block still contain every feature in `fs`?
  bool contains(const RvPerturbedBlock& pb, const RvFeatureSet& fs) const;

 private:
  BasicBlock block_;
  DepGraph graph_;
};

}  // namespace comet::riscv
