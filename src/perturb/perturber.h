// COMET's basic-block perturbation algorithm Γ (paper Section 5.2,
// Algorithm 1, Appendices C-D).
//
// Given a basic block β and a set of features F ⊆ P̂ to preserve, Γ samples
// a perturbed block β' from the distribution D_F: every feature of β that is
// not (explicitly or voluntarily) retained is independently perturbed to a
// value valid under the ISA.
//
//  * Vertex (instruction) perturbation changes only the opcode: the opcode
//    is replaced by another that accepts the original operands, or — when
//    the instruction count η need not be preserved and the vertex is not
//    pinned — the instruction is deleted outright. Retention probability is
//    p_inst_retain; deletion is chosen over replacement with probability
//    p_delete.
//  * Edge (data-dependency) perturbation changes only operands: the hazard
//    is broken by renaming the carrying register occurrences on one endpoint
//    to a fresh register of the same class and width, or — for memory-carried
//    hazards — by shifting the displacement. Retention probability is
//    p_dep_retain, with an additional explicit-retention lottery
//    (p_explicit_dep_retain, Appendix E.3) that pins a dependency outright.
//  * Opcodes of both endpoints of every preserved dependency are pinned, as
//    are the register occurrences that carry it.
//
// Perturbation probabilities are block-specific in practice (Appendix D):
// instructions with no valid replacement (e.g. lea) and hazards carried by
// implicit operands (e.g. div's rax) fail to perturb and are retained, so
// the effective retention probability exceeds the configured one.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/depgraph.h"
#include "graph/features.h"
#include "util/rng.h"
#include "x86/instruction.h"

namespace comet::perturb {

/// Tunable probabilities of Γ (paper Section 6 experimental setup and
/// Appendix E ablations).
struct PerturbConfig {
  double p_inst_retain = 0.5;          ///< p_I,ret
  double p_dep_retain = 0.5;           ///< p_D,ret
  double p_delete = 0.33;              ///< p_del (Appendix E.2)
  double p_explicit_dep_retain = 0.1;  ///< explicit retention (App. E.3)
  /// Appendix E.4 ablation: when replacing an instruction, also re-randomize
  /// its unpinned register operands (default: opcode-only replacement).
  bool whole_instruction_replacement = false;
  /// Prefer rename targets not used anywhere in the block when breaking a
  /// dependency, so a break does not accidentally create a new dependency.
  /// Disabled only by test_perturb_golden and fuzz_perturber, which cover
  /// the non-fresh rename path.
  bool prefer_fresh_rename = true;
};

/// A perturbed x86 block with its positional mapping back to β.
using PerturbedBlock = graph::PerturbedBlockOf<x86::BasicBlock>;

/// Γ for a fixed target block. Construction precomputes the dependency
/// multigraph and per-instruction replacement candidate sets, so sampling
/// is cheap (thousands of samples per explanation).
class Perturber {
 public:
  explicit Perturber(x86::BasicBlock block,
                     graph::DepGraphOptions graph_options = {},
                     PerturbConfig config = {});

  const x86::BasicBlock& block() const { return block_; }
  const graph::DepGraph& dep_graph() const { return graph_; }

  /// Sample β' ~ D_F: a random perturbation retaining all features in
  /// `preserve`. With an empty set this samples from D = D_∅.
  PerturbedBlock sample(const graph::FeatureSet& preserve,
                        util::Rng& rng) const;

  /// Does the perturbed block still contain every feature in `fs`?
  /// (The containment predicate that defines coverage, eq. 6.)
  bool contains(const PerturbedBlock& pb, const graph::FeatureSet& fs) const;

  /// log10 of the estimated cardinality of the perturbation space Π̂(F)
  /// (Appendix F): the product over perturbable elements of their choice
  /// counts.
  double log10_space_size(const graph::FeatureSet& preserve) const;

 private:
  x86::BasicBlock block_;
  graph::DepGraphOptions graph_options_;
  PerturbConfig config_;
  graph::DepGraph graph_;
  /// Per-instruction opcode replacement candidates.
  std::vector<std::vector<x86::Opcode>> replacements_;
  /// Per-instruction mask (bit = RegFamily) of the register families each
  /// original instruction touches: explicit operands, address registers
  /// and implicit effects. Seeds each sample's `used_by` bookkeeping, which
  /// makes Γ's fresh-rename-target test a mask test.
  std::vector<std::uint64_t> families_;
};

}  // namespace comet::perturb
