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
//    p_I,ret = 0.5; deletion is chosen over replacement with probability
//    p_delete.
//  * Edge (data-dependency) perturbation changes only operands: the hazard
//    is broken by renaming the carrying register occurrences on one endpoint
//    to a fresh register of the same class and width, or — for memory-carried
//    hazards — by shifting the displacement. The rename target is a family
//    the block does not touch whenever one exists. Retention probability is
//    p_D,ret = 0.5, with an additional explicit-retention lottery
//    (p_explicit_dep_retain, Appendix E.3) that pins a dependency outright.
//  * Opcodes of both endpoints of every preserved dependency are pinned, as
//    are the register occurrences that carry it.
//
// Perturbation probabilities are block-specific in practice (Appendix D):
// instructions with no valid replacement (e.g. lea) and hazards carried by
// implicit operands (e.g. div's rax) fail to perturb and are retained, so
// the effective retention probability exceeds the nominal one.
//
// p_I,ret and p_D,ret are fixed in the paper's setup, so they are constants
// of perturber.cpp; PerturbConfig holds only what the Appendix E ablations
// vary.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/depgraph.h"
#include "graph/features.h"
#include "util/rng.h"
#include "x86/instruction.h"

namespace comet::perturb {

/// The settings of Γ that the Appendix E ablations vary.
struct PerturbConfig {
  double p_delete = 0.33;              ///< p_del (Appendix E.2)
  double p_explicit_dep_retain = 0.1;  ///< explicit retention (App. E.3)
  /// Appendix E.4 ablation: when replacing an instruction, also re-randomize
  /// its unpinned register operands (default: opcode-only replacement).
  bool whole_instruction_replacement = false;
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
  ///
  /// The per-call working state (pins, edge lists, deletion and family
  /// bookkeeping, a rename's backup instruction) lives in one scratch per
  /// thread, cleared but not freed between calls, so a steady stream of
  /// samples allocates only the returned block. Nothing in the scratch
  /// outlives one call: its edge pointers point into this Perturber's
  /// graph, and the next call, from any Perturber, overwrites them. No
  /// state is kept in the Perturber, so a `const Perturber` stays safe to
  /// sample from many threads at once.
  PerturbedBlock sample(const graph::FeatureSet& preserve,
                        util::Rng& rng) const;

  /// The same sample, drawn into `out`: β is copy-assigned into it, reusing
  /// its instruction and operand storage, and edited in place. Draws from
  /// `rng` exactly as the by-value form does, which wraps this one, so a
  /// caller that keeps one slot per stream allocates only where a sample
  /// outgrows the slot.
  void sample(const graph::FeatureSet& preserve, util::Rng& rng,
              PerturbedBlock& out) const;

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
