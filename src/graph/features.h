// Block features P̂ for x86 blocks (paper Figure 1(iii), Section 5.1): the
// shared vocabulary of graph/vocabulary.h bound to x86::Opcode, plus
// feature extraction from the x86 dependency graph.
#pragma once

#include "graph/depgraph.h"
#include "graph/vocabulary.h"
#include "x86/instruction.h"

namespace comet::graph {

using InstFeature = InstFeatureOf<x86::Opcode>;
using Feature = FeatureOf<x86::Opcode>;
using FeatureSet = FeatureSetOf<x86::Opcode>;

/// Extract P̂ for a block: one InstFeature per instruction, one DepFeature
/// per distinct (from, to, kind) hazard, and the NumInstsFeature.
FeatureSet extract_features(const x86::BasicBlock& block,
                            const DepGraphOptions& options = {});

}  // namespace comet::graph
