// Dependency multigraph and feature extraction for RISC-V blocks — the ISA
// mapping of paper Section 5.1.
//
// Vertices are instructions, directed edges are RAW/WAR/WAW hazards on
// registers (x0 carries none) and on syntactically identical memory
// locations (same base register and offset). Each consumer links only to
// the nearest conflicting access per register and kind, and to the nearest
// conflicting access of its memory location. The feature vocabulary
// (positional instructions, hazards, η) is the shared one of
// graph/vocabulary.h bound to riscv::Opcode; the Rv* names are aliases.
#pragma once

#include <string>
#include <vector>

#include "graph/vocabulary.h"
#include "riscv/isa.h"

namespace comet::riscv {

using graph::DepKind;

struct DepEdge {
  std::size_t from = 0;
  std::size_t to = 0;
  DepKind kind = DepKind::RAW;
  bool memory = false;  ///< carried by a memory location, not a register
  Reg reg{};            ///< carrying register (when !memory)
  bool operator==(const DepEdge&) const = default;
};

class DepGraph {
 public:
  DepGraph() = default;
  static DepGraph build(const BasicBlock& block);

  std::size_t num_vertices() const { return num_vertices_; }
  const std::vector<DepEdge>& edges() const { return edges_; }
  bool has_edge(std::size_t from, std::size_t to, DepKind kind) const;
  std::string to_string() const;

 private:
  std::size_t num_vertices_ = 0;
  std::vector<DepEdge> edges_;
};

using RvInstFeature = graph::InstFeatureOf<Opcode>;
using RvDepFeature = graph::DepFeature;
using RvNumInstsFeature = graph::NumInstsFeature;
using RvFeature = graph::FeatureOf<Opcode>;
using RvFeatureSet = graph::FeatureSetOf<Opcode>;

/// Extract P̂ for a RISC-V block.
RvFeatureSet extract_features(const BasicBlock& block);

}  // namespace comet::riscv
