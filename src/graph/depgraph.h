// Dependency multigraph construction (paper Figure 1(a)/(ii), Section 5.1).
//
// A basic block is cast into a multigraph G = (V, E): vertices are the
// block's instructions annotated with their positions, and directed edges
// connect instruction pairs with data-dependency hazards, labeled by hazard
// kind (RAW / WAR / WAW). Multiple edges — including of different kinds —
// may exist between the same pair of vertices (hence multigraph).
//
// Hazards are detected from the catalog access semantics:
//  * register hazards via byte-range overlap within a register family
//    (so `mov rdx, rcx` depends on `add rcx, rax`, and `al`/`ah` do not
//    conflict);
//  * memory hazards between syntactically identical address expressions
//    (the standard basic-block approximation);
//  * flag hazards are modeled but excluded by default — flag-carried edges
//    between nearly every pair of ALU instructions would drown the feature
//    space that explanations are built from.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/vocabulary.h"
#include "x86/instruction.h"

namespace comet::graph {

/// What resource carries the hazard.
enum class DepResource : std::uint8_t { Register, Memory, Flags };

/// One dependency edge: instruction `from` must (partially) order before
/// instruction `to` because of a hazard of kind `kind` on `resource`.
struct DepEdge {
  std::size_t from = 0;  ///< producer/earlier instruction index
  std::size_t to = 0;    ///< consumer/later instruction index
  DepKind kind = DepKind::RAW;
  DepResource resource = DepResource::Register;
  /// For register hazards, the family that carries the dependency.
  x86::RegFamily family = x86::RegFamily::RAX;

  bool operator==(const DepEdge&) const = default;
};

struct DepGraphOptions {
  /// Include flag-carried hazards as edges.
  bool include_flag_deps = false;
  /// Only link each consumer to the *nearest* earlier conflicting writer
  /// (classic def-use chains) rather than every earlier conflicting access.
  bool nearest_only = true;
};

/// The dependency multigraph of a basic block.
class DepGraph {
 public:
  DepGraph() = default;

  /// Build the multigraph of `block`. Throws if the block is invalid.
  static DepGraph build(const x86::BasicBlock& block,
                        const DepGraphOptions& options = {});

  std::size_t num_vertices() const { return num_vertices_; }
  const std::vector<DepEdge>& edges() const { return edges_; }

  /// Does an edge from `from` to `to` of `kind` exist (any resource)?
  bool has_edge(std::size_t from, std::size_t to, DepKind kind) const;

  /// Human-readable dump, one edge per line.
  std::string to_string() const;

 private:
  std::size_t num_vertices_ = 0;
  std::vector<DepEdge> edges_;
};

/// Does `DepGraph::build(block, options).has_edge(from, to, kind)` hold?
/// The same answer, without the graph: reads only instructions from..to,
/// which must be valid. This is Γ's containment test for Dep features.
bool has_dep_edge(const x86::BasicBlock& block, std::size_t from,
                  std::size_t to, DepKind kind,
                  const DepGraphOptions& options = {});

}  // namespace comet::graph
