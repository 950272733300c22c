#include "riscv/graph.h"

#include <algorithm>
#include <map>

namespace comet::riscv {

DepGraph DepGraph::build(const BasicBlock& block,
                         const DepGraphOptions& options) {
  DepGraph g;
  g.num_vertices_ = block.size();

  std::vector<RvSemantics> sems;
  sems.reserve(block.size());
  for (const auto& inst : block.instructions) {
    sems.push_back(semantics(inst));
  }

  // Memory identity: (base register, offset).
  const auto mem_key = [&](const Instruction& inst) {
    return std::pair<std::uint8_t, std::int64_t>(inst.rs1.index, inst.imm);
  };

  for (std::size_t j = 0; j < block.size(); ++j) {
    const auto& sj = sems[j];
    // Register hazards: scan backwards; nearest_only stops at the first
    // conflicting access per (register, kind).
    std::map<std::pair<std::uint8_t, int>, bool> linked;
    for (std::size_t bi = j; bi-- > 0;) {
      const auto& si = sems[bi];
      const auto add = [&](DepKind kind, Reg r) {
        const auto key = std::pair<std::uint8_t, int>(r.index, int(kind));
        if (options.nearest_only && linked[key]) return;
        linked[key] = true;
        DepEdge e;
        e.from = bi;
        e.to = j;
        e.kind = kind;
        e.reg = r;
        g.edges_.push_back(e);
      };
      // RAW: j reads something i writes.
      if (si.write) {
        for (const Reg r : sj.reads) {
          if (r == *si.write) add(DepKind::RAW, r);
        }
      }
      // WAR: j writes something i reads.
      if (sj.write) {
        for (const Reg r : si.reads) {
          if (r == *sj.write) add(DepKind::WAR, r);
        }
      }
      // WAW: both write the same register.
      if (si.write && sj.write && *si.write == *sj.write) {
        add(DepKind::WAW, *sj.write);
      }
    }
    // Memory hazards between syntactically identical locations.
    if (sj.mem_read || sj.mem_write) {
      for (std::size_t bi = j; bi-- > 0;) {
        const auto& si = sems[bi];
        if (!si.mem_read && !si.mem_write) continue;
        if (mem_key(block.instructions[bi]) !=
            mem_key(block.instructions[j])) {
          continue;
        }
        DepEdge e;
        e.from = bi;
        e.to = j;
        e.memory = true;
        if (si.mem_write && sj.mem_read) {
          e.kind = DepKind::RAW;
        } else if (si.mem_read && sj.mem_write) {
          e.kind = DepKind::WAR;
        } else if (si.mem_write && sj.mem_write) {
          e.kind = DepKind::WAW;
        } else {
          continue;  // read-read is no hazard
        }
        g.edges_.push_back(e);
        if (options.nearest_only) break;
      }
    }
  }
  return g;
}

bool DepGraph::has_edge(std::size_t from, std::size_t to,
                        DepKind kind) const {
  return std::any_of(edges_.begin(), edges_.end(), [&](const DepEdge& e) {
    return e.from == from && e.to == to && e.kind == kind;
  });
}

std::string DepGraph::to_string() const {
  std::string out;
  for (const auto& e : edges_) {
    out += dep_kind_name(e.kind) + "(" + std::to_string(e.from + 1) + "->" +
           std::to_string(e.to + 1) + ") via " +
           (e.memory ? "memory" : std::string(reg_name(e.reg))) + "\n";
  }
  return out;
}

RvFeatureSet extract_features(const BasicBlock& block,
                              const DepGraphOptions& options) {
  RvFeatureSet fs;
  for (std::size_t i = 0; i < block.size(); ++i) {
    fs.insert(RvFeature(RvInstFeature{i, block.instructions[i].opcode}));
  }
  const DepGraph g = DepGraph::build(block, options);
  for (const auto& e : g.edges()) {
    fs.insert(RvFeature(RvDepFeature{e.from, e.to, e.kind}));
  }
  fs.insert(RvFeature(RvNumInstsFeature{block.size()}));
  return fs;
}

}  // namespace comet::riscv
