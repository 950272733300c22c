#include "graph/depgraph.h"

#include <algorithm>
#include <tuple>

namespace comet::graph {

std::string dep_kind_name(DepKind kind) {
  switch (kind) {
    case DepKind::RAW: return "RAW";
    case DepKind::WAR: return "WAR";
    case DepKind::WAW: return "WAW";
  }
  return "?";
}

namespace {

using x86::InstSemantics;
using x86::Reg;
using x86::RegAccess;

// A single byte-granular register read or write.
struct RegEvent {
  x86::RegFamily family;
  x86::ByteRange range;
};

struct InstEffects {
  std::vector<RegEvent> reg_reads;
  std::vector<RegEvent> reg_writes;
  bool mem_read = false;
  bool mem_write = false;
  std::optional<x86::MemOperand> mem;  // identity of explicit access
  bool stack_read = false;             // implicit stack access (push/pop)
  bool stack_write = false;
  bool flags_read = false;
  bool flags_write = false;
};

InstEffects effects_of(const x86::Instruction& inst) {
  const InstSemantics sem = x86::semantics(inst);
  InstEffects fx;
  for (const RegAccess& a : sem.regs) {
    if (a.read) fx.reg_reads.push_back({a.reg.family, read_range(a.reg)});
    if (a.write) fx.reg_writes.push_back({a.reg.family, write_range(a.reg)});
  }
  if (sem.mem) {
    fx.mem = sem.mem->mem;
    fx.mem_read = sem.mem->read;
    fx.mem_write = sem.mem->write;
  }
  fx.stack_read = sem.stack_mem_read;
  fx.stack_write = sem.stack_mem_write;
  fx.flags_read = sem.reads_flags;
  fx.flags_write = sem.writes_flags;
  return fx;
}

// All families carrying a byte-range conflict between two event sets.
// Returning every family (not just the first) matters for the multigraph:
// two instructions can conflict through several registers at once, and each
// carries its own edge.
std::vector<x86::RegFamily> conflicting_families(
    const std::vector<RegEvent>& earlier, const std::vector<RegEvent>& later) {
  std::vector<x86::RegFamily> out;
  for (const auto& e : earlier) {
    for (const auto& l : later) {
      if (e.family == l.family && e.range.overlaps(l.range)) {
        if (std::find(out.begin(), out.end(), e.family) == out.end()) {
          out.push_back(e.family);
        }
      }
    }
  }
  return out;
}

// Same memory location? Syntactic identity of the address expression
// (ignoring access width).
bool same_location(const std::optional<x86::MemOperand>& a,
                   const std::optional<x86::MemOperand>& b) {
  if (!a || !b) return false;
  return a->base == b->base && a->index == b->index && a->scale == b->scale &&
         a->disp == b->disp;
}

}  // namespace

DepGraph DepGraph::build(const x86::BasicBlock& block,
                         const DepGraphOptions& options) {
  DepGraph g;
  g.num_vertices_ = block.size();

  std::vector<InstEffects> fx;
  fx.reserve(block.size());
  for (const auto& inst : block.instructions) fx.push_back(effects_of(inst));

  // `nearest_only` bookkeeping: once instruction j consumed a hazard of a
  // given (kind, family) from some i, earlier instructions with the same
  // conflict are skipped for j.
  for (std::size_t j = 1; j < block.size(); ++j) {
    std::vector<std::pair<DepKind, x86::RegFamily>> seen;
    const auto already = [&](DepKind k, x86::RegFamily f) {
      return std::find(seen.begin(), seen.end(), std::make_pair(k, f)) !=
             seen.end();
    };
    bool seen_mem[3] = {false, false, false};
    bool seen_flags[3] = {false, false, false};

    for (std::size_t ii = j; ii-- > 0;) {
      const std::size_t i = ii;
      const auto add_reg_edges = [&](DepKind kind,
                                     const std::vector<RegEvent>& earlier,
                                     const std::vector<RegEvent>& later) {
        for (const x86::RegFamily fam :
             conflicting_families(earlier, later)) {
          if (options.nearest_only && already(kind, fam)) continue;
          g.edges_.push_back({i, j, kind, DepResource::Register, fam});
          if (options.nearest_only) seen.emplace_back(kind, fam);
        }
      };
      // RAW: i writes a register that j reads.
      add_reg_edges(DepKind::RAW, fx[i].reg_writes, fx[j].reg_reads);
      // WAR: i reads a register that j writes.
      add_reg_edges(DepKind::WAR, fx[i].reg_reads, fx[j].reg_writes);
      // WAW: both write the same register.
      add_reg_edges(DepKind::WAW, fx[i].reg_writes, fx[j].reg_writes);

      // Memory hazards on the explicit memory operand.
      if (same_location(fx[i].mem, fx[j].mem)) {
        const auto add_mem = [&](DepKind k, bool cond) {
          if (!cond) return;
          const auto ki = static_cast<std::size_t>(k);
          if (options.nearest_only && seen_mem[ki]) return;
          g.edges_.push_back({i, j, k, DepResource::Memory,
                              x86::RegFamily::RAX});
          if (options.nearest_only) seen_mem[ki] = true;
        };
        add_mem(DepKind::RAW, fx[i].mem_write && fx[j].mem_read);
        add_mem(DepKind::WAR, fx[i].mem_read && fx[j].mem_write);
        add_mem(DepKind::WAW, fx[i].mem_write && fx[j].mem_write);
      }

      // Flag hazards (usually excluded; see header).
      if (options.include_flag_deps) {
        const auto add_flags = [&](DepKind k, bool cond) {
          if (!cond) return;
          const auto ki = static_cast<std::size_t>(k);
          if (options.nearest_only && seen_flags[ki]) return;
          g.edges_.push_back({i, j, k, DepResource::Flags,
                              x86::RegFamily::FLAGS});
          if (options.nearest_only) seen_flags[ki] = true;
        };
        add_flags(DepKind::RAW, fx[i].flags_write && fx[j].flags_read);
        add_flags(DepKind::WAR, fx[i].flags_read && fx[j].flags_write);
        add_flags(DepKind::WAW, fx[i].flags_write && fx[j].flags_write);
      }
    }
  }

  // Deterministic order: by (from, to, kind, resource).
  std::sort(g.edges_.begin(), g.edges_.end(), [](const DepEdge& a,
                                                 const DepEdge& b) {
    return std::tie(a.from, a.to, a.kind, a.resource, a.family) <
           std::tie(b.from, b.to, b.kind, b.resource, b.family);
  });
  g.edges_.erase(std::unique(g.edges_.begin(), g.edges_.end()),
                 g.edges_.end());
  return g;
}

std::vector<DepEdge> DepGraph::edges_of(std::size_t v) const {
  std::vector<DepEdge> out;
  for (const auto& e : edges_) {
    if (e.from == v || e.to == v) out.push_back(e);
  }
  return out;
}

bool DepGraph::has_edge(std::size_t from, std::size_t to, DepKind kind) const {
  for (const auto& e : edges_) {
    if (e.from == from && e.to == to && e.kind == kind) return true;
  }
  return false;
}

std::string DepGraph::to_string() const {
  std::string out;
  for (const auto& e : edges_) {
    out += dep_kind_name(e.kind) + " " + std::to_string(e.from) + " -> " +
           std::to_string(e.to);
    switch (e.resource) {
      case DepResource::Register:
        out += " (reg " + x86::reg_name(x86::Reg{e.family, 64, false}) + ")";
        break;
      case DepResource::Memory: out += " (mem)"; break;
      case DepResource::Flags: out += " (flags)"; break;
    }
    out += '\n';
  }
  return out;
}

}  // namespace comet::graph
