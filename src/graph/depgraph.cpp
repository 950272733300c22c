#include "graph/depgraph.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <tuple>

#include "util/inline_vec.h"

namespace comet::graph {

namespace {

using x86::family_bit;
using x86::FamilyMask;
using x86::InstSemantics;
using x86::RegAccess;

constexpr DepKind kKinds[] = {DepKind::RAW, DepKind::WAR, DepKind::WAW};

// A single byte-granular register read or write.
struct RegEvent {
  x86::RegFamily family;
  x86::ByteRange range;
};

// Every register access yields at most one read and one write event.
using RegEvents = util::InlineVec<RegEvent, x86::RegAccessList::kCapacity>;

struct InstEffects {
  RegEvents reg_reads;
  RegEvents reg_writes;
  bool mem_read = false;
  bool mem_write = false;
  std::optional<x86::MemOperand> mem;  // identity of explicit access
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
  fx.flags_read = sem.reads_flags;
  fx.flags_write = sem.writes_flags;
  return fx;
}

// All families carrying a byte-range conflict between two event sets.
// Every family counts (not just the first): two instructions can conflict
// through several registers at once, and each carries its own edge.
FamilyMask conflicting_families(const RegEvents& earlier,
                                const RegEvents& later) {
  FamilyMask out = 0;
  for (const auto& e : earlier) {
    for (const auto& l : later) {
      if (e.family == l.family && e.range.overlaps(l.range)) {
        out |= family_bit(e.family);
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

// The three hazard tests between an earlier instruction `a` and a later
// instruction `b`. RAW: `a` writes what `b` reads; WAR: `a` reads what `b`
// writes; WAW: both write it.
FamilyMask reg_hazard(DepKind kind, const InstEffects& a,
                      const InstEffects& b) {
  switch (kind) {
    case DepKind::RAW: return conflicting_families(a.reg_writes, b.reg_reads);
    case DepKind::WAR: return conflicting_families(a.reg_reads, b.reg_writes);
    case DepKind::WAW: return conflicting_families(a.reg_writes, b.reg_writes);
  }
  return 0;
}

bool access_hazard(DepKind kind, bool a_read, bool a_write, bool b_read,
                   bool b_write) {
  switch (kind) {
    case DepKind::RAW: return a_write && b_read;
    case DepKind::WAR: return a_read && b_write;
    case DepKind::WAW: return a_write && b_write;
  }
  return false;
}

// Memory hazards are on the explicit memory operand only.
bool mem_hazard(DepKind kind, const InstEffects& a, const InstEffects& b) {
  return same_location(a.mem, b.mem) &&
         access_hazard(kind, a.mem_read, a.mem_write, b.mem_read, b.mem_write);
}

bool flag_hazard(DepKind kind, const InstEffects& a, const InstEffects& b) {
  return access_hazard(kind, a.flags_read, a.flags_write, b.flags_read,
                       b.flags_write);
}

}  // namespace

DepGraph DepGraph::build(const x86::BasicBlock& block,
                         const DepGraphOptions& options) {
  DepGraph g;
  g.num_vertices_ = block.size();

  std::vector<InstEffects> fx;
  fx.reserve(block.size());
  for (const auto& inst : block.instructions) fx.push_back(effects_of(inst));

  // Each consumer j links only to its nearest conflicting access (classic
  // def-use chains): once j consumed a hazard of a given kind on a given
  // resource from some i, earlier instructions with the same conflict are
  // skipped for j.
  for (std::size_t j = 1; j < block.size(); ++j) {
    FamilyMask seen_regs[3] = {0, 0, 0};
    bool seen_mem[3] = {false, false, false};
    bool seen_flags[3] = {false, false, false};

    for (std::size_t i = j; i-- > 0;) {
      for (const DepKind kind : kKinds) {
        const auto k = static_cast<std::size_t>(kind);
        const FamilyMask fams = reg_hazard(kind, fx[i], fx[j]) & ~seen_regs[k];
        seen_regs[k] |= fams;
        for (FamilyMask m = fams; m != 0; m &= m - 1) {
          g.edges_.push_back(
              {i, j, kind, DepResource::Register,
               static_cast<x86::RegFamily>(std::countr_zero(m))});
        }

        if (!seen_mem[k] && mem_hazard(kind, fx[i], fx[j])) {
          g.edges_.push_back({i, j, kind, DepResource::Memory,
                              x86::RegFamily::RAX});
          seen_mem[k] = true;
        }

        // Flag hazards (usually excluded; see header).
        if (options.include_flag_deps && !seen_flags[k] &&
            flag_hazard(kind, fx[i], fx[j])) {
          g.edges_.push_back({i, j, kind, DepResource::Flags,
                              x86::RegFamily::FLAGS});
          seen_flags[k] = true;
        }
      }
    }
  }

  // Deterministic order: by (from, to, kind, resource, family).
  std::sort(g.edges_.begin(), g.edges_.end(), [](const DepEdge& a,
                                                 const DepEdge& b) {
    return std::tie(a.from, a.to, a.kind, a.resource, a.family) <
           std::tie(b.from, b.to, b.kind, b.resource, b.family);
  });
  g.edges_.erase(std::unique(g.edges_.begin(), g.edges_.end()),
                 g.edges_.end());
  return g;
}

bool has_dep_edge(const x86::BasicBlock& block, std::size_t from,
                  std::size_t to, DepKind kind,
                  const DepGraphOptions& options) {
  if (from >= to || to >= block.size()) return false;
  const InstEffects later = effects_of(block.instructions[to]);
  const InstEffects earlier = effects_of(block.instructions[from]);
  // Everything that carries a `kind` hazard from `from` into `to`...
  FamilyMask regs = reg_hazard(kind, earlier, later);
  bool mem = mem_hazard(kind, earlier, later);
  bool flags = options.include_flag_deps && flag_hazard(kind, earlier, later);
  // ...minus what an instruction in between carries into `to` with the same
  // hazard: build() links `to` to that nearer instruction instead.
  for (std::size_t k = from + 1; k < to && (regs != 0 || mem || flags); ++k) {
    const InstEffects mid = effects_of(block.instructions[k]);
    regs &= ~reg_hazard(kind, mid, later);
    mem = mem && !mem_hazard(kind, mid, later);
    flags = flags && !flag_hazard(kind, mid, later);
  }
  return regs != 0 || mem || flags;
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
