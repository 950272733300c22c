#include "sim/pipeline.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "cost/throughput_table.h"
#include "util/contract.h"

namespace comet::sim {

namespace {

using cost::MicroArch;
using x86::OpClass;
using x86::Opcode;
using x86::family_bit;
using x86::FamilyMask;
using x86::RegFamily;

constexpr int kNumPorts = 8;
constexpr double kNever = -std::numeric_limits<double>::infinity();


// Execution-port mask (bit i = port i) for the compute uop of an opcode
// class, per microarchitecture. Port numbering follows Intel convention:
// 0/1/5/6 integer ALU, 0/1 FP, 2/3 load, 4 store-data, 7 store-address.
std::uint16_t compute_ports(OpClass cls, MicroArch u) {
  const bool skl = u == MicroArch::Skylake;
  switch (cls) {
    case OpClass::Mov:
    case OpClass::IntAlu:
    case OpClass::Stack:
      return 0b01100011;  // p0 p1 p5 p6
    case OpClass::Shift:
      return 0b01000001;  // p0 p6
    case OpClass::Lea:
      return 0b00100010;  // p1 p5
    case OpClass::IntMul:
      return 0b00000010;  // p1
    case OpClass::IntDiv:
      return 0b00000001;  // p0 (divider)
    case OpClass::Nop:
      return 0b01100011;
    case OpClass::FpMov:
      return 0b00100011;  // p0 p1 p5
    case OpClass::FpAdd:
      return skl ? 0b00000011   // SKL: p0 p1
                 : 0b00000010;  // HSW: p1 only
    case OpClass::FpMul:
    case OpClass::FpFma:
      return 0b00000011;  // p0 p1
    case OpClass::FpDiv:
      return 0b00000001;  // p0 (divider)
    case OpClass::VecInt:
      return 0b00100011;  // p0 p1 p5
    case OpClass::VecIntMul:
      return skl ? 0b00000011 : 0b00000001;
    case OpClass::Shuffle:
      return 0b00100000;  // p5
    case OpClass::Convert:
      return 0b00000011;
  }
  return 0b01100011;
}

/// The ports of a non-empty port mask, in ascending order.
struct PortList {
  std::array<std::uint8_t, kNumPorts> port{};
  int count = 0;
};

constexpr PortList port_list(std::uint16_t mask) {
  PortList l;
  for (int p = 0; p < kNumPorts; ++p) {
    if ((mask >> p) & 1) l.port[l.count++] = static_cast<std::uint8_t>(p);
  }
  return l;
}

constexpr PortList kLoadPorts = port_list(0b00001100);       // p2 p3
constexpr PortList kStoreDataPorts = port_list(0b00010000);  // p4
constexpr PortList kStoreAddrPorts = port_list(0b10001100);  // p2 p3 p7

struct PortFile {
  std::array<double, kNumPorts> free_at{};  // next free cycle per port
  int last_port = -1;  ///< port chosen by the most recent dispatch

  /// Dispatch a uop with earliest start `ready` on one of `ports`,
  /// occupying the chosen port for `occupancy` cycles. Returns start time.
  /// Ties on start time go to the least-loaded (earliest-free) port, so
  /// un-contended uops spread across their port set instead of queueing
  /// behind an arbitrary fixed pick — this is what makes the per-port
  /// pressure numbers in SimTrace meaningful. Remaining ties go to the
  /// lowest port. The best port is kept with selects rather than branches,
  /// since which port wins is data-dependent.
  double dispatch(double ready, const PortList& ports, double occupancy) {
    int best = ports.port[0];
    double best_free = free_at[best];
    double best_start = std::max(ready, best_free);
    for (int k = 1; k < ports.count; ++k) {
      const int p = ports.port[k];
      const double free = free_at[p];
      const double start = std::max(ready, free);
      const bool better =
          start < best_start || (start == best_start && free < best_free);
      best = better ? p : best;
      best_free = better ? free : best_free;
      best_start = better ? start : best_start;
    }
    last_port = best;
    free_at[best] = best_start + occupancy;
    return best_start;
  }
};

// Two memory operands name the same location iff their address
// expressions match syntactically: base, index and displacement, plus the
// scale when there is an index. The access width is not part of it.
bool same_location(const x86::MemOperand& a, const x86::MemOperand& b) {
  return a.base == b.base && a.index == b.index && a.disp == b.disp &&
         (!a.index || a.scale == b.scale);
}

/// One instruction, decoded once per simulate_throughput call.
struct DecodedInst {
  FamilyMask reads = 0;       ///< register families read
  FamilyMask writes = 0;      ///< families ready at `finish`
  bool rsp_at_issue = false;  ///< stack engine: rsp ready at issue + 1
  int mem_read_slot = -1;     ///< address slot of an explicit load, or -1
  int mem_write_slot = -1;    ///< address slot of an explicit store, or -1
  PortList ports;             ///< ports of the compute uop
  double latency;
  double occupancy;
  bool zero_idiom;
  bool load;
  bool store;
  int uops;
};

/// Decode `inst`, interning its memory operand into `slots` (one
/// representative operand per distinct location).
DecodedInst decode(const x86::Instruction& inst, MicroArch u,
                   const SimOptions& opt,
                   std::vector<x86::MemOperand>& slots) {
  DecodedInst d;
  const auto sem = x86::semantics(inst);
  const auto& inf = x86::info(inst.opcode);
  for (const auto& a : sem.regs) {
    if (a.read) d.reads |= family_bit(a.reg.family);
    if (a.write) d.writes |= family_bit(a.reg.family);
  }
  // The stack engine renames rsp at issue: push/pop do not put the
  // stack-pointer update on the latency-critical path.
  constexpr FamilyMask kRsp = family_bit(RegFamily::RSP);
  if (inf.cls == OpClass::Stack && (d.writes & kRsp) != 0) {
    d.writes &= ~kRsp;
    d.rsp_at_issue = true;
  }
  if (sem.mem) {
    std::size_t slot = 0;
    while (slot < slots.size() && !same_location(slots[slot], sem.mem->mem)) {
      ++slot;
    }
    if (slot == slots.size()) slots.push_back(sem.mem->mem);
    if (sem.mem->read) d.mem_read_slot = static_cast<int>(slot);
    if (sem.mem->write) d.mem_write_slot = static_cast<int>(slot);
  }
  d.ports = port_list(compute_ports(inf.cls, u));
  d.load = (sem.mem && sem.mem->read) || sem.stack_mem_read;
  d.store = (sem.mem && sem.mem->write) || sem.stack_mem_write;
  d.uops = 1 + (d.load ? 1 : 0) + (d.store ? 2 : 0);

  const auto timing = cost::inst_timing(inst, u, d.load, d.store);
  double lat = timing.latency * opt.latency_scale;
  if (opt.round_latencies) lat = std::max(1.0, std::round(lat));
  d.latency = lat;

  // Non-pipelined units (dividers) occupy their port for the reciprocal
  // throughput; pipelined ops occupy one cycle.
  const double rt = timing.rthroughput;
  const bool divider =
      inf.cls == OpClass::IntDiv || inf.cls == OpClass::FpDiv;
  d.occupancy = divider ? rt + opt.div_occupancy_extra
                        : std::min(1.0, std::max(0.25, rt));

  d.zero_idiom = opt.zero_idiom && is_zero_idiom(inst);
  return d;
}

}  // namespace

bool is_zero_idiom(const x86::Instruction& inst) {
  switch (inst.opcode) {
    case Opcode::XOR:
    case Opcode::SUB:
    case Opcode::PXOR:
    case Opcode::XORPS:
    case Opcode::XORPD:
      break;
    case Opcode::VXORPS: {
      // vxorps dst, a, a with a == a.
      if (inst.operands.size() == 3 && inst.operands[1].is_reg() &&
          inst.operands[2].is_reg() &&
          inst.operands[1].as_reg() == inst.operands[2].as_reg()) {
        return true;
      }
      return false;
    }
    default:
      return false;
  }
  return inst.operands.size() == 2 && inst.operands[0].is_reg() &&
         inst.operands[1].is_reg() &&
         inst.operands[0].as_reg() == inst.operands[1].as_reg();
}

int uop_count(const x86::Instruction& inst) {
  const auto sem = x86::semantics(inst);
  int uops = 1;
  if ((sem.mem && sem.mem->read) || sem.stack_mem_read) uops += 1;
  if ((sem.mem && sem.mem->write) || sem.stack_mem_write) uops += 2;
  return uops;
}

double simulate_throughput(const x86::BasicBlock& block,
                           cost::MicroArch uarch, const SimOptions& opt,
                           SimTrace* trace) {
  COMET_CHECK_MSG(opt.issue_width >= 1, "issue_width=" << opt.issue_width);
  COMET_CHECK_MSG(std::isfinite(opt.latency_scale) && opt.latency_scale > 0,
                  "latency_scale=" << opt.latency_scale);
  COMET_CHECK_MSG(
      std::isfinite(opt.div_occupancy_extra) && opt.div_occupancy_extra >= 0,
      "div_occupancy_extra=" << opt.div_occupancy_extra);
  if (block.empty()) return 0.0;

  // Per-call working buffers, kept per thread and cleared, not freed,
  // between calls: a model evaluates thousands of blocks per explanation.
  struct Scratch {
    std::vector<DecodedInst> dec;
    std::vector<x86::MemOperand> slots;
    std::vector<double> mem_ready;
  };
  thread_local Scratch scratch;
  std::vector<DecodedInst>& dec = scratch.dec;
  std::vector<x86::MemOperand>& slots = scratch.slots;
  dec.clear();
  slots.clear();
  int uops_per_iter = 0;
  for (const auto& inst : block.instructions) {
    dec.push_back(decode(inst, uarch, opt, slots));
    uops_per_iter += dec.back().uops;
  }

  // Result-ready time per register family and per memory slot; kNever
  // (-inf) means no producer yet, and max(t, kNever) == t exactly.
  PortFile ports;
  std::array<double, static_cast<std::size_t>(RegFamily::kCount)> reg_ready;
  reg_ready.fill(kNever);
  std::vector<double>& mem_ready = scratch.mem_ready;
  mem_ready.assign(slots.size(), kNever);
  long uops_issued = 0;
  double iter_mark_mid = 0.0;
  double iter_mark_end = 0.0;
  const int n_iter = std::max(8, opt.iterations);
  const int mid = n_iter / 2;
  double max_finish = 0.0;

  if (trace != nullptr) {
    *trace = SimTrace{};
    trace->window_iterations = n_iter - mid;
    trace->uops_per_iteration = uops_per_iter;
    trace->frontend_stalls.assign(block.size(), 0);
    trace->dependency_stalls.assign(block.size(), 0);
    trace->port_stalls.assign(block.size(), 0);
  }

  // Record one dispatched uop into the trace's port-busy accounting.
  const auto note_busy = [&](bool in_window, double occupancy) {
    if (trace == nullptr || !in_window || ports.last_port < 0) return;
    trace->port_busy[ports.last_port] += occupancy;
  };

  for (int it = 0; it < n_iter; ++it) {
    const bool in_window = it >= mid;
    for (std::size_t i = 0; i < block.size(); ++i) {
      const auto& d = dec[i];

      // Front-end: in-order issue of fused-domain uops, W per cycle.
      const double frontend =
          static_cast<double>(uops_issued) / opt.issue_width;
      uops_issued += d.uops;

      double ready = frontend;
      if (!d.zero_idiom) {
        for (FamilyMask m = d.reads; m != 0; m &= m - 1) {
          ready = std::max(ready, reg_ready[std::countr_zero(m)]);
        }
        // MCA-like configurations track register dependencies within an
        // iteration only, and memory dependencies not at all.
        if (opt.model_loop_carried && d.mem_read_slot >= 0) {
          ready = std::max(ready, mem_ready[d.mem_read_slot]);
        }
      }
      const double dep_ready = ready;  // before port availability

      double finish;
      double start = ready;
      if (d.zero_idiom) {
        finish = frontend;  // handled at rename: no port, no latency
      } else if (opt.ignore_ports) {
        finish = ready + d.latency;
      } else {
        // Auxiliary memory uops contend on the load/store ports. The load
        // result gates the compute uop; store uops only occupy ports.
        if (d.load) {
          const double lstart = ports.dispatch(ready, kLoadPorts, 1.0);
          note_busy(in_window, 1.0);
          ready = std::max(ready, lstart);
          max_finish = std::max(max_finish, lstart + 1.0);
        }
        if (d.store) {
          const double sa = ports.dispatch(ready, kStoreAddrPorts, 1.0);
          note_busy(in_window, 1.0);
          const double sd = ports.dispatch(ready, kStoreDataPorts, 1.0);
          note_busy(in_window, 1.0);
          max_finish = std::max(max_finish, std::max(sa, sd) + 1.0);
        }
        start = ports.dispatch(ready, d.ports, d.occupancy);
        note_busy(in_window, d.occupancy);
        finish = start + d.latency;
      }

      // Stall attribution: what actually set this occurrence's start time?
      if (trace != nullptr && in_window && !d.zero_idiom) {
        constexpr double kTol = 1e-9;
        if (start > dep_ready + kTol) {
          ++trace->port_stalls[i];
        } else if (dep_ready > frontend + kTol) {
          ++trace->dependency_stalls[i];
        } else {
          ++trace->frontend_stalls[i];
        }
      }

      for (FamilyMask m = d.writes; m != 0; m &= m - 1) {
        reg_ready[std::countr_zero(m)] = finish;
      }
      if (d.rsp_at_issue) {
        reg_ready[static_cast<std::size_t>(RegFamily::RSP)] = frontend + 1.0;
      }
      if (d.mem_write_slot >= 0) mem_ready[d.mem_write_slot] = finish;
      if (!opt.model_loop_carried && i + 1 == block.size()) {
        reg_ready.fill(kNever);
        std::fill(mem_ready.begin(), mem_ready.end(), kNever);
      }
      max_finish = std::max(max_finish, finish);
    }
    if (it == mid - 1) iter_mark_mid = max_finish;
    if (it == n_iter - 1) iter_mark_end = max_finish;
  }

  const double cycles = iter_mark_end - iter_mark_mid;
  const double iters = static_cast<double>(n_iter - mid);
  return std::max(cycles / iters, 0.05);
}

}  // namespace comet::sim
