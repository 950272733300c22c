// Embedded per-instruction reciprocal-throughput tables for Haswell and
// Skylake — the stand-in for the uops.info measurements the paper's crude
// interpretable cost model C draws its cost_inst values from (Appendix G).
//
// Values are approximate published reciprocal throughputs (cycles per
// instruction when run back-to-back), keyed by opcode class with
// opcode-specific overrides, and adjusted for memory operands: a load
// bounds the throughput below by the load-port limit, a store by the
// store-port limit. Exact agreement with real hardware is not the goal;
// what matters for the evaluation is a realistic *ordering* (divides are
// expensive, stores cost more than reg-reg moves, Skylake improves FP
// add/div over Haswell).
#pragma once

#include "cost/cost_model.h"
#include "x86/instruction.h"

namespace comet::cost {

/// Reciprocal throughput and latency (cycles) of one instruction.
struct InstTiming {
  double rthroughput;
  double latency;
};

/// Timing of `inst` on `uarch` when whether it loads and/or stores (through
/// its memory operand or the stack) is already known, e.g. from a single
/// x86::semantics() call (the simulator's decode stage passes its own).
/// inst_throughput equals its rthroughput field.
InstTiming inst_timing(const x86::Instruction& inst, MicroArch uarch,
                       bool load, bool store);

/// Reciprocal throughput (cycles) of one instruction on `uarch`.
/// Accounts for the opcode, operand width, and memory operands.
double inst_throughput(const x86::Instruction& inst, MicroArch uarch);

}  // namespace comet::cost
