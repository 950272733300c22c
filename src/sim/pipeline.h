// Out-of-order steady-state pipeline simulator.
//
// This is the simulation substrate standing in for (a) real Haswell/Skylake
// hardware (the "HardwareOracle" — the reference against which model error
// is measured and from which the synthetic BHive labels are produced) and
// (b) the uiCA simulation-based cost model (same simulator family with
// deliberately coarsened parameters; see models.h).
//
// The model captures the bottleneck structure that drives basic-block
// throughput on modern Intel cores:
//   * front-end issue width (uops/cycle, in order);
//   * execution-port contention: each uop binds greedily to the earliest
//     free port among its allowed set; non-pipelined operations (divides)
//     occupy their port for multiple cycles;
//   * data dependencies: a uop starts only after the producers of the
//     registers/memory it reads complete, including loop-carried
//     dependencies across iterations of the steadily looped block;
//   * zeroing idioms (xor r,r / pxor x,x / ...): executed at rename,
//     zero latency, no port, dependency-breaking (optional);
//   * load latency on dependency chains and load/store port limits.
//
// Throughput is the steady-state slope: the block is looped for a number of
// iterations and the cycles per iteration are measured over the second half.
#pragma once

#include <cstdint>

#include "cost/cost_model.h"
#include "x86/instruction.h"

namespace comet::sim {

/// Simulator knobs. The oracle uses the defaults; the uiCA-like model
/// coarsens some of them (see models.cpp).
struct SimOptions {
  int issue_width = 4;
  int iterations = 64;          ///< loop iterations simulated
  bool zero_idiom = true;       ///< recognize dependency-breaking idioms
  double latency_scale = 1.0;   ///< multiplies all instruction latencies
  bool round_latencies = false; ///< round scaled latencies up to integers
  double div_occupancy_extra = 0.0;  ///< extra cycles on the divide port
  bool model_loop_carried = true;    ///< track deps across iterations
  /// Skip execution-port contention entirely (used by the bottleneck
  /// analysis to isolate the pure dependency-chain bound).
  bool ignore_ports = false;
};

/// Number of execution ports modeled (Intel convention: 0/1/5/6 integer
/// ALU, 0/1 FP, 2/3 load, 4 store-data, 7 store-address).
inline constexpr int kSimPorts = 8;

/// What gated the start of an instruction occurrence in the steady-state
/// window (the uiCA-style stall attribution; see bottleneck.h).
enum class StallCause : std::uint8_t { FrontEnd, Dependency, Port };

/// Instrumentation of the measured (second-half) simulation window,
/// filled by simulate_throughput when a trace pointer is supplied.
struct SimTrace {
  /// Busy cycles per execution port over the window.
  double port_busy[kSimPorts] = {};
  /// Iterations in the measured window.
  int window_iterations = 0;
  /// Fused-domain uops per block iteration.
  int uops_per_iteration = 0;
  /// Per original instruction index: occurrences gated by each cause.
  std::vector<int> frontend_stalls;
  std::vector<int> dependency_stalls;
  std::vector<int> port_stalls;
};

/// Steady-state throughput (cycles per iteration) of `block` looped on
/// `uarch` under `options`. Deterministic. When `trace` is non-null it is
/// filled with steady-state window instrumentation. Throws
/// util::ContractViolation unless issue_width >= 1, latency_scale is finite
/// and > 0, and div_occupancy_extra is finite and >= 0.
double simulate_throughput(const x86::BasicBlock& block,
                           cost::MicroArch uarch,
                           const SimOptions& options = {},
                           SimTrace* trace = nullptr);

/// Is `inst` a recognized zeroing idiom (xor/sub/pxor/xorps of a register
/// with itself)?
bool is_zero_idiom(const x86::Instruction& inst);

/// Number of fused-domain uops `inst` decodes into (compute + load +
/// store-address/data uops).
int uop_count(const x86::Instruction& inst);

}  // namespace comet::sim
