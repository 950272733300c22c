#include "cost/throughput_table.h"

#include <algorithm>

namespace comet::cost {

namespace {

using x86::OpClass;
using x86::Opcode;

// Per-class baseline timings. {HSW, SKL}.
InstTiming class_timing(OpClass cls, MicroArch u) {
  const bool skl = u == MicroArch::Skylake;
  switch (cls) {
    case OpClass::Mov: return {0.25, 1.0};
    case OpClass::IntAlu: return {0.25, 1.0};
    case OpClass::Lea: return {0.5, 1.0};
    case OpClass::Shift: return {0.5, 1.0};
    case OpClass::IntMul: return {1.0, 3.0};
    case OpClass::IntDiv: return skl ? InstTiming{18.0, 24.0}
                                     : InstTiming{22.0, 29.0};
    case OpClass::Stack: return {1.0, 2.0};
    case OpClass::Nop: return {0.25, 0.0};
    case OpClass::FpMov: return {0.25, 1.0};
    case OpClass::FpAdd: return skl ? InstTiming{0.5, 4.0}
                                    : InstTiming{1.0, 3.0};
    case OpClass::FpMul: return {0.5, skl ? 4.0 : 5.0};
    case OpClass::FpDiv: return skl ? InstTiming{3.0, 11.0}
                                    : InstTiming{7.0, 13.0};
    case OpClass::FpFma: return {0.5, skl ? 4.0 : 5.0};
    case OpClass::VecInt: return {0.5, 1.0};
    case OpClass::VecIntMul: return skl ? InstTiming{1.0, 8.0}
                                        : InstTiming{2.0, 10.0};
    case OpClass::Shuffle: return {1.0, 1.0};
    case OpClass::Convert: return {1.0, 5.0};
  }
  return {1.0, 1.0};
}

// Opcode-level refinements on top of the class baselines.
void apply_overrides(const x86::Instruction& inst, MicroArch u,
                     InstTiming& t) {
  const bool skl = u == MicroArch::Skylake;
  const std::uint16_t w =
      inst.operands.empty() ? 64 : inst.operands[0].size_bits();
  switch (inst.opcode) {
    // Narrow divides are much cheaper than 64-bit ones.
    case Opcode::DIV:
    case Opcode::IDIV:
      if (w <= 8) {
        t = {skl ? 6.0 : 8.0, skl ? 12.0 : 15.0};
      } else if (w <= 16) {
        t = {skl ? 7.0 : 9.0, skl ? 14.0 : 17.0};
      } else if (w <= 32) {
        t = {skl ? 9.0 : 10.0, skl ? 18.0 : 22.0};
      }
      break;
    // Double-precision divide/sqrt are slower than single.
    case Opcode::DIVSD:
    case Opcode::VDIVSD:
    case Opcode::SQRTSD:
    case Opcode::VSQRTSD:
      t = skl ? InstTiming{4.0, 14.0} : InstTiming{14.0, 20.0};
      break;
    case Opcode::DIVPD:
    case Opcode::VDIVPD:
    case Opcode::SQRTPD:
      t = skl ? InstTiming{8.0, 14.0} : InstTiming{16.0, 20.0};
      break;
    case Opcode::DIVPS:
    case Opcode::VDIVPS:
    case Opcode::SQRTPS:
      t = skl ? InstTiming{5.0, 11.0} : InstTiming{7.0, 13.0};
      break;
    // 1-operand full-width multiply is slower than imul r,r.
    case Opcode::MUL:
    case Opcode::IMUL:
      if (inst.operands.size() == 1) t = {2.0, w >= 64 ? 4.0 : 3.0};
      break;
    // xchg r,r is a 3-uop operation.
    case Opcode::XCHG:
      t = {1.0, 2.0};
      break;
    // Bit scans are single-port.
    case Opcode::BSF:
    case Opcode::BSR:
      t = {1.0, 3.0};
      break;
    default:
      break;
  }
}

InstTiming timing_from_semantics(const x86::Instruction& inst,
                                 MicroArch uarch) {
  const auto sem = x86::semantics(inst);
  return inst_timing(inst, uarch,
                     (sem.mem && sem.mem->read) || sem.stack_mem_read,
                     (sem.mem && sem.mem->write) || sem.stack_mem_write);
}

}  // namespace

InstTiming inst_timing(const x86::Instruction& inst, MicroArch uarch,
                       bool load, bool store) {
  InstTiming t = class_timing(x86::info(inst.opcode).cls, uarch);
  apply_overrides(inst, uarch, t);
  // Memory port limits: two load ports (0.5 cyc/load), one store-data port.
  if (load) t.rthroughput = std::max(t.rthroughput, 0.5);
  if (store) t.rthroughput = std::max(t.rthroughput, 1.0);
  // A load adds the L1 access latency to the dependency chain.
  if (load) t.latency += 4.0;
  return t;
}

double inst_throughput(const x86::Instruction& inst, MicroArch uarch) {
  return timing_from_semantics(inst, uarch).rthroughput;
}

}  // namespace comet::cost
