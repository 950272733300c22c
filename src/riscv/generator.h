// Random valid RV64IM basic blocks for the ported framework's evaluation —
// the RISC-V analogue of the synthetic BHive generator: a small register
// pool induces realistic dependency chains, and class weights control the
// mix of ALU, memory, and multiply/divide work. The shape is fixed: no
// caller varies it.
#pragma once

#include <cstdint>
#include <vector>

#include "riscv/isa.h"
#include "util/rng.h"

namespace comet::riscv {

/// One random valid block: 4-10 instructions over the working registers
/// a0-a5, with sp as the other memory base. Class weights (IntAlu, IntMul,
/// IntDiv, Load, Store) are 6 : 1 : 0.5 : 2 : 1.5.
BasicBlock generate_block(util::Rng& rng);

/// A corpus of `n` blocks, deterministic in `seed`.
std::vector<BasicBlock> generate_corpus(std::size_t n, std::uint64_t seed);

}  // namespace comet::riscv
