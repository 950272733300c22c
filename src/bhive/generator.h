// Synthetic BHive-like basic-block generator (dataset substrate).
//
// BHive (Chen et al. 2019) is a corpus of ~300k x86 basic blocks harvested
// from real software and labeled with hardware-measured throughput, with two
// partitionings: by *source* code base (e.g. Clang, OpenBLAS) and by
// *category* (Load, Store, Load/Store, Scalar, Vector, Scalar/Vector).
//
// This generator reproduces the corpus's role: it emits random, valid basic
// blocks whose instruction mix follows a source profile (Clang-like blocks
// are scalar-integer/address-computation heavy; OpenBLAS-like blocks are
// vector-FP heavy with tight dependency chains), biased toward reusing
// recently written registers so realistic RAW chains appear. Categories are
// assigned post hoc from instruction semantics, exactly as BHive labels its
// blocks.
#pragma once

#include <cstdint>
#include <string>

#include "util/rng.h"
#include "x86/instruction.h"

namespace comet::bhive {

/// Source-code-base profile the generator imitates.
enum class BlockSource : std::uint8_t { Clang, OpenBLAS };
std::string source_name(BlockSource source);

/// BHive block categories (paper Appendix H.1).
enum class BlockCategory : std::uint8_t {
  Load,
  Store,
  LoadStore,
  Scalar,
  Vector,
  ScalarVector,
};
std::string category_name(BlockCategory category);
inline constexpr std::size_t kNumCategories = 6;

/// Classify a block by its memory behaviour and operand classes, following
/// BHive's scheme: memory-touching blocks are Load / Store / Load+Store;
/// register-only blocks are Scalar / Vector / Scalar+Vector.
BlockCategory classify(const x86::BasicBlock& block);

struct GeneratorOptions {
  std::size_t min_insts = 4;
  std::size_t max_insts = 10;
  BlockSource source = BlockSource::Clang;
  /// Probability that an instruction takes a memory form (when available).
  double p_mem = 0.30;
};

/// Random-block generator. All instructions produced are catalog-valid.
class BlockGenerator {
 public:
  explicit BlockGenerator(GeneratorOptions options = {});

  /// Generate one valid block using the given RNG stream.
  x86::BasicBlock generate(util::Rng& rng) const;

 private:
  x86::Instruction generate_instruction(
      util::Rng& rng, std::vector<x86::RegFamily>& live_gpr,
      std::vector<x86::RegFamily>& live_vec,
      std::vector<x86::MemOperand>& recent_mem, bool allow_mem) const;
  GeneratorOptions options_;
};

}  // namespace comet::bhive
