// Golden digests of Γ's output stream. Γ is the explainer's hot path and is
// optimized aggressively, but every optimization must be bit-identical: the
// same preserve set and seed must yield the same perturbed blocks, drawn in
// the same order. These tests hash every sampled block (its Intel-syntax
// text plus its original-position mapping) over ~100 seeded generated
// blocks and four kinds of preserve set into one FNV-1a digest per Γ
// configuration, including the whole-instruction-replacement ablation that
// the explanation fingerprints never reach.
//
// The expected digests were recorded before Γ's register bookkeeping was
// rewritten with bitmasks and must never be edited to make a change pass:
// a mismatch means the change altered Γ's distribution or its RNG draws.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bhive/generator.h"
#include "graph/features.h"
#include "perturb/perturber.h"

namespace cb = comet::bhive;
namespace cg = comet::graph;
namespace cp = comet::perturb;
namespace cx = comet::x86;
using comet::util::Rng;

namespace {

constexpr std::size_t kBlocksPerSource = 50;
constexpr int kSamplesPerSet = 50;

/// Incremental 64-bit FNV-1a.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void bytes(const std::string& s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  void u64(std::uint64_t v) {  // little-endian, host independent
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
};

std::vector<cx::BasicBlock> golden_blocks() {
  std::vector<cx::BasicBlock> blocks;
  for (const auto source : {cb::BlockSource::Clang, cb::BlockSource::OpenBLAS}) {
    cb::GeneratorOptions opts;
    opts.source = source;
    const cb::BlockGenerator gen(opts);
    Rng rng(source == cb::BlockSource::Clang ? 0xC1A9 : 0xB1A5);
    for (std::size_t i = 0; i < kBlocksPerSource; ++i) {
      blocks.push_back(gen.generate(rng));
    }
  }
  return blocks;
}

/// The preserve sets exercised for block number `b`: ∅, one Inst, and —
/// when the block has a dependency — one Dep and that Dep plus η.
std::vector<cg::FeatureSet> preserve_sets(const cp::Perturber& p,
                                          std::size_t b) {
  const auto& block = p.block();
  std::vector<cg::FeatureSet> sets(1);
  const std::size_t v = b % block.size();
  sets.emplace_back(std::vector<cg::Feature>{
      cg::Feature(cg::InstFeature{v, block.instructions[v].opcode})});
  const auto& edges = p.dep_graph().edges();
  if (!edges.empty()) {
    const auto& e = edges[b % edges.size()];
    const cg::Feature dep(cg::DepFeature{e.from, e.to, e.kind});
    sets.emplace_back(std::vector<cg::Feature>{dep});
    sets.emplace_back(std::vector<cg::Feature>{
        dep, cg::Feature(cg::NumInstsFeature{block.size()})});
  }
  return sets;
}

/// Digest of the whole Γ output stream under `config`.
std::uint64_t stream_digest(const cp::PerturbConfig& config) {
  Fnv1a digest;
  const auto blocks = golden_blocks();
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const cp::Perturber p(blocks[b], {}, config);
    Rng rng(1000 + b);
    for (const auto& preserve : preserve_sets(p, b)) {
      for (int s = 0; s < kSamplesPerSet; ++s) {
        const auto pb = p.sample(preserve, rng);
        digest.bytes(pb.block.to_string());
        digest.byte(0);
        for (const std::size_t idx : pb.orig_index) digest.u64(idx);
        digest.byte(0xff);
      }
    }
  }
  return digest.h;
}

}  // namespace

TEST(PerturberGolden, DefaultConfigStream) {
  EXPECT_EQ(stream_digest({}), 0x24b1daacfa5074ddULL);
}

TEST(PerturberGolden, WholeInstructionReplacementStream) {
  cp::PerturbConfig config;
  config.whole_instruction_replacement = true;
  EXPECT_EQ(stream_digest(config), 0xe9ac8ee5f27ce463ULL);
}
