// Fuzz harness: the perturbation algorithm Γ (perturb::Perturber::sample)
// over arbitrary blocks, preserve sets, seeds and configurations, and the
// graph-free dependency test its containment check runs on
// (graph::has_dep_edge).
//
// Input layout (missing header bytes read as zero):
//   byte  0      config bits: 1 = whole_instruction_replacement,
//                8 = include_flag_deps; bits 2 and 4 are reserved and
//                ignored, so the committed corpus decodes its other bits
//                unchanged
//   bytes 1..7   preserve-set bits: feature i of the block's P̂ is preserved
//                when bit (i mod 56) is set
//   bytes 8..15  RNG seed (little-endian)
//   bytes 16..   block text, as x86::parse_block reads it
//
// Contract under test, for every sample:
//   * every sampled instruction is catalog-valid;
//   * orig_index is strictly increasing, in range, and one per instruction;
//   * every preserved Inst and NumInsts feature is contained;
//   * has_dep_edge agrees with DepGraph::build(...).has_edge for every
//     (from, to, kind) of the sample, under the input's graph options;
//   * no exception escapes except the parser's rejection of the text;
//   * Γ's per-thread scratch is invisible: sampling interleaved with a
//     second perturber of a different size (the block twice over) yields
//     the same stream as sampling each perturber alone.
// Dependency features are counted, not asserted: Γ can still lose a
// preserved memory-carried dependency whose address base register a rename
// touches (a known soundness gap; fixing it changes explanations). The
// count is printed at exit.
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <vector>

#include "graph/features.h"
#include "perturb/perturber.h"
#include "util/contract.h"
#include "util/rng.h"
#include "x86/parser.h"

namespace {

namespace cg = comet::graph;
namespace cp = comet::perturb;

constexpr std::size_t kHeader = 16;
constexpr std::size_t kMaxInsts = 32;
constexpr int kSamples = 16;

/// Dependency-feature soundness tally, reported when the process exits.
struct DepTally {
  std::uint64_t checked = 0;
  std::uint64_t lost = 0;
  ~DepTally() {
    if (checked > 0) {
      std::fprintf(stderr, "fuzz_perturber: %llu of %llu preserved deps lost\n",
                   static_cast<unsigned long long>(lost),
                   static_cast<unsigned long long>(checked));
    }
  }
};
DepTally g_deps;

std::uint64_t read_le(const std::uint8_t* p, std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::uint8_t header[kHeader] = {};
  for (std::size_t i = 0; i < kHeader && i < size; ++i) header[i] = data[i];
  const std::string_view text =
      size > kHeader ? std::string_view(reinterpret_cast<const char*>(data) +
                                            kHeader,
                                        size - kHeader)
                     : std::string_view();

  comet::x86::BasicBlock block;
  try {
    block = comet::x86::parse_block(text);
  } catch (const comet::x86::ParseError&) {
    return 0;  // expected rejection of malformed text
  } catch (const comet::util::ContractViolation&) {
    return 0;  // expected rejection at the parser's contract boundary
  }
  if (block.empty() || block.size() > kMaxInsts) return 0;

  cp::PerturbConfig config;
  config.whole_instruction_replacement = (header[0] & 1) != 0;
  cg::DepGraphOptions graph_options;
  graph_options.include_flag_deps = (header[0] & 8) != 0;
  const std::uint64_t subset_bits = read_le(header + 1, 7);
  comet::util::Rng rng(read_le(header + 8, 8));

  const std::size_t n = block.size();
  const cp::Perturber perturber(block, graph_options, config);
  comet::x86::BasicBlock twice = block;
  twice.instructions.insert(twice.instructions.end(),
                            block.instructions.begin(),
                            block.instructions.end());
  const cp::Perturber other(twice, graph_options, config);
  const auto all = cg::extract_features(block, graph_options).items();
  cg::FeatureSet preserve;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (((subset_bits >> (i % 56)) & 1) != 0) preserve.insert(all[i]);
  }

  // Each perturber's stream drawn alone, then both drawn interleaved.
  const comet::util::Rng start = rng;
  comet::util::Rng other_rng(~read_le(header + 8, 8));
  const comet::util::Rng other_start = other_rng;
  std::vector<cp::PerturbedBlock> solo;
  std::vector<cp::PerturbedBlock> other_solo;
  for (int s = 0; s < kSamples; ++s) {
    solo.push_back(perturber.sample(preserve, rng));
  }
  for (int s = 0; s < kSamples; ++s) {
    other_solo.push_back(other.sample(cg::FeatureSet{}, other_rng));
  }
  rng = start;
  other_rng = other_start;

  for (int s = 0; s < kSamples; ++s) {
    const cp::PerturbedBlock pb = perturber.sample(preserve, rng);
    const cp::PerturbedBlock opb = other.sample(cg::FeatureSet{}, other_rng);
    if (pb.block != solo[s].block || pb.orig_index != solo[s].orig_index ||
        opb.block != other_solo[s].block ||
        opb.orig_index != other_solo[s].orig_index) {
      __builtin_trap();  // scratch state leaked between perturbers
    }
    if (pb.orig_index.size() != pb.block.size()) __builtin_trap();
    for (std::size_t k = 0; k < pb.block.size(); ++k) {
      if (!comet::x86::is_valid(pb.block.instructions[k])) __builtin_trap();
      if (pb.orig_index[k] >= n) __builtin_trap();
      if (k > 0 && pb.orig_index[k - 1] >= pb.orig_index[k]) __builtin_trap();
    }
    const cg::DepGraph graph = cg::DepGraph::build(pb.block, graph_options);
    for (std::size_t from = 0; from < pb.block.size(); ++from) {
      for (std::size_t to = 0; to < pb.block.size(); ++to) {
        for (const auto kind :
             {cg::DepKind::RAW, cg::DepKind::WAR, cg::DepKind::WAW}) {
          if (cg::has_dep_edge(pb.block, from, to, kind, graph_options) !=
              graph.has_edge(from, to, kind)) {
            __builtin_trap();
          }
        }
      }
    }
    for (const cg::Feature& f : preserve.items()) {
      const bool held = perturber.contains(pb, cg::FeatureSet({f}));
      if (f.type() == cg::FeatureType::Dep) {
        ++g_deps.checked;
        if (!held) ++g_deps.lost;
      } else if (!held) {
        __builtin_trap();  // a preserved Inst / NumInsts feature was lost
      }
    }
  }
  return 0;
}
