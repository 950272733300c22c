// Tests for the perturbation algorithm Γ: validity of outputs, feature
// preservation guarantees, diversity, deletion semantics, ablation modes,
// the per-thread sample scratch, and perturbation-space size estimation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <set>
#include <thread>
#include <vector>

#include "graph/features.h"
#include "perturb/perturber.h"
#include "x86/parser.h"

namespace cg = comet::graph;
namespace cp = comet::perturb;
namespace cx = comet::x86;
using comet::util::Rng;

namespace {

cx::BasicBlock bb(const char* text) { return cx::parse_block(text); }

const char* kMotivating = R"(
  add rcx, rax
  mov rdx, rcx
  pop rbx
)";

cg::Feature raw01() {
  return cg::Feature(cg::DepFeature{0, 1, cg::DepKind::RAW});
}

}  // namespace

TEST(Perturber, SamplesAreValidBlocks) {
  cp::Perturber p(bb(kMotivating));
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const auto s = p.sample(cg::FeatureSet{}, rng);
    EXPECT_TRUE(cx::is_valid(s.block)) << s.block.to_string();
    EXPECT_EQ(s.block.size(), s.orig_index.size());
  }
}

TEST(Perturber, OrigIndexIsStrictlyIncreasing) {
  cp::Perturber p(bb(kMotivating));
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const auto s = p.sample(cg::FeatureSet{}, rng);
    for (std::size_t k = 1; k < s.orig_index.size(); ++k) {
      EXPECT_LT(s.orig_index[k - 1], s.orig_index[k]);
    }
  }
}

TEST(Perturber, ProducesDiversePerturbations) {
  cp::Perturber p(bb(kMotivating));
  Rng rng(3);
  std::set<std::string> seen;
  for (int i = 0; i < 300; ++i) {
    seen.insert(p.sample(cg::FeatureSet{}, rng).block.to_string());
  }
  // The space is huge; 300 draws should hit many distinct blocks.
  EXPECT_GT(seen.size(), 50u);
}

TEST(Perturber, PreservesInstructionFeature) {
  cp::Perturber p(bb(kMotivating));
  Rng rng(4);
  cg::FeatureSet fs;
  fs.insert(cg::Feature(cg::InstFeature{0, cx::Opcode::ADD}));
  for (int i = 0; i < 300; ++i) {
    const auto s = p.sample(fs, rng);
    const auto pos = s.position_of(0);
    ASSERT_NE(pos, cp::PerturbedBlock::npos);
    EXPECT_EQ(s.block.instructions[pos].opcode, cx::Opcode::ADD);
    EXPECT_TRUE(p.contains(s, fs));
  }
}

TEST(Perturber, PreservesNumInstructions) {
  cp::Perturber p(bb(kMotivating));
  Rng rng(5);
  cg::FeatureSet fs;
  fs.insert(cg::Feature(cg::NumInstsFeature{3}));
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(p.sample(fs, rng).block.size(), 3u);
  }
}

TEST(Perturber, PreservesRawDependency) {
  cp::Perturber p(bb(kMotivating));
  Rng rng(6);
  cg::FeatureSet fs;
  fs.insert(raw01());
  for (int i = 0; i < 300; ++i) {
    const auto s = p.sample(fs, rng);
    EXPECT_TRUE(p.contains(s, fs)) << s.block.to_string();
  }
}

TEST(Perturber, PreservedDepPinsEndpointOpcodes) {
  cp::Perturber p(bb(kMotivating));
  Rng rng(7);
  cg::FeatureSet fs;
  fs.insert(raw01());
  for (int i = 0; i < 200; ++i) {
    const auto s = p.sample(fs, rng);
    const auto p0 = s.position_of(0);
    const auto p1 = s.position_of(1);
    ASSERT_NE(p0, cp::PerturbedBlock::npos);
    ASSERT_NE(p1, cp::PerturbedBlock::npos);
    EXPECT_EQ(s.block.instructions[p0].opcode, cx::Opcode::ADD);
    EXPECT_EQ(s.block.instructions[p1].opcode, cx::Opcode::MOV);
  }
}

TEST(Perturber, UnpreservedDependencyIsSometimesBroken) {
  cp::Perturber p(bb(kMotivating));
  Rng rng(8);
  int broken = 0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    const auto s = p.sample(cg::FeatureSet{}, rng);
    cg::FeatureSet fs;
    fs.insert(raw01());
    broken += !p.contains(s, fs);
  }
  EXPECT_GT(broken, n / 10);  // dependency must break regularly
  EXPECT_LT(broken, n);       // but not always (retention happens)
}

TEST(Perturber, DeletionOccursWithoutEtaPreservation) {
  cp::Perturber p(bb(kMotivating));
  Rng rng(9);
  int deletions = 0;
  for (int i = 0; i < 500; ++i) {
    deletions += p.sample(cg::FeatureSet{}, rng).block.size() < 3;
  }
  EXPECT_GT(deletions, 50);
}

TEST(Perturber, LeaIsNeverReplaced) {
  // lea has no valid replacement opcode (Appendix D): its vertex perturbation
  // always falls back to retention (though it may still be deleted).
  cp::Perturber p(bb(R"(
    lea rdx, [rax + 1]
    mov rcx, rdx
  )"));
  Rng rng(10);
  for (int i = 0; i < 300; ++i) {
    const auto s = p.sample(cg::FeatureSet{}, rng);
    const auto pos = s.position_of(0);
    if (pos == cp::PerturbedBlock::npos) continue;  // deleted: allowed
    EXPECT_EQ(s.block.instructions[pos].opcode, cx::Opcode::LEA);
  }
}

TEST(Perturber, ImplicitDivDependencyCannotBeBrokenOnConsumerSide) {
  // div reads rax implicitly; the producer (mov rax, ...) write occurrence
  // is renameable though, so the dep can still break via the producer.
  cp::Perturber p(bb(R"(
    mov rax, 5
    div rcx
  )"));
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const auto s = p.sample(cg::FeatureSet{}, rng);
    EXPECT_TRUE(cx::is_valid(s.block));
    // div must never acquire explicit rax operands out of nowhere.
    for (const auto& inst : s.block.instructions) {
      EXPECT_LE(inst.operands.size(), 2u);
    }
  }
}

TEST(Perturber, ShiftCountRenamingRevertsToValid) {
  // The cl count of a shift cannot be renamed (fixed family); breaking the
  // rcx dependency must not produce an invalid instruction.
  cp::Perturber p(bb(R"(
    mov rcx, rax
    shl rdx, cl
  )"));
  Rng rng(12);
  for (int i = 0; i < 300; ++i) {
    EXPECT_TRUE(cx::is_valid(p.sample(cg::FeatureSet{}, rng).block));
  }
}

TEST(Perturber, MemoryDependencyBreaksViaDisplacement) {
  cp::Perturber p(bb(R"(
    mov qword ptr [rdi + 8], rax
    mov rcx, qword ptr [rdi + 8]
  )"));
  Rng rng(13);
  int mem_dep_broken = 0;
  for (int i = 0; i < 300; ++i) {
    const auto s = p.sample(cg::FeatureSet{}, rng);
    if (s.block.size() < 2) continue;
    const auto g = cg::DepGraph::build(s.block);
    bool has_mem_raw = false;
    for (const auto& e : g.edges()) {
      has_mem_raw |= e.resource == cg::DepResource::Memory &&
                     e.kind == cg::DepKind::RAW;
    }
    mem_dep_broken += !has_mem_raw;
  }
  EXPECT_GT(mem_dep_broken, 30);
}

TEST(Perturber, ContainsChecksAllFeatureTypes) {
  cp::Perturber p(bb(kMotivating));
  cp::PerturbedBlock identity{p.block(), {0, 1, 2}};
  cg::FeatureSet fs;
  fs.insert(cg::Feature(cg::InstFeature{0, cx::Opcode::ADD}));
  fs.insert(raw01());
  fs.insert(cg::Feature(cg::NumInstsFeature{3}));
  EXPECT_TRUE(p.contains(identity, fs));

  cg::FeatureSet wrong;
  wrong.insert(cg::Feature(cg::InstFeature{0, cx::Opcode::SUB}));
  EXPECT_FALSE(p.contains(identity, wrong));

  cg::FeatureSet wrong_eta;
  wrong_eta.insert(cg::Feature(cg::NumInstsFeature{4}));
  EXPECT_FALSE(p.contains(identity, wrong_eta));
}

TEST(Perturber, WholeInstructionReplacementStaysValid) {
  cp::PerturbConfig cfg;
  cfg.whole_instruction_replacement = true;
  cp::Perturber p(bb(kMotivating), {}, cfg);
  Rng rng(14);
  std::set<std::string> seen;
  for (int i = 0; i < 300; ++i) {
    const auto s = p.sample(cg::FeatureSet{}, rng);
    EXPECT_TRUE(cx::is_valid(s.block)) << s.block.to_string();
    seen.insert(s.block.to_string());
  }
  EXPECT_GT(seen.size(), 50u);
}

TEST(Perturber, ExplicitRetentionProbabilityOneFreezesDeps) {
  cp::PerturbConfig cfg;
  cfg.p_explicit_dep_retain = 1.0;
  cp::Perturber p(bb(kMotivating), {}, cfg);
  Rng rng(15);
  cg::FeatureSet fs;
  fs.insert(raw01());
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(p.contains(p.sample(cg::FeatureSet{}, rng), fs));
  }
}

// ---------- per-thread sample scratch ----------

namespace {

/// `count` samples of `p` preserving `fs`, drawn with a fresh Rng(seed).
std::vector<cp::PerturbedBlock> solo_stream(const cp::Perturber& p,
                                            const cg::FeatureSet& fs,
                                            std::uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<cp::PerturbedBlock> out;
  for (int i = 0; i < count; ++i) out.push_back(p.sample(fs, rng));
  return out;
}

void expect_same_stream(const std::vector<cp::PerturbedBlock>& a,
                        const std::vector<cp::PerturbedBlock>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].block, b[i].block) << "sample " << i;
    EXPECT_EQ(a[i].orig_index, b[i].orig_index) << "sample " << i;
  }
}

}  // namespace

// Samples from perturbers of different sizes and configurations, drawn
// interleaved on one thread (so each reuses scratch another one grew or
// shrank), equal each perturber's stream drawn alone.
TEST(Perturb, ScratchReuseIsInvisible) {
  cp::PerturbConfig whole;
  whole.whole_instruction_replacement = true;
  const cp::Perturber perturbers[] = {
      cp::Perturber(bb(kMotivating)),
      cp::Perturber(bb(R"(
        vdivss xmm0, xmm0, xmm6
        vmulss xmm7, xmm0, xmm0
        vxorps xmm0, xmm0, xmm5
        vaddss xmm7, xmm7, xmm3
        mov qword ptr [rdi + 8], rax
        mov rcx, qword ptr [rdi + 8]
        vmulss xmm6, xmm6, xmm7
        vdivss xmm6, xmm3, xmm6
        shl rdx, cl
        vmulss xmm0, xmm6, xmm0
      )")),
      cp::Perturber(bb(R"(
        mov rax, 5
        div rcx
      )")),
      // The whole-instruction ablation restores a re-randomised operand
      // from the scratch's backup instruction.
      cp::Perturber(bb(R"(
        add rcx, rax
        mov rdx, rcx
        imul rbx, rdx
        sub rsi, rbx
        pop rbx
      )"), {}, whole),
  };
  constexpr std::size_t kPerturbers = std::size(perturbers);
  cg::FeatureSet preserve[kPerturbers];
  preserve[0].insert(raw01());
  preserve[3].insert(raw01());
  preserve[3].insert(cg::Feature(cg::NumInstsFeature{5}));

  constexpr int kSamples = 200;
  std::vector<cp::PerturbedBlock> solo[kPerturbers];
  for (std::size_t k = 0; k < kPerturbers; ++k) {
    solo[k] = solo_stream(perturbers[k], preserve[k], 40 + k, kSamples);
  }

  std::vector<Rng> rngs;
  for (std::size_t k = 0; k < kPerturbers; ++k) rngs.emplace_back(40 + k);
  // Each perturber twice per round, in an order that changes the block
  // size the scratch was last sized for at every draw (10, 3, 5, 2, ...
  // instructions).
  constexpr std::size_t kOrder[] = {1, 0, 3, 2, 1, 3, 0, 2};
  std::vector<cp::PerturbedBlock> mixed[kPerturbers];
  for (int round = 0; round < kSamples / 2; ++round) {
    for (const std::size_t k : kOrder) {
      mixed[k].push_back(perturbers[k].sample(preserve[k], rngs[k]));
    }
  }
  for (std::size_t k = 0; k < kPerturbers; ++k) {
    SCOPED_TRACE(k);
    expect_same_stream(mixed[k], solo[k]);
  }
}

// Drawing into a caller's slot gives the by-value sample and leaves the RNG
// where the by-value draw leaves it. One slot serves perturbers of
// decreasing block length, so every draw overwrites a slot that held a
// longer block (and, after a deletion, a shorter one).
TEST(Perturb, SampleIntoSlotMatchesByValue) {
  const cp::Perturber perturbers[] = {
      cp::Perturber(bb(R"(
        vdivss xmm0, xmm0, xmm6
        vmulss xmm7, xmm0, xmm0
        vxorps xmm0, xmm0, xmm5
        vaddss xmm7, xmm7, xmm3
        mov qword ptr [rdi + 8], rax
        mov rcx, qword ptr [rdi + 8]
        vmulss xmm6, xmm6, xmm7
        vdivss xmm6, xmm3, xmm6
        shl rdx, cl
        vmulss xmm0, xmm6, xmm0
      )")),
      cp::Perturber(bb(R"(
        add rcx, rax
        mov rdx, rcx
        imul rbx, rdx
        sub rsi, rbx
        pop rbx
      )")),
      cp::Perturber(bb(kMotivating)),
      cp::Perturber(bb(R"(
        mov rax, 5
        div rcx
      )")),
  };
  cg::FeatureSet preserved;
  preserved.insert(raw01());
  cp::PerturbedBlock slot;
  std::uint64_t seed = 70;
  for (const auto& p : perturbers) {
    for (const cg::FeatureSet& fs : {cg::FeatureSet{}, preserved}) {
      SCOPED_TRACE(p.block().to_string() + fs.to_string());
      Rng by_value(seed);
      Rng into_slot(seed++);
      for (int i = 0; i < 100; ++i) {
        const cp::PerturbedBlock expected = p.sample(fs, by_value);
        p.sample(fs, into_slot, slot);
        EXPECT_EQ(slot.block, expected.block) << "sample " << i;
        EXPECT_EQ(slot.orig_index, expected.orig_index) << "sample " << i;
        Rng a = by_value;
        Rng b = into_slot;
        ASSERT_EQ(a.next_u64(), b.next_u64()) << "sample " << i;
      }
    }
  }
}

// Two threads sampling one const Perturber at once each get the stream a
// single thread draws with the same seed: the scratch is per thread.
TEST(Perturb, ConcurrentSamplingMatchesSequential) {
  const cp::Perturber p(bb(R"(
    add rcx, rax
    mov qword ptr [rdi + 8], rcx
    mov rdx, qword ptr [rdi + 8]
    imul rdx, rcx
    pop rbx
  )"));
  cg::FeatureSet fs;
  fs.insert(raw01());
  constexpr int kSamples = 500;
  const auto first = solo_stream(p, fs, 61, kSamples);
  const auto second = solo_stream(p, cg::FeatureSet{}, 62, kSamples);

  std::vector<cp::PerturbedBlock> a;
  std::vector<cp::PerturbedBlock> b;
  std::thread ta([&] { a = solo_stream(p, fs, 61, kSamples); });
  std::thread tb([&] { b = solo_stream(p, cg::FeatureSet{}, 62, kSamples); });
  ta.join();
  tb.join();
  expect_same_stream(a, first);
  expect_same_stream(b, second);
}

// ---------- perturbation space size (Appendix F) ----------

TEST(SpaceSize, Listing4MagnitudeIsAstronomical) {
  // Paper: |Π̂(∅)| ~ 1.94e38 for the 7-instruction AVX block. Our estimate
  // should land within a few orders of magnitude, and definitely >> 1e20.
  cp::Perturber p(bb(R"(
    vdivss xmm0, xmm0, xmm6
    vmulss xmm7, xmm0, xmm0
    vxorps xmm0, xmm0, xmm5
    vaddss xmm7, xmm7, xmm3
    vmulss xmm6, xmm6, xmm7
    vdivss xmm6, xmm3, xmm6
    vmulss xmm0, xmm6, xmm0
  )"));
  const double lg = p.log10_space_size(cg::FeatureSet{});
  EXPECT_GT(lg, 25.0);
  EXPECT_LT(lg, 55.0);
}

TEST(SpaceSize, ShrinksWhenFeaturesPreserved) {
  cp::Perturber p(bb(kMotivating));
  const double all = p.log10_space_size(cg::FeatureSet{});
  cg::FeatureSet fs;
  fs.insert(cg::Feature(cg::InstFeature{0, cx::Opcode::ADD}));
  const double constrained = p.log10_space_size(fs);
  EXPECT_LT(constrained, all);

  cg::FeatureSet fs2 = fs;
  fs2.insert(raw01());
  EXPECT_LE(p.log10_space_size(fs2), constrained);
}

TEST(SpaceSize, PreservedMemoryDepPinsDisplacements) {
  // A preserved memory dependency pins the opcodes of both endpoints (as
  // their Inst features would) and their memory operands, whose
  // displacements Γ then never shifts: one log10(16) factor less each.
  cp::Perturber p(bb(R"(
    mov qword ptr [rdi + 8], rax
    mov rbx, qword ptr [rdi + 8]
  )"));
  const auto& edges = p.dep_graph().edges();
  ASSERT_EQ(edges.size(), 1u);
  ASSERT_EQ(edges[0].resource, cg::DepResource::Memory);
  ASSERT_EQ(edges[0].kind, cg::DepKind::RAW);

  cg::FeatureSet mem_raw;
  mem_raw.insert(cg::Feature(cg::DepFeature{0, 1, cg::DepKind::RAW}));
  cg::FeatureSet endpoints;
  endpoints.insert(cg::Feature(cg::InstFeature{0, cx::Opcode::MOV}));
  endpoints.insert(cg::Feature(cg::InstFeature{1, cx::Opcode::MOV}));
  EXPECT_NEAR(p.log10_space_size(mem_raw),
              p.log10_space_size(endpoints) - 2 * std::log10(16.0), 1e-9);
}

TEST(SpaceSize, MonotonicityProperty) {
  // Π is monotonically decreasing in F (paper Theorem 1): adding features
  // never enlarges the space.
  cp::Perturber p(bb(R"(
    shl eax, 3
    imul rax, r15
    xor edx, edx
    add rax, 7
  )"));
  const auto all_feats = cg::extract_features(p.block());
  cg::FeatureSet acc;
  double prev = p.log10_space_size(acc);
  for (const auto& f : all_feats.items()) {
    acc.insert(f);
    const double cur = p.log10_space_size(acc);
    EXPECT_LE(cur, prev + 1e-9);
    prev = cur;
  }
}
