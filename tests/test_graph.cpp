// Unit tests for the dependency multigraph and block feature extraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "bhive/generator.h"
#include "graph/depgraph.h"
#include "graph/features.h"
#include "perturb/perturber.h"
#include "util/rng.h"
#include "x86/parser.h"

namespace cb = comet::bhive;
namespace cg = comet::graph;
namespace cp = comet::perturb;
namespace cx = comet::x86;

namespace {
cx::BasicBlock bb(const char* text) { return cx::parse_block(text); }
}  // namespace

// ---------- dependency detection ----------

TEST(DepGraph, MotivatingExampleRaw) {
  // Paper Listing 1(a): RAW between instructions 1 and 2 via rcx.
  const auto g = cg::DepGraph::build(bb(R"(
    add rcx, rax
    mov rdx, rcx
    pop rbx
  )"));
  EXPECT_TRUE(g.has_edge(0, 1, cg::DepKind::RAW));
  EXPECT_FALSE(g.has_edge(0, 2, cg::DepKind::RAW));
  EXPECT_EQ(g.num_vertices(), 3u);
}

TEST(DepGraph, WarDependency) {
  // Paper case study 2: WAR between (1) mov ecx, edx and (2) xor edx, edx.
  const auto g = cg::DepGraph::build(bb(R"(
    mov ecx, edx
    xor edx, edx
  )"));
  EXPECT_TRUE(g.has_edge(0, 1, cg::DepKind::WAR));
}

TEST(DepGraph, WawDependency) {
  const auto g = cg::DepGraph::build(bb(R"(
    mov rax, 1
    mov rax, 2
  )"));
  EXPECT_TRUE(g.has_edge(0, 1, cg::DepKind::WAW));
}

TEST(DepGraph, CaseStudy2RawViaRax) {
  // RAW between instructions 3 (lea writes rax) and 6 (imul reads rax).
  const auto g = cg::DepGraph::build(bb(R"(
    mov ecx, edx
    xor edx, edx
    lea rax, [rcx + rax - 1]
    div rcx
    mov rdx, rcx
    imul rax, rcx
  )"));
  // div (index 3) reads rax implicitly -> RAW from lea (index 2).
  EXPECT_TRUE(g.has_edge(2, 3, cg::DepKind::RAW));
  // imul (index 5) reads rax written by div (index 3) under nearest-writer
  // chaining.
  EXPECT_TRUE(g.has_edge(3, 5, cg::DepKind::RAW));
}

TEST(DepGraph, SubRegisterAliasingDetected) {
  const auto g = cg::DepGraph::build(bb(R"(
    mov eax, 5
    mov rcx, rax
  )"));
  // 32-bit write zero-extends; reading rax depends on writing eax.
  EXPECT_TRUE(g.has_edge(0, 1, cg::DepKind::RAW));
}

TEST(DepGraph, AlAhDoNotConflict) {
  const auto g = cg::DepGraph::build(bb(R"(
    mov al, 1
    mov ah, 2
  )"));
  for (const auto& e : g.edges()) {
    EXPECT_NE(e.kind, cg::DepKind::WAW) << g.to_string();
  }
}

TEST(DepGraph, IndependentInstructionsNoEdges) {
  const auto g = cg::DepGraph::build(bb(R"(
    mov rax, 1
    mov rcx, 2
    mov rsi, 3
  )"));
  EXPECT_TRUE(g.edges().empty());
}

TEST(DepGraph, MemoryRawSameAddress) {
  const auto g = cg::DepGraph::build(bb(R"(
    mov qword ptr [rdi + 8], rax
    mov rcx, qword ptr [rdi + 8]
  )"));
  bool found = false;
  for (const auto& e : g.edges()) {
    if (e.resource == cg::DepResource::Memory && e.kind == cg::DepKind::RAW) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DepGraph, MemoryDifferentAddressesNoDep) {
  const auto g = cg::DepGraph::build(bb(R"(
    mov qword ptr [rdi + 8], rax
    mov rcx, qword ptr [rdi + 16]
  )"));
  for (const auto& e : g.edges()) {
    EXPECT_NE(e.resource, cg::DepResource::Memory);
  }
}

TEST(DepGraph, FlagDepsExcludedByDefault) {
  const auto g = cg::DepGraph::build(bb(R"(
    add rax, rcx
    cmove rdx, rsi
  )"));
  for (const auto& e : g.edges()) {
    EXPECT_NE(e.resource, cg::DepResource::Flags);
  }
}

TEST(DepGraph, FlagDepsIncludedWhenRequested) {
  cg::DepGraphOptions opt;
  opt.include_flag_deps = true;
  const auto g = cg::DepGraph::build(bb(R"(
    add rax, rcx
    cmove rdx, rsi
  )"), opt);
  bool found = false;
  for (const auto& e : g.edges()) {
    found |= e.resource == cg::DepResource::Flags &&
             e.kind == cg::DepKind::RAW;
  }
  EXPECT_TRUE(found);
}

TEST(DepGraph, PushPopChainViaRsp) {
  const auto g = cg::DepGraph::build(bb(R"(
    push rax
    pop rbx
  )"));
  // Both touch rsp (read+write) -> RAW (and WAR/WAW) on rsp.
  EXPECT_TRUE(g.has_edge(0, 1, cg::DepKind::RAW));
}

TEST(DepGraph, LeaAddressRegsAreReads) {
  const auto g = cg::DepGraph::build(bb(R"(
    mov rcx, 1
    lea rdx, [rcx + 8]
  )"));
  EXPECT_TRUE(g.has_edge(0, 1, cg::DepKind::RAW));
}

TEST(DepGraph, MultipleKindsBetweenSamePair) {
  // add rax, rcx ; add rax, rcx : RAW (rax), WAR (rax? no...), WAW (rax).
  const auto g = cg::DepGraph::build(bb(R"(
    add rax, rcx
    add rax, rcx
  )"));
  EXPECT_TRUE(g.has_edge(0, 1, cg::DepKind::RAW));
  EXPECT_TRUE(g.has_edge(0, 1, cg::DepKind::WAW));
  EXPECT_TRUE(g.has_edge(0, 1, cg::DepKind::WAR));
}

TEST(DepGraph, NearestOnlyLinksClosestWriter) {
  const auto g = cg::DepGraph::build(bb(R"(
    mov rax, 1
    mov rax, 2
    mov rcx, rax
  )"));
  EXPECT_TRUE(g.has_edge(1, 2, cg::DepKind::RAW));
  EXPECT_FALSE(g.has_edge(0, 2, cg::DepKind::RAW));
}

TEST(DepGraph, UnrelatedInstructionHasNoEdges) {
  const auto g = cg::DepGraph::build(bb(R"(
    add rcx, rax
    mov rdx, rcx
    pop rbx
  )"));
  EXPECT_TRUE(g.has_edge(0, 1, cg::DepKind::RAW));
  EXPECT_TRUE(std::none_of(g.edges().begin(), g.edges().end(),
                           [](const cg::DepEdge& e) {
                             return e.from == 2 || e.to == 2;
                           }));
}

TEST(DepGraph, EmptyBlock) {
  const auto g = cg::DepGraph::build(cx::BasicBlock{});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_TRUE(g.edges().empty());
}

// ---------- has_dep_edge ----------

TEST(DepGraph, HasDepEdgeAgreesWithBuild) {
  // Hand-written chains where a nearer instruction takes over a hazard on
  // each resource (memory, flags, sub-registers), then generated blocks
  // from both sources at the default and a memory-heavy mix, plus Γ
  // samples of each: deletions and renames move which instruction is the
  // nearest end of an edge.
  std::vector<cx::BasicBlock> seeds = {
      bb(R"(
        mov qword ptr [rdi + 8], rax
        add qword ptr [rdi + 8], rbx
        mov rcx, qword ptr [rdi + 8]
        mov qword ptr [rdi + 8], rcx
        mov rdx, qword ptr [rdi + 8]
      )"),
      bb(R"(
        add rax, 1
        cmp rbx, 2
        cmove rcx, rdx
        sub rcx, rax
        setb al
      )"),
      bb(R"(
        mov al, 1
        mov ah, 2
        mov ecx, eax
        mov rax, rcx
        add al, cl
        mov rdx, rax
      )"),
  };
  comet::util::Rng rng(7);
  for (const auto source :
       {cb::BlockSource::Clang, cb::BlockSource::OpenBLAS}) {
    for (const double p_mem : {0.3, 0.9}) {
      cb::GeneratorOptions opts;
      opts.source = source;
      opts.p_mem = p_mem;
      const cb::BlockGenerator gen(opts);
      for (int b = 0; b < 20; ++b) seeds.push_back(gen.generate(rng));
    }
  }
  std::vector<cx::BasicBlock> blocks;
  for (const auto& seed : seeds) {
    blocks.push_back(seed);
    const cp::Perturber p(seed);
    for (int s = 0; s < 5; ++s) {
      blocks.push_back(p.sample(cg::FeatureSet{}, rng).block);
    }
  }

  std::size_t edges = 0;
  for (const bool include_flag_deps : {false, true}) {
    cg::DepGraphOptions options;
    options.include_flag_deps = include_flag_deps;
    for (const auto& block : blocks) {
      const auto g = cg::DepGraph::build(block, options);
      // Every pair, from >= to and out-of-range indices included.
      std::vector<std::size_t> indices;
      for (std::size_t i = 0; i <= block.size() + 1; ++i) {
        indices.push_back(i);
      }
      indices.push_back(std::numeric_limits<std::size_t>::max());
      for (const std::size_t from : indices) {
        for (const std::size_t to : indices) {
          for (const auto kind :
               {cg::DepKind::RAW, cg::DepKind::WAR, cg::DepKind::WAW}) {
            const bool want = g.has_edge(from, to, kind);
            ASSERT_EQ(cg::has_dep_edge(block, from, to, kind, options), want)
                << cg::dep_kind_name(kind) << " " << from << " -> " << to
                << " include_flag_deps=" << include_flag_deps << "\n"
                << block.to_string();
            edges += want ? 1 : 0;
          }
        }
      }
    }
  }
  EXPECT_GT(edges, 1000u);  // the agreement is not vacuous
}

// ---------- features ----------

TEST(Features, ExtractMotivatingExample) {
  const auto block = bb(R"(
    add rcx, rax
    mov rdx, rcx
    pop rbx
  )");
  const auto feats = cg::extract_features(block);
  // 3 instruction features + >=1 dep feature + eta.
  EXPECT_GE(feats.size(), 5u);
  EXPECT_TRUE(feats.contains(
      cg::Feature(cg::InstFeature{0, cx::Opcode::ADD})));
  EXPECT_TRUE(feats.contains(
      cg::Feature(cg::DepFeature{0, 1, cg::DepKind::RAW})));
  EXPECT_TRUE(feats.contains(cg::Feature(cg::NumInstsFeature{3})));
}

TEST(Features, SetOperations) {
  cg::FeatureSet s;
  const cg::Feature f1(cg::InstFeature{0, cx::Opcode::ADD});
  const cg::Feature f2(cg::NumInstsFeature{3});
  s.insert(f1);
  s.insert(f1);  // duplicate
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(f1));
  EXPECT_FALSE(s.contains(f2));

  const auto s2 = s.with(f2);
  EXPECT_EQ(s2.size(), 2u);
  EXPECT_TRUE(s.is_subset_of(s2));
  EXPECT_FALSE(s2.is_subset_of(s));
  EXPECT_TRUE(cg::FeatureSet{}.is_subset_of(s));
}

TEST(Features, ToStringStable) {
  const cg::Feature fi(cg::InstFeature{1, cx::Opcode::MOV});
  EXPECT_EQ(fi.to_string(), "inst2(mov)");
  const cg::Feature fd(cg::DepFeature{0, 1, cg::DepKind::RAW});
  EXPECT_EQ(fd.to_string(), "RAW(1->2)");
  const cg::Feature fn(cg::NumInstsFeature{5});
  EXPECT_EQ(fn.to_string(), "eta(5)");
}

TEST(Features, TypesClassified) {
  EXPECT_EQ(cg::Feature(cg::InstFeature{}).type(), cg::FeatureType::Inst);
  EXPECT_EQ(cg::Feature(cg::DepFeature{}).type(), cg::FeatureType::Dep);
  EXPECT_EQ(cg::Feature(cg::NumInstsFeature{}).type(),
            cg::FeatureType::NumInsts);
}

TEST(Features, DedupesParallelEdgesOfSameKind) {
  // Two RAW register hazards between the same pair collapse to one feature.
  const auto block = bb(R"(
    add rcx, rax
    add rax, rcx
  )");
  const auto feats = cg::extract_features(block);
  std::size_t raw01 = 0;
  for (const auto& f : feats.items()) {
    if (f.is_dep() && f.as_dep().from == 0 && f.as_dep().to == 1 &&
        f.as_dep().kind == cg::DepKind::RAW) {
      ++raw01;
    }
  }
  EXPECT_EQ(raw01, 1u);
}
