// Tests for the synthetic BHive-like dataset substrate: generator validity,
// category classification, dataset determinism, partitions, paper blocks.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "bhive/dataset.h"
#include "bhive/generator.h"
#include "bhive/paper_blocks.h"
#include "graph/depgraph.h"
#include "x86/parser.h"

namespace cb = comet::bhive;
namespace cx = comet::x86;
using comet::util::Rng;

// ---------- generator ----------

TEST(Generator, ProducesValidBlocks) {
  cb::BlockGenerator gen;
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const auto block = gen.generate(rng);
    EXPECT_TRUE(cx::is_valid(block)) << block.to_string();
    EXPECT_GE(block.size(), 4u);
    EXPECT_LE(block.size(), 10u);
  }
}

TEST(Generator, RespectsSizeBounds) {
  cb::GeneratorOptions opt;
  opt.min_insts = 6;
  opt.max_insts = 6;
  cb::BlockGenerator gen(opt);
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(gen.generate(rng).size(), 6u);
  }
}

TEST(Generator, OpenBlasProfileIsVectorHeavy) {
  cb::GeneratorOptions clang_opt, blas_opt;
  blas_opt.source = cb::BlockSource::OpenBLAS;
  cb::BlockGenerator clang_gen(clang_opt), blas_gen(blas_opt);
  Rng rng(3);
  int clang_vec = 0, blas_vec = 0;
  for (int i = 0; i < 100; ++i) {
    for (const auto& inst : clang_gen.generate(rng).instructions) {
      for (const auto& op : inst.operands) {
        clang_vec += op.is_reg() &&
                     cx::reg_class(op.as_reg()) == cx::RegClass::Vec;
      }
    }
    for (const auto& inst : blas_gen.generate(rng).instructions) {
      for (const auto& op : inst.operands) {
        blas_vec += op.is_reg() &&
                    cx::reg_class(op.as_reg()) == cx::RegClass::Vec;
      }
    }
  }
  EXPECT_GT(blas_vec, clang_vec * 3);
}

TEST(Generator, CreatesDependencyChains) {
  cb::BlockGenerator gen;
  Rng rng(4);
  int blocks_with_deps = 0;
  for (int i = 0; i < 100; ++i) {
    const auto block = gen.generate(rng);
    const auto g = comet::graph::DepGraph::build(block);
    blocks_with_deps += !g.edges().empty();
  }
  EXPECT_GT(blocks_with_deps, 60);
}

TEST(Generator, DeterministicGivenSeed) {
  cb::BlockGenerator gen;
  Rng r1(42), r2(42);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(gen.generate(r1).to_string(), gen.generate(r2).to_string());
  }
}

// ---------- classification ----------

TEST(Classify, AllSixCategories) {
  using C = cb::BlockCategory;
  EXPECT_EQ(cb::classify(cx::parse_block("mov rax, qword ptr [rdi]\nadd rax, 1")),
            C::Load);
  EXPECT_EQ(cb::classify(cx::parse_block("mov qword ptr [rdi], rax\nadd rax, 1")),
            C::Store);
  EXPECT_EQ(cb::classify(cx::parse_block(
                "mov rax, qword ptr [rdi]\nmov qword ptr [rsi], rax")),
            C::LoadStore);
  EXPECT_EQ(cb::classify(cx::parse_block("add rax, rcx\nsub rdx, rsi")),
            C::Scalar);
  EXPECT_EQ(cb::classify(cx::parse_block("addss xmm0, xmm1\nmulss xmm2, xmm0")),
            C::Vector);
  EXPECT_EQ(cb::classify(cx::parse_block("addss xmm0, xmm1\nadd rax, rcx")),
            C::ScalarVector);
}

TEST(Classify, PushCountsAsStore) {
  EXPECT_EQ(cb::classify(cx::parse_block("push rbx\nadd rax, rcx")),
            cb::BlockCategory::Store);
}

TEST(Classify, CategoryNamesMatchPaper) {
  EXPECT_EQ(cb::category_name(cb::BlockCategory::LoadStore), "Load/Store");
  EXPECT_EQ(cb::category_name(cb::BlockCategory::ScalarVector),
            "Scalar/Vector");
  EXPECT_EQ(cb::source_name(cb::BlockSource::OpenBLAS), "OpenBLAS");
}

// ---------- dataset ----------

TEST(Dataset, GenerateIsDeterministic) {
  cb::DatasetOptions opt;
  opt.size = 50;
  const auto d1 = cb::generate_dataset(opt);
  const auto d2 = cb::generate_dataset(opt);
  ASSERT_EQ(d1.size(), d2.size());
  for (std::size_t i = 0; i < d1.size(); ++i) {
    EXPECT_EQ(d1[i].block.to_string(), d2[i].block.to_string());
    EXPECT_DOUBLE_EQ(d1[i].measured_hsw, d2[i].measured_hsw);
  }
}

TEST(Dataset, LabelsArePositiveAndUarchSpecific) {
  cb::DatasetOptions opt;
  opt.size = 100;
  const auto d = cb::generate_dataset(opt);
  int differ = 0;
  for (const auto& b : d.blocks()) {
    EXPECT_GT(b.measured_hsw, 0.0);
    EXPECT_GT(b.measured_skl, 0.0);
    differ += std::abs(b.measured_hsw - b.measured_skl) > 1e-9;
  }
  EXPECT_GT(differ, 30);
}

TEST(Dataset, SourcePartitionsBothPresent) {
  cb::DatasetOptions opt;
  opt.size = 100;
  const auto d = cb::generate_dataset(opt);
  EXPECT_GT(d.by_source(cb::BlockSource::Clang).size(), 30u);
  EXPECT_GT(d.by_source(cb::BlockSource::OpenBLAS).size(), 30u);
}

TEST(Dataset, MostCategoriesAppear) {
  cb::DatasetOptions opt;
  opt.size = 400;
  const auto d = cb::generate_dataset(opt);
  std::set<cb::BlockCategory> seen;
  for (const auto& b : d.blocks()) seen.insert(b.category);
  EXPECT_GE(seen.size(), 5u);
}

TEST(Dataset, SampleWithoutReplacement) {
  cb::DatasetOptions opt;
  opt.size = 60;
  const auto d = cb::generate_dataset(opt);
  Rng rng(5);
  const auto s = d.sample(30, rng);
  EXPECT_EQ(s.size(), 30u);
  std::set<std::string> texts;
  for (const auto& b : s.blocks()) texts.insert(b.block.to_string());
  // Duplicates in text are possible only if the generator emitted identical
  // blocks; sampling itself must not duplicate indices.
  EXPECT_GE(texts.size(), 25u);
}

TEST(Dataset, ViewsAlign) {
  cb::DatasetOptions opt;
  opt.size = 20;
  const auto d = cb::generate_dataset(opt);
  const auto blocks = d.block_views();
  const auto labels = d.label_views(comet::cost::MicroArch::Haswell);
  ASSERT_EQ(blocks.size(), labels.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(blocks[i].to_string(), d[i].block.to_string());
    EXPECT_DOUBLE_EQ(labels[i], d[i].measured_hsw);
  }
}

// ---------- paper blocks ----------

TEST(PaperBlocks, AllParseToExpectedSizes) {
  EXPECT_EQ(cb::listing1_motivating().size(), 3u);
  EXPECT_EQ(cb::listing2_case_study1().size(), 5u);
  EXPECT_EQ(cb::listing3_case_study2().size(), 6u);
  EXPECT_EQ(cb::listing4_appendixF_beta1().size(), 7u);
  EXPECT_EQ(cb::listing5_appendixF_beta2().size(), 10u);
}

TEST(PaperBlocks, CaseStudy2HasDivAndDeps) {
  const auto block = cb::listing3_case_study2();
  bool has_div = false;
  for (const auto& inst : block.instructions) {
    has_div |= inst.opcode == cx::Opcode::DIV;
  }
  EXPECT_TRUE(has_div);
  const auto g = comet::graph::DepGraph::build(block);
  EXPECT_FALSE(g.edges().empty());
}
