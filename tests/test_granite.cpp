// Tests for the Granite-style GNN cost model: prediction sanity, relation
// construction, training behaviour, serialization, and its fit behind the
// model-agnostic CostModel interface.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "bhive/dataset.h"
#include "cost/granite_model.h"
#include "util/contract.h"
#include "util/rng.h"
#include "x86/parser.h"

namespace cc = comet::cost;
namespace cb = comet::bhive;
namespace cx = comet::x86;

namespace {

cx::BasicBlock paper_block() {
  return cx::parse_block(R"(
    add rcx, rax
    mov rdx, rcx
    pop rbx
  )");
}

// FNV-1a 64 over the bytes of the file at `p`.
std::uint64_t file_fnv1a(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(in), {}};
  return comet::util::fnv1a64(bytes.data(), bytes.size());
}

cb::Dataset small_dataset() {
  cb::DatasetOptions opts;
  opts.size = 250;
  opts.seed = 77;
  return cb::generate_dataset(opts);
}

}  // namespace

TEST(Granite, PredictsPositiveThroughput) {
  cc::GraniteModel model(cc::MicroArch::Haswell);
  EXPECT_GT(model.predict(paper_block()), 0.0);
}

TEST(Granite, EmptyBlockPredictsZero) {
  cc::GraniteModel model(cc::MicroArch::Haswell);
  EXPECT_EQ(model.predict(cx::BasicBlock{}), 0.0);
}

TEST(Granite, DeterministicPrediction) {
  cc::GraniteModel model(cc::MicroArch::Haswell);
  const auto block = paper_block();
  EXPECT_DOUBLE_EQ(model.predict(block), model.predict(block));
}

TEST(Granite, UarchInstancesDiffer) {
  // Per-microarchitecture instances start from different seeds, as in the
  // paper (one Ithemal/Granite per microarchitecture).
  cc::GraniteModel hsw(cc::MicroArch::Haswell);
  cc::GraniteModel skl(cc::MicroArch::Skylake);
  EXPECT_NE(hsw.predict(paper_block()), skl.predict(paper_block()));
  EXPECT_EQ(hsw.name(), "granite-HSW");
  EXPECT_EQ(skl.name(), "granite-SKL");
}

TEST(Granite, PredictionDependsOnDependencyStructure) {
  // Same multiset of instructions, different dependency graph. A graph
  // model (even untrained) must read the edge structure: the two blocks
  // produce different node messages.
  const auto chained = cx::parse_block("add rax, rbx\nadd rcx, rax");
  const auto parallel = cx::parse_block("add rax, rbx\nadd rcx, rdx");
  cc::GraniteModel model(cc::MicroArch::Haswell);
  EXPECT_NE(model.predict(chained), model.predict(parallel));
}

TEST(Granite, TrainingReducesError) {
  const auto data = small_dataset();
  cc::GraniteConfig cfg;
  cfg.epochs = 3;
  cc::GraniteModel model(cc::MicroArch::Haswell, cfg);

  const auto blocks = data.block_views();
  const auto targets = data.label_views(cc::MicroArch::Haswell);

  // MAPE before training (random weights).
  double before = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    before += std::abs(model.predict(blocks[i]) - targets[i]) / targets[i];
  }
  before /= double(blocks.size());

  const double after = model.train(blocks, targets) / 100.0;
  EXPECT_LT(after, before);
  EXPECT_LT(after, 0.35);  // fits the small training set reasonably
}

// Every bit of the trained weights, and the returned training MAPE, of a
// short fixed training run through the shared nn::Adam. The optimizer may
// be restructured or optimized, but it must not move a bit; these values
// are never re-recorded to make a change pass.
TEST(Granite, TrainingGoldenWeights) {
  cb::DatasetOptions opts;
  opts.size = 60;
  opts.seed = 31;
  const cb::Dataset data = cb::generate_dataset(opts);
  cc::GraniteConfig cfg;
  cfg.epochs = 2;
  cc::GraniteModel model(cc::MicroArch::Haswell, cfg);
  const double mape = model.train(data.block_views(),
                                  data.label_views(cc::MicroArch::Haswell));
  const auto path = std::filesystem::temp_directory_path() /
                    ("comet_granite_golden_" + std::to_string(::getpid()));
  model.save(path);
  const std::uint64_t fnv = file_fnv1a(path);
  std::filesystem::remove(path);
  EXPECT_EQ(fnv, 0xba195b096d58e714ULL) << "weights FNV 0x" << std::hex << fnv;
  EXPECT_EQ(mape, 0x1.16e1d2cae5655p+5) << "MAPE " << std::hexfloat << mape;
}

// A NaN or infinite target would make every gradient NaN, which the norm
// clip does not catch (NaN > clip is false), and one Adam step would write
// NaN into every weight. train_step rejects it before touching anything.
TEST(Granite, NonFiniteTargetThrowsAndLeavesWeights) {
  cc::GraniteModel model(cc::MicroArch::Haswell);
  const auto path = std::filesystem::temp_directory_path() /
                    ("comet_granite_nonfinite_" + std::to_string(::getpid()));
  model.save(path);
  const std::uint64_t before = file_fnv1a(path);
  for (const double target : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(model.train_step(paper_block(), target),
                 comet::util::ContractViolation);
    model.save(path);
    EXPECT_EQ(file_fnv1a(path), before) << "target " << target;
  }
  model.train_step(paper_block(), 2.0);  // a finite target still trains
  model.save(path);
  EXPECT_NE(file_fnv1a(path), before);
  std::filesystem::remove(path);
}

TEST(Granite, SaveLoadRoundTrip) {
  const auto tmp = std::filesystem::temp_directory_path() /
                   "comet_granite_roundtrip.bin";
  cc::GraniteModel a(cc::MicroArch::Haswell);
  const auto data = small_dataset();
  const auto blocks = data.block_views();
  const auto targets = data.label_views(cc::MicroArch::Haswell);
  // A few steps so weights differ from initialization.
  for (std::size_t i = 0; i < 10; ++i) a.train_step(blocks[i], targets[i]);
  a.save(tmp);

  cc::GraniteModel b(cc::MicroArch::Haswell);
  ASSERT_TRUE(b.load(tmp));
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(a.predict(blocks[i]), b.predict(blocks[i]));
  }
  std::filesystem::remove(tmp);
}

TEST(Granite, LoadRejectsWrongMagic) {
  const auto tmp =
      std::filesystem::temp_directory_path() / "comet_granite_bad.bin";
  std::FILE* fp = std::fopen(tmp.string().c_str(), "wb");
  ASSERT_NE(fp, nullptr);
  const std::uint32_t bogus = 0xDEADBEEF;
  std::fwrite(&bogus, sizeof(bogus), 1, fp);
  std::fclose(fp);
  cc::GraniteModel model(cc::MicroArch::Haswell);
  EXPECT_FALSE(model.load(tmp));
  std::filesystem::remove(tmp);
}

TEST(Granite, LoadMissingFileReturnsFalse) {
  cc::GraniteModel model(cc::MicroArch::Haswell);
  EXPECT_FALSE(model.load("/nonexistent/path/weights.bin"));
}

// Regression: granite's old load() streamed weights straight into the live
// matrices, so a truncated cache file left the model half-overwritten and
// returned false as if nothing happened. Under the checkpoint contract a
// truncated file behind a valid magic throws, and the staged commit keeps
// the live weights bit-identical.
TEST(Granite, TruncatedCheckpointThrowsAndPreservesWeights) {
  const auto tmp = std::filesystem::temp_directory_path() /
                   "comet_granite_truncated.bin";
  cc::GraniteModel trained(cc::MicroArch::Haswell);
  const auto block = paper_block();
  trained.train_step(block, 2.0);
  trained.save(tmp);
  const auto full_size = std::filesystem::file_size(tmp);
  std::filesystem::resize_file(tmp, full_size / 2);

  cc::GraniteModel victim(cc::MicroArch::Haswell);
  victim.train_step(block, 5.0);
  const double before = victim.predict(block);
  EXPECT_THROW(victim.load(tmp), comet::util::ContractViolation);
  EXPECT_DOUBLE_EQ(victim.predict(block), before);
  std::filesystem::remove(tmp);
}

// Appending bytes to a valid granite checkpoint trips the total-size gate.
TEST(Granite, OversizedCheckpointThrows) {
  const auto tmp = std::filesystem::temp_directory_path() /
                   "comet_granite_oversized.bin";
  cc::GraniteModel model(cc::MicroArch::Haswell);
  model.save(tmp);
  std::FILE* fp = std::fopen(tmp.string().c_str(), "ab");
  ASSERT_NE(fp, nullptr);
  const std::uint64_t extra = 0;
  ASSERT_EQ(std::fwrite(&extra, 1, sizeof(extra), fp), sizeof(extra));
  std::fclose(fp);
  EXPECT_THROW(model.load(tmp), comet::util::ContractViolation);
  std::filesystem::remove(tmp);
}

TEST(Granite, TrainOrLoadUsesCache) {
  const auto tmp =
      std::filesystem::temp_directory_path() / "comet_granite_cache.bin";
  std::filesystem::remove(tmp);
  const auto data = small_dataset();
  const auto blocks = data.block_views();
  const auto targets = data.label_views(cc::MicroArch::Haswell);

  cc::GraniteConfig cfg;
  cfg.epochs = 1;
  cc::GraniteModel a(cc::MicroArch::Haswell, cfg);
  const double mape = a.train_or_load(tmp, blocks, targets);
  EXPECT_GT(mape, 0.0);  // actually trained

  cc::GraniteModel b(cc::MicroArch::Haswell, cfg);
  EXPECT_EQ(b.train_or_load(tmp, blocks, targets), 0.0);  // loaded
  EXPECT_DOUBLE_EQ(a.predict(blocks[0]), b.predict(blocks[0]));
  std::filesystem::remove(tmp);
}

// A bare filename has an empty parent path: train_or_load must train, save
// into the working directory and leave only the checkpoint behind.
TEST(Granite, TrainOrLoadAcceptsBareFilename) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("comet_granite_bare_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);

  cb::DatasetOptions opts;
  opts.size = 30;
  opts.seed = 78;
  const auto data = cb::generate_dataset(opts);
  const auto blocks = data.block_views();
  const auto targets = data.label_views(cc::MicroArch::Haswell);
  cc::GraniteConfig cfg;
  cfg.epochs = 1;
  cc::GraniteModel a(cc::MicroArch::Haswell, cfg);
  EXPECT_GT(a.train_or_load("granite.bin", blocks, targets), 0.0);
  cc::GraniteModel b(cc::MicroArch::Haswell, cfg);
  EXPECT_EQ(b.train_or_load("granite.bin", blocks, targets), 0.0);
  EXPECT_DOUBLE_EQ(a.predict(blocks[0]), b.predict(blocks[0]));

  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"granite.bin"});

  std::filesystem::current_path(cwd);
  std::filesystem::remove_all(dir);
}

TEST(Granite, TrainSizeMismatchThrows) {
  cc::GraniteModel model(cc::MicroArch::Haswell);
  EXPECT_THROW(model.train({paper_block()}, {1.0, 2.0}),
               std::invalid_argument);
}

TEST(Granite, BehindCostModelInterface) {
  // COMET consumes models through the CostModel base only.
  cc::GraniteModel model(cc::MicroArch::Skylake);
  const cc::CostModel& m = model;
  EXPECT_GT(m.predict(paper_block()), 0.0);
  EXPECT_FALSE(m.name().empty());
}
