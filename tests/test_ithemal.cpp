// Tests for the Ithemal surrogate: tokenizer, learning behaviour on small
// synthetic datasets, serialization round-trip, and train_or_load caching.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "bhive/dataset.h"
#include "cost/ithemal_model.h"
#include "util/contract.h"
#include "util/rng.h"
#include "util/stats.h"
#include "x86/parser.h"

namespace cc = comet::cost;
namespace cb = comet::bhive;
namespace cx = comet::x86;

namespace {

cc::IthemalConfig tiny_config() {
  cc::IthemalConfig cfg;
  cfg.embed_dim = 8;
  cfg.hidden_dim = 12;
  cfg.epochs = 3;
  cfg.lr = 5e-3;
  return cfg;
}

const cc::MicroArch HSW = cc::MicroArch::Haswell;

// Overwrite `n` bytes at `offset` in the file at `p` (adversarial
// checkpoint-corruption helper for the load() hardening tests).
void patch_file(const std::filesystem::path& p, long offset, const void* bytes,
                std::size_t n) {
  std::FILE* fp = std::fopen(p.string().c_str(), "r+b");
  ASSERT_NE(fp, nullptr);
  ASSERT_EQ(std::fseek(fp, offset, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(bytes, 1, n, fp), n);
  std::fclose(fp);
}

// FNV-1a 64 over the bytes of the file at `p`.
std::uint64_t file_fnv1a(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(in), {}};
  return comet::util::fnv1a64(bytes.data(), bytes.size());
}

}  // namespace

// ---------- tokenizer ----------

TEST(Tokenizer, VocabularyCoversAllOpcodesAndRegisters) {
  const cc::BlockTokenizer tok;
  EXPECT_GT(tok.vocab_size(), cx::kNumOpcodes);
}

TEST(Tokenizer, OneSequencePerInstruction) {
  const cc::BlockTokenizer tok;
  const auto block = cx::parse_block(R"(
    add rcx, rax
    mov rdx, qword ptr [rdi + 24]
    pop rbx
  )");
  std::vector<int> toks{-1};  // tokenize appends after what is there
  std::vector<std::size_t> ends{1};
  tok.tokenize(block, toks, ends);
  ASSERT_EQ(ends.size(), 4u);
  // "add rcx, rax": opcode + 2 registers.
  EXPECT_EQ(ends[1] - ends[0], 3u);
  // Memory operand adds open/close markers and the base register.
  EXPECT_GE(ends[2] - ends[1], 4u);
  EXPECT_EQ(ends[3], toks.size());
  for (std::size_t t = 1; t < toks.size(); ++t) {
    EXPECT_GE(toks[t], 0);
    EXPECT_LT(toks[t], static_cast<int>(tok.vocab_size()));
  }
}

TEST(Tokenizer, DistinguishesRegistersAndWidths) {
  const cc::BlockTokenizer tok;
  const auto tokens = [&](const char* text) {
    std::vector<int> toks;
    std::vector<std::size_t> ends;
    tok.tokenize(cx::parse_block(text), toks, ends);
    return toks;
  };
  const auto a = tokens("mov rax, rcx");
  EXPECT_NE(a, tokens("mov rax, rdx"));  // different source register
  EXPECT_NE(a, tokens("mov eax, ecx"));  // different width
}

// ---------- model learning ----------

TEST(Ithemal, PredictsPositiveThroughput) {
  cc::IthemalModel model(HSW, tiny_config());
  const auto block = cx::parse_block("add rcx, rax\nmov rdx, rcx");
  EXPECT_GT(model.predict(block), 0.0);
  EXPECT_DOUBLE_EQ(model.predict(cx::BasicBlock{}), 0.0);
}

TEST(Ithemal, TrainingReducesError) {
  // Train on a trivially learnable function of block length.
  cc::IthemalModel model(HSW, tiny_config());
  std::vector<cx::BasicBlock> blocks;
  std::vector<double> targets;
  comet::util::Rng rng(5);
  cb::BlockGenerator gen;
  for (int i = 0; i < 150; ++i) {
    blocks.push_back(gen.generate(rng));
    targets.push_back(static_cast<double>(blocks.back().size()) / 4.0);
  }
  // Error before training.
  std::vector<double> before;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    before.push_back(model.predict(blocks[i]));
  }
  const double mape_before = comet::util::mape(before, targets);
  const double mape_after = model.train(blocks, targets);
  EXPECT_LT(mape_after, mape_before);
  EXPECT_LT(mape_after, 25.0);
}

TEST(Ithemal, LearnedModelIsSensitiveToLength) {
  cc::IthemalModel model(HSW, tiny_config());
  std::vector<cx::BasicBlock> blocks;
  std::vector<double> targets;
  comet::util::Rng rng(6);
  cb::BlockGenerator gen;
  for (int i = 0; i < 200; ++i) {
    blocks.push_back(gen.generate(rng));
    targets.push_back(static_cast<double>(blocks.back().size()));
  }
  model.train(blocks, targets);
  const auto small = cx::parse_block("add rcx, rax\nmov rdx, rcx\npop rbx\ninc rsi");
  auto big = small;
  for (int i = 0; i < 6; ++i) {
    big.instructions.push_back(cx::parse_instruction("add r8, r9"));
  }
  EXPECT_GT(model.predict(big), model.predict(small));
}

TEST(Ithemal, DeterministicInitialization) {
  cc::IthemalModel a(HSW, tiny_config()), b(HSW, tiny_config());
  const auto block = cx::parse_block("add rcx, rax\nmov rdx, rcx");
  EXPECT_DOUBLE_EQ(a.predict(block), b.predict(block));
}

TEST(Ithemal, UarchsInitializeDifferently) {
  cc::IthemalModel hsw(HSW, tiny_config());
  cc::IthemalModel skl(cc::MicroArch::Skylake, tiny_config());
  const auto block = cx::parse_block("add rcx, rax\nmov rdx, rcx");
  EXPECT_NE(hsw.predict(block), skl.predict(block));
}

// ---------- training golden ----------

// Every bit of the trained weights, and the returned training MAPE, of two
// short fixed training runs: the default shape (96 gate rows, whole
// 32-row kernel chunks) and the tiny one (48 rows: a chunk plus a scalar
// tail). The training path may be restructured or optimized, but it must
// not move a bit; these values are never re-recorded to make a change pass.
TEST(Ithemal, TrainingGoldenWeights) {
  cb::DatasetOptions opts;
  opts.size = 60;
  opts.seed = 31;
  const cb::Dataset data = cb::generate_dataset(opts);
  const auto blocks = data.block_views();
  const auto targets = data.label_views(HSW);

  struct Case {
    const char* name;
    cc::IthemalConfig config;
    std::uint64_t fnv;
    double mape;
  };
  cc::IthemalConfig full;
  full.epochs = 2;
  cc::IthemalConfig tiny = tiny_config();
  tiny.epochs = 2;
  const Case cases[] = {
      {"default", full, 0x172ae3dac8c6807cULL, 0x1.3e91219d74692p+5},
      {"tiny", tiny, 0x56c658e8379e4fd7ULL, 0x1.26b790c9b3711p+5},
  };
  const auto path = std::filesystem::temp_directory_path() /
                    ("comet_ithemal_golden_" + std::to_string(::getpid()));
  for (const Case& c : cases) {
    cc::IthemalModel model(HSW, c.config);
    const double mape = model.train(blocks, targets);
    model.save(path);
    const std::uint64_t fnv = file_fnv1a(path);
    std::filesystem::remove(path);
    EXPECT_EQ(fnv, c.fnv) << c.name << ": weights FNV 0x" << std::hex << fnv;
    EXPECT_EQ(mape, c.mape) << c.name << ": MAPE " << std::hexfloat << mape;
  }
}

// A NaN or infinite target would make every gradient NaN, which the norm
// clip does not catch (NaN > clip is false), and one Adam step would write
// NaN into every weight. train_step rejects it before touching anything.
TEST(Ithemal, NonFiniteTargetThrowsAndLeavesWeights) {
  cc::IthemalModel model(HSW, tiny_config());
  const auto block = cx::parse_block("add rcx, rax\nmov rdx, rcx");
  const auto path = std::filesystem::temp_directory_path() /
                    ("comet_ithemal_nonfinite_" + std::to_string(::getpid()));
  model.save(path);
  const std::uint64_t before = file_fnv1a(path);
  for (const double target : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(model.train_step(block, target),
                 comet::util::ContractViolation);
    model.save(path);
    EXPECT_EQ(file_fnv1a(path), before) << "target " << target;
  }
  model.train_step(block, 2.0);  // a finite target still trains
  model.save(path);
  EXPECT_NE(file_fnv1a(path), before);
  std::filesystem::remove(path);
}

// ---------- serialization ----------

TEST(Ithemal, SaveLoadRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "comet_test_ithemal.bin";
  cc::IthemalModel a(HSW, tiny_config());
  // Perturb weights away from init so the round-trip is meaningful.
  const auto block = cx::parse_block("add rcx, rax\nmov rdx, rcx");
  a.train_step(block, 2.0);
  a.save(path);

  cc::IthemalModel b(HSW, tiny_config());
  ASSERT_TRUE(b.load(path));
  EXPECT_DOUBLE_EQ(a.predict(block), b.predict(block));
  std::filesystem::remove(path);
}

TEST(Ithemal, LoadRejectsMissingOrCorruptFiles) {
  cc::IthemalModel model(HSW, tiny_config());
  EXPECT_FALSE(model.load("/nonexistent/path/weights.bin"));

  const auto path =
      std::filesystem::temp_directory_path() / "comet_test_garbage.bin";
  std::FILE* fp = std::fopen(path.string().c_str(), "wb");
  const char garbage[] = "not a weight file";
  std::fwrite(garbage, 1, sizeof(garbage), fp);
  std::fclose(fp);
  EXPECT_FALSE(model.load(path));
  std::filesystem::remove(path);
}

// Regression: a truncated checkpoint behind a valid magic is structural
// corruption, not a cache miss — load() must throw ContractViolation
// (total-size gate, before any payload read) and must not leave the model
// half-overwritten. Historically load() streamed weights straight into the
// live matrices and only then noticed the file was truncated.
TEST(Ithemal, TruncatedCheckpointThrowsAndPreservesWeights) {
  const auto path =
      std::filesystem::temp_directory_path() / "comet_test_truncated.bin";
  cc::IthemalModel trained(HSW, tiny_config());
  const auto block = cx::parse_block("add rcx, rax\nmov rdx, rcx");
  trained.train_step(block, 2.0);
  trained.save(path);

  // Truncate the checkpoint mid-weights: keep the magic and the first
  // matrix header so a naive reader would fail deep inside the read, after
  // having already clobbered part of the model.
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);

  cc::IthemalModel victim(HSW, tiny_config());
  victim.train_step(block, 5.0);  // distinct live weights worth preserving
  const double before = victim.predict(block);
  EXPECT_THROW(victim.load(path), comet::util::ContractViolation);
  EXPECT_DOUBLE_EQ(victim.predict(block), before);
  std::filesystem::remove(path);
}

// An adversary who appends bytes to a valid checkpoint (or splices two
// checkpoints together) must hit the same total-size gate as truncation.
TEST(Ithemal, OversizedCheckpointThrows) {
  const auto path =
      std::filesystem::temp_directory_path() / "comet_test_oversized.bin";
  cc::IthemalModel model(HSW, tiny_config());
  model.save(path);
  std::FILE* fp = std::fopen(path.string().c_str(), "ab");
  ASSERT_NE(fp, nullptr);
  const char trailer[] = "trailing garbage";
  ASSERT_EQ(std::fwrite(trailer, 1, sizeof(trailer), fp), sizeof(trailer));
  std::fclose(fp);
  EXPECT_THROW(model.load(path), comet::util::ContractViolation);
  std::filesystem::remove(path);
}

TEST(Ithemal, LoadRejectsDimensionMismatch) {
  const auto path =
      std::filesystem::temp_directory_path() / "comet_test_dims.bin";
  cc::IthemalModel small(HSW, tiny_config());
  small.save(path);
  cc::IthemalConfig bigger = tiny_config();
  bigger.hidden_dim = 20;
  cc::IthemalModel big(HSW, bigger);
  // Different architecture => different expected byte count: the total-size
  // gate treats the file as structurally corrupt for this model.
  EXPECT_THROW(big.load(path), comet::util::ContractViolation);
  std::filesystem::remove(path);
}

// A bit flip inside a dimension header forges the matrix shape without
// changing the file size. The per-matrix dims gate must reject it before
// any buffer is sized from the forged value.
TEST(Ithemal, BitFlippedDimensionHeaderThrows) {
  const auto path =
      std::filesystem::temp_directory_path() / "comet_test_bitflip.bin";
  cc::IthemalModel model(HSW, tiny_config());
  model.save(path);
  // Offset 4: low byte of the first matrix's uint64 row count (the uint32
  // magic occupies bytes 0-3).
  std::uint8_t byte = 0;
  {
    std::FILE* fp = std::fopen(path.string().c_str(), "rb");
    ASSERT_NE(fp, nullptr);
    ASSERT_EQ(std::fseek(fp, 4, SEEK_SET), 0);
    ASSERT_EQ(std::fread(&byte, 1, 1, fp), 1u);
    std::fclose(fp);
  }
  byte ^= 0x01;
  patch_file(path, 4, &byte, 1);
  EXPECT_THROW(model.load(path), comet::util::ContractViolation);
  std::filesystem::remove(path);
}

// A NaN smuggled into the weight payload (cosmic-ray bit flip, foreign
// blob with a colliding magic) must be rejected by the finite-weight gate
// and must not touch the live weights.
TEST(Ithemal, NonFiniteWeightThrowsAndPreservesWeights) {
  const auto path =
      std::filesystem::temp_directory_path() / "comet_test_nan.bin";
  cc::IthemalModel model(HSW, tiny_config());
  const auto block = cx::parse_block("add rcx, rax\nmov rdx, rcx");
  model.save(path);
  // Offset 20: first float of the first matrix payload (magic 4 + dims 16).
  const std::uint32_t quiet_nan = 0x7fc00000u;
  patch_file(path, 20, &quiet_nan, sizeof(quiet_nan));
  const double before = model.predict(block);
  EXPECT_THROW(model.load(path), comet::util::ContractViolation);
  EXPECT_DOUBLE_EQ(model.predict(block), before);
  std::filesystem::remove(path);
}

TEST(Ithemal, TrainOrLoadCaches) {
  const auto path =
      std::filesystem::temp_directory_path() / "comet_test_cache.bin";
  std::filesystem::remove(path);

  std::vector<cx::BasicBlock> blocks;
  std::vector<double> targets;
  comet::util::Rng rng(7);
  cb::BlockGenerator gen;
  for (int i = 0; i < 40; ++i) {
    blocks.push_back(gen.generate(rng));
    targets.push_back(1.0 + static_cast<double>(i % 5));
  }

  cc::IthemalModel a(HSW, tiny_config());
  const double first = a.train_or_load(path, blocks, targets);
  EXPECT_GT(first, 0.0);  // trained
  ASSERT_TRUE(std::filesystem::exists(path));

  cc::IthemalModel b(HSW, tiny_config());
  const double second = b.train_or_load(path, blocks, targets);
  EXPECT_DOUBLE_EQ(second, 0.0);  // loaded from cache
  const auto block = blocks.front();
  EXPECT_DOUBLE_EQ(a.predict(block), b.predict(block));
  std::filesystem::remove(path);
}

// A bare filename has an empty parent path: train_or_load must train, save
// into the working directory and leave only the checkpoint behind (the
// save stages a sibling temp file and renames it into place).
TEST(Ithemal, TrainOrLoadAcceptsBareFilename) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("comet_ithemal_bare_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);

  std::vector<cx::BasicBlock> blocks;
  std::vector<double> targets;
  comet::util::Rng rng(8);
  cb::BlockGenerator gen;
  for (int i = 0; i < 20; ++i) {
    blocks.push_back(gen.generate(rng));
    targets.push_back(1.0 + static_cast<double>(i % 3));
  }
  cc::IthemalModel a(HSW, tiny_config());
  EXPECT_GT(a.train_or_load("ithemal.bin", blocks, targets), 0.0);
  cc::IthemalModel b(HSW, tiny_config());
  EXPECT_DOUBLE_EQ(b.train_or_load("ithemal.bin", blocks, targets), 0.0);
  EXPECT_DOUBLE_EQ(a.predict(blocks.front()), b.predict(blocks.front()));

  // A save that cannot land (the target is a directory) throws and also
  // leaves no temp file.
  std::filesystem::create_directory("taken");
  EXPECT_THROW(a.save("taken"), std::runtime_error);

  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"ithemal.bin", "taken"}));

  std::filesystem::current_path(cwd);
  std::filesystem::remove_all(dir);
}
