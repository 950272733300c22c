// Golden digests of x86 block text. `BasicBlock::to_string()` is not just a
// printer: its bytes are the remote shard client's wire payload and
// (through fnv1a64) the anchor engine's per-request RNG seed, and the query
// broker's binary memo key (x86::append_memo_key) must split blocks exactly
// as this text does (MemoKey.* in test_x86). Any rewrite of the renderer
// must therefore be byte-identical. These tests hash the rendered text of every block,
// instruction and operand over ~100 seeded generated Clang/OpenBLAS blocks
// and their Γ samples (default and whole-instruction configurations) into
// one FNV-1a digest per configuration, and pin a table of hand-written
// operands to their exact text.
//
// The expected digests were recorded before the renderer was rewritten to
// append into one buffer and must never be edited to make a change pass: a
// mismatch means the change altered the text the wire and the RNG seed
// consume and the memo key mirrors.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bhive/generator.h"
#include "perturb/perturber.h"
#include "x86/instruction.h"
#include "x86/operand.h"
#include "x86/registers.h"

namespace cb = comet::bhive;
namespace cp = comet::perturb;
namespace cx = comet::x86;
using comet::util::Rng;

namespace {

constexpr std::size_t kBlocksPerSource = 50;
constexpr int kSamplesPerBlock = 20;

/// Incremental 64-bit FNV-1a.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void bytes(const std::string& s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
    byte(0);
  }
};

/// Hash the block's text, then each instruction's and each operand's.
void digest_block(Fnv1a& d, const cx::BasicBlock& block) {
  d.bytes(block.to_string());
  for (const auto& inst : block.instructions) {
    d.bytes(inst.to_string());
    for (const auto& op : inst.operands) d.bytes(op.to_string());
  }
  d.byte(0xff);
}

/// Digest of ~100 generated blocks, each followed by Γ samples of it.
std::uint64_t traffic_digest(const cp::PerturbConfig& config) {
  Fnv1a d;
  std::size_t b = 0;
  for (const auto source : {cb::BlockSource::Clang, cb::BlockSource::OpenBLAS}) {
    cb::GeneratorOptions opts;
    opts.source = source;
    const cb::BlockGenerator gen(opts);
    Rng rng(source == cb::BlockSource::Clang ? 0x7E47 : 0x7E4B);
    for (std::size_t i = 0; i < kBlocksPerSource; ++i, ++b) {
      const auto block = gen.generate(rng);
      digest_block(d, block);
      const cp::Perturber p(block, {}, config);
      Rng sample_rng(3000 + b);
      for (int s = 0; s < kSamplesPerBlock; ++s) {
        digest_block(d, p.sample({}, sample_rng).block);
      }
    }
  }
  return d.h;
}

cx::Reg reg(cx::RegFamily family, std::uint16_t width = 64,
            bool high8 = false) {
  return cx::Reg{family, width, high8};
}

cx::Operand mem(std::optional<cx::Reg> base, std::optional<cx::Reg> index,
                std::uint8_t scale, std::int64_t disp,
                std::uint16_t size_bits) {
  return cx::Operand::mem(cx::MemOperand{base, index, scale, disp, size_bits});
}

}  // namespace

TEST(BlockTextGolden, DefaultConfigTraffic) {
  EXPECT_EQ(traffic_digest({}), 0xc7aa7f4aba4ec21dULL);
}

TEST(BlockTextGolden, WholeInstructionReplacementTraffic) {
  cp::PerturbConfig config;
  config.whole_instruction_replacement = true;
  EXPECT_EQ(traffic_digest(config), 0x14f63b640b503a50ULL);
}

// Every register that exists, at every width, by name.
TEST(BlockTextGolden, EveryRegisterName) {
  Fnv1a d;
  for (int f = 0; f < static_cast<int>(cx::RegFamily::kCount); ++f) {
    const auto family = static_cast<cx::RegFamily>(f);
    for (const std::uint16_t width : {8, 16, 32, 64, 128, 256}) {
      for (const bool high8 : {false, true}) {
        if (!cx::reg_exists(family, width, high8)) continue;
        d.bytes(cx::reg_name(cx::Reg{family, width, high8}));
      }
    }
  }
  EXPECT_EQ(d.h, 0x53651ec6b984229aULL);
}

// Hand-written operands covering every branch of the operand printer.
TEST(BlockTextGolden, HandWrittenOperands) {
  using F = cx::RegFamily;
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const struct {
    cx::Operand op;
    const char* text;
  } cases[] = {
      {cx::Operand::reg(reg(F::RAX)), "rax"},
      {cx::Operand::reg(reg(F::R15, 32)), "r15d"},
      {cx::Operand::reg(reg(F::R9, 16)), "r9w"},
      {cx::Operand::reg(reg(F::RSI, 8)), "sil"},
      {cx::Operand::reg(reg(F::RAX, 8, true)), "ah"},
      {cx::Operand::reg(reg(F::RBX, 8, true)), "bh"},
      {cx::Operand::reg(reg(F::RCX, 8, true)), "ch"},
      {cx::Operand::reg(reg(F::RDX, 8, true)), "dh"},
      {cx::Operand::reg(reg(F::XMM0, 128)), "xmm0"},
      {cx::Operand::reg(reg(F::XMM9, 128)), "xmm9"},
      {cx::Operand::reg(reg(F::XMM10, 256)), "ymm10"},
      {cx::Operand::reg(reg(F::XMM11, 256)), "ymm11"},
      {cx::Operand::reg(reg(F::XMM12, 256)), "ymm12"},
      {cx::Operand::reg(reg(F::XMM13, 256)), "ymm13"},
      {cx::Operand::reg(reg(F::XMM14, 256)), "ymm14"},
      {cx::Operand::reg(reg(F::XMM15, 256)), "ymm15"},
      {cx::Operand::reg(cx::flags_reg()), "flags"},
      {cx::Operand::imm(0), "0"},
      {cx::Operand::imm(80), "80"},
      {cx::Operand::imm(-1), "-1"},
      {cx::Operand::imm(-128, 8), "-128"},
      {cx::Operand::imm(kMax), "9223372036854775807"},
      {cx::Operand::imm(-kMax), "-9223372036854775807"},
      {mem(reg(F::RDI), {}, 1, 0, 64), "qword ptr [rdi]"},
      {mem(reg(F::RDI), {}, 1, 24, 32), "dword ptr [rdi + 24]"},
      {mem(reg(F::RBX), {}, 1, -8, 8), "byte ptr [rbx - 8]"},
      {mem(reg(F::RSP), {}, 1, kMax, 16),
       "word ptr [rsp + 9223372036854775807]"},
      {mem(reg(F::RBP), {}, 1, -kMax, 64),
       "qword ptr [rbp - 9223372036854775807]"},
      {mem({}, {}, 1, 0, 64), "qword ptr [0]"},
      {mem({}, {}, 1, 4096, 128), "xmmword ptr [4096]"},
      {mem({}, {}, 1, -16, 256), "ymmword ptr [-16]"},
      {mem({}, {}, 1, 64, 512), "zmmword ptr [64]"},
      {mem(reg(F::RAX), reg(F::RCX), 1, 0, 64), "qword ptr [rax + rcx]"},
      {mem(reg(F::RAX), reg(F::RCX), 4, 0, 32), "dword ptr [rax + rcx*4]"},
      {mem(reg(F::R12), reg(F::R13), 8, -40, 64),
       "qword ptr [r12 + r13*8 - 40]"},
      {mem(reg(F::RSI), reg(F::RDX), 2, 7, 16), "word ptr [rsi + rdx*2 + 7]"},
      {mem({}, reg(F::RCX), 1, 0, 64), "qword ptr [rcx]"},
      {mem({}, reg(F::R8), 8, 0, 64), "qword ptr [r8*8]"},
      {mem({}, reg(F::R8), 8, 16, 64), "qword ptr [r8*8 + 16]"},
      {mem({}, reg(F::R11), 4, -4, 32), "dword ptr [r11*4 - 4]"},
  };
  Fnv1a d;
  for (const auto& c : cases) {
    EXPECT_EQ(c.op.to_string(), c.text);
    d.bytes(c.op.to_string());
  }
  EXPECT_EQ(d.h, 0xbb2508839eb94e59ULL);

  // Whole instructions and a block: separators and the trailing newline.
  cx::BasicBlock block;
  block.instructions.push_back({cx::Opcode::NOP, {}});
  block.instructions.push_back(
      {cx::Opcode::ADD, {cx::Operand::reg(reg(F::RCX)),
                         cx::Operand::reg(reg(F::RAX))}});
  block.instructions.push_back(
      {cx::Opcode::MOV, {mem(reg(F::RDI), reg(F::RSI), 8, -8, 64),
                         cx::Operand::imm(-3)}});
  EXPECT_EQ(block.to_string(),
            "nop\nadd rcx, rax\nmov qword ptr [rdi + rsi*8 - 8], -3\n");
  EXPECT_EQ(cx::BasicBlock{}.to_string(), "");
}
