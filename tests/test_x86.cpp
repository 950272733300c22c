// Unit tests for the x86 substrate: register model, operands, ISA catalog,
// semantics, parser, and printer round-trips.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "bhive/generator.h"
#include "perturb/perturber.h"
#include "util/contract.h"
#include "util/rng.h"
#include "x86/instruction.h"
#include "x86/isa.h"
#include "x86/operand.h"
#include "x86/parser.h"
#include "x86/registers.h"

namespace cx = comet::x86;

// ---------- registers ----------

TEST(Registers, NamesRoundTrip) {
  for (const char* name :
       {"rax", "eax", "ax", "al", "ah", "r8", "r8d", "r8w", "r8b", "rsp",
        "xmm0", "xmm15", "ymm3", "sil", "dil"}) {
    const auto reg = cx::parse_reg(name);
    ASSERT_TRUE(reg.has_value()) << name;
    EXPECT_EQ(cx::reg_name(*reg), name);
  }
}

TEST(Registers, ParseRejectsGarbage) {
  EXPECT_FALSE(cx::parse_reg("foo").has_value());
  EXPECT_FALSE(cx::parse_reg("xmm16").has_value());
  EXPECT_FALSE(cx::parse_reg("").has_value());
}

TEST(Registers, ParseIsCaseInsensitive) {
  const auto reg = cx::parse_reg("RAX");
  ASSERT_TRUE(reg.has_value());
  EXPECT_EQ(reg->family, cx::RegFamily::RAX);
  EXPECT_EQ(reg->width_bits, 64);
}

TEST(Registers, SubRegisterAliasing) {
  const auto rax = *cx::parse_reg("rax");
  const auto eax = *cx::parse_reg("eax");
  const auto al = *cx::parse_reg("al");
  const auto ah = *cx::parse_reg("ah");
  EXPECT_TRUE(cx::read_range(rax).overlaps(cx::read_range(eax)));
  EXPECT_TRUE(cx::read_range(rax).overlaps(cx::read_range(al)));
  EXPECT_TRUE(cx::read_range(rax).overlaps(cx::read_range(ah)));
  // al (byte 0) and ah (byte 1) do not overlap.
  EXPECT_FALSE(cx::read_range(al).overlaps(cx::read_range(ah)));
}

TEST(Registers, ThirtyTwoBitWriteZeroExtends) {
  const auto eax = *cx::parse_reg("eax");
  // A 32-bit write covers all 8 bytes (zero-extension) ...
  EXPECT_EQ(cx::write_range(eax).end, 8);
  // ... but a 32-bit read covers only 4.
  EXPECT_EQ(cx::read_range(eax).end, 4);
  // 16-bit writes stay partial.
  const auto ax = *cx::parse_reg("ax");
  EXPECT_EQ(cx::write_range(ax).end, 2);
}

TEST(Registers, Classes) {
  EXPECT_EQ(cx::reg_class(cx::RegFamily::RAX), cx::RegClass::Gpr);
  EXPECT_EQ(cx::reg_class(cx::RegFamily::XMM5), cx::RegClass::Vec);
  EXPECT_EQ(cx::reg_class(cx::RegFamily::FLAGS), cx::RegClass::Flags);
}

TEST(Registers, SubstitutablePoolsExcludeStackRegs) {
  for (const auto fam : cx::substitutable_gpr_families()) {
    EXPECT_FALSE(cx::is_stack_family(fam));
  }
  EXPECT_EQ(cx::vec_families().size(), 16u);
}

// ---------- operands ----------

TEST(Operand, SizeAndKind) {
  const auto r = cx::Operand::reg(*cx::parse_reg("ecx"));
  EXPECT_TRUE(r.is_reg());
  EXPECT_EQ(r.size_bits(), 32);

  const auto imm = cx::Operand::imm(42);
  EXPECT_TRUE(imm.is_imm());

  cx::MemOperand m;
  m.base = *cx::parse_reg("rdi");
  m.disp = 24;
  m.size_bits = 64;
  const auto mem = cx::Operand::mem(m);
  EXPECT_TRUE(mem.is_mem());
  EXPECT_EQ(mem.size_bits(), 64);
}

TEST(Operand, AddressRegs) {
  cx::MemOperand m;
  m.base = *cx::parse_reg("rbp");
  m.index = *cx::parse_reg("rax");
  m.scale = 4;
  const auto op = cx::Operand::mem(m);
  const auto& mem = op.as_mem();
  ASSERT_TRUE(mem.base.has_value());
  ASSERT_TRUE(mem.index.has_value());
  EXPECT_EQ(mem.base->family, cx::RegFamily::RBP);
  EXPECT_EQ(mem.index->family, cx::RegFamily::RAX);
}

TEST(Operand, MemToString) {
  cx::MemOperand m;
  m.base = *cx::parse_reg("rdi");
  m.disp = 24;
  m.size_bits = 64;
  EXPECT_EQ(cx::Operand::mem(m).to_string(), "qword ptr [rdi + 24]");
  m.disp = -8;
  EXPECT_EQ(cx::Operand::mem(m).to_string(), "qword ptr [rdi - 8]");
}

// ---------- catalog ----------

TEST(Catalog, EveryOpcodeHasMnemonicAndSignatures) {
  for (const auto op : cx::all_opcodes()) {
    const auto& inf = cx::info(op);
    EXPECT_FALSE(inf.mnemonic.empty());
    EXPECT_FALSE(inf.signatures.empty())
        << "opcode without signatures: " << inf.mnemonic;
    EXPECT_EQ(inf.op, op);
  }
}

TEST(Catalog, MnemonicRoundTrip) {
  for (const auto op : cx::all_opcodes()) {
    const auto parsed = cx::parse_opcode(cx::mnemonic(op));
    ASSERT_TRUE(parsed.has_value()) << cx::mnemonic(op);
    EXPECT_EQ(*parsed, op);
  }
}

TEST(Catalog, AddAcceptsRegRegSameWidth) {
  const auto rax = cx::Operand::reg(*cx::parse_reg("rax"));
  const auto rcx = cx::Operand::reg(*cx::parse_reg("rcx"));
  const auto ecx = cx::Operand::reg(*cx::parse_reg("ecx"));
  const std::vector<cx::Operand> ok{rcx, rax};
  const std::vector<cx::Operand> bad{rcx, ecx};  // width mismatch
  EXPECT_NE(cx::find_signature(cx::Opcode::ADD, ok), nullptr);
  const std::vector<cx::Operand> bad2{bad[0], ecx};
  EXPECT_EQ(cx::find_signature(cx::Opcode::ADD, bad2), nullptr);
}

TEST(Catalog, MovRejectsMemMem) {
  cx::MemOperand m;
  m.base = *cx::parse_reg("rax");
  m.size_bits = 64;
  const std::vector<cx::Operand> ops{cx::Operand::mem(m), cx::Operand::mem(m)};
  EXPECT_EQ(cx::find_signature(cx::Opcode::MOV, ops), nullptr);
}

TEST(Catalog, ShiftCountMustBeClOrImm) {
  const auto rax = cx::Operand::reg(*cx::parse_reg("rax"));
  const auto cl = cx::Operand::reg(*cx::parse_reg("cl"));
  const auto dl = cx::Operand::reg(*cx::parse_reg("dl"));
  const std::vector<cx::Operand> v1{rax, cl};
  EXPECT_NE(cx::find_signature(cx::Opcode::SHL, v1), nullptr);
  const std::vector<cx::Operand> v2{rax, dl};
  EXPECT_EQ(cx::find_signature(cx::Opcode::SHL, v2), nullptr);
  const std::vector<cx::Operand> v3{rax, cx::Operand::imm(3)};
  EXPECT_NE(cx::find_signature(cx::Opcode::SHL, v3), nullptr);
}

TEST(Catalog, MovzxRequiresNarrowerSource) {
  const auto eax = cx::Operand::reg(*cx::parse_reg("eax"));
  const auto cl = cx::Operand::reg(*cx::parse_reg("cl"));
  const auto ecx = cx::Operand::reg(*cx::parse_reg("ecx"));
  const std::vector<cx::Operand> v1{eax, cl};
  EXPECT_NE(cx::find_signature(cx::Opcode::MOVZX, v1), nullptr);
  const std::vector<cx::Operand> v2{eax, ecx};
  EXPECT_EQ(cx::find_signature(cx::Opcode::MOVZX, v2), nullptr);
}

TEST(Catalog, VectorOpsRejectGprOperands) {
  const auto rax = cx::Operand::reg(*cx::parse_reg("rax"));
  const auto xmm0 = cx::Operand::reg(*cx::parse_reg("xmm0"));
  const std::vector<cx::Operand> v1{xmm0, rax};
  EXPECT_EQ(cx::find_signature(cx::Opcode::ADDPS, v1), nullptr);
  const std::vector<cx::Operand> v2{xmm0, xmm0};
  EXPECT_NE(cx::find_signature(cx::Opcode::ADDPS, v2), nullptr);
}

TEST(Catalog, ReplacementCandidatesShareSignature) {
  const auto rcx = cx::Operand::reg(*cx::parse_reg("rcx"));
  const auto rax = cx::Operand::reg(*cx::parse_reg("rax"));
  const std::vector<cx::Operand> ops{rcx, rax};
  const auto cands = cx::replacement_opcodes(cx::Opcode::ADD, ops);
  EXPECT_FALSE(cands.empty());
  for (const auto c : cands) {
    EXPECT_NE(c, cx::Opcode::ADD);
    EXPECT_NE(cx::find_signature(c, ops), nullptr)
        << "candidate does not accept operands: " << cx::mnemonic(c);
  }
  // sub should certainly be a candidate for add r64, r64.
  EXPECT_NE(std::find(cands.begin(), cands.end(), cx::Opcode::SUB),
            cands.end());
}

TEST(Catalog, LeaHasNoReplacements) {
  // Paper Appendix D: lea has no behavioral peer; replacement must fail.
  const auto inst = cx::parse_instruction("lea rdx, [rax + 1]");
  const auto cands = cx::replacement_opcodes(inst.opcode, inst.operands);
  EXPECT_TRUE(cands.empty());
}

TEST(Catalog, MemoryInstructionNeverReplacedByLea) {
  const auto inst = cx::parse_instruction("add rdx, qword ptr [rax + 1]");
  const auto cands = cx::replacement_opcodes(inst.opcode, inst.operands);
  EXPECT_EQ(std::find(cands.begin(), cands.end(), cx::Opcode::LEA),
            cands.end());
}

// ---------- semantics ----------

TEST(Semantics, MovWritesDstReadsSrc) {
  const auto inst = cx::parse_instruction("mov rdx, rcx");
  const auto sem = cx::semantics(inst);
  ASSERT_EQ(sem.regs.size(), 2u);
  bool wrote_rdx = false, read_rcx = false;
  for (const auto& a : sem.regs) {
    if (a.reg.family == cx::RegFamily::RDX) {
      wrote_rdx = a.write && !a.read;
    }
    if (a.reg.family == cx::RegFamily::RCX) {
      read_rcx = a.read && !a.write;
    }
  }
  EXPECT_TRUE(wrote_rdx);
  EXPECT_TRUE(read_rcx);
  EXPECT_FALSE(sem.mem.has_value());
  EXPECT_FALSE(sem.writes_flags);
}

TEST(Semantics, AddReadsAndWritesDst) {
  const auto sem = cx::semantics(cx::parse_instruction("add rcx, rax"));
  bool ok = false;
  for (const auto& a : sem.regs) {
    if (a.reg.family == cx::RegFamily::RCX) ok = a.read && a.write;
  }
  EXPECT_TRUE(ok);
  EXPECT_TRUE(sem.writes_flags);
}

TEST(Semantics, StoreWritesMemoryAndReadsAddressRegs) {
  const auto sem = cx::semantics(
      cx::parse_instruction("mov qword ptr [rdi + 24], rdx"));
  ASSERT_TRUE(sem.mem.has_value());
  EXPECT_TRUE(sem.mem->write);
  EXPECT_FALSE(sem.mem->read);
  bool read_rdi = false;
  for (const auto& a : sem.regs) {
    if (a.reg.family == cx::RegFamily::RDI) read_rdi = a.read;
  }
  EXPECT_TRUE(read_rdi);
}

TEST(Semantics, LoadReadsMemory) {
  const auto sem =
      cx::semantics(cx::parse_instruction("mov rsi, qword ptr [r14 + 32]"));
  ASSERT_TRUE(sem.mem.has_value());
  EXPECT_TRUE(sem.mem->read);
  EXPECT_FALSE(sem.mem->write);
}

TEST(Semantics, LeaDoesNotAccessMemory) {
  const auto sem = cx::semantics(cx::parse_instruction("lea rdx, [rax + 1]"));
  EXPECT_FALSE(sem.mem.has_value());
  bool read_rax = false;
  for (const auto& a : sem.regs) {
    if (a.reg.family == cx::RegFamily::RAX) read_rax = a.read;
  }
  EXPECT_TRUE(read_rax);
}

TEST(Semantics, DivImplicitRaxRdx) {
  const auto sem = cx::semantics(cx::parse_instruction("div rcx"));
  bool rax_rw = false, rdx_rw = false, rcx_r = false;
  for (const auto& a : sem.regs) {
    if (a.reg.family == cx::RegFamily::RAX) rax_rw = a.read && a.write;
    if (a.reg.family == cx::RegFamily::RDX) rdx_rw = a.read && a.write;
    if (a.reg.family == cx::RegFamily::RCX) rcx_r = a.read && !a.write;
  }
  EXPECT_TRUE(rax_rw);
  EXPECT_TRUE(rdx_rw);
  EXPECT_TRUE(rcx_r);
}

TEST(Semantics, MulImplicitWritesRdxButDoesNotReadIt) {
  const auto sem = cx::semantics(cx::parse_instruction("mul rcx"));
  bool rdx_ok = false;
  for (const auto& a : sem.regs) {
    if (a.reg.family == cx::RegFamily::RDX) rdx_ok = a.write && !a.read;
  }
  EXPECT_TRUE(rdx_ok);
}

TEST(Semantics, TwoOperandImulHasNoImplicitRegs) {
  const auto sem = cx::semantics(cx::parse_instruction("imul rax, rcx"));
  for (const auto& a : sem.regs) {
    EXPECT_NE(a.reg.family, cx::RegFamily::RDX);
  }
}

TEST(Semantics, PushReadsOperandAndUpdatesRsp) {
  const auto sem = cx::semantics(cx::parse_instruction("push rbx"));
  bool rsp_rw = false, rbx_r = false;
  for (const auto& a : sem.regs) {
    if (a.reg.family == cx::RegFamily::RSP) rsp_rw = a.read && a.write;
    if (a.reg.family == cx::RegFamily::RBX) rbx_r = a.read;
  }
  EXPECT_TRUE(rsp_rw);
  EXPECT_TRUE(rbx_r);
  EXPECT_TRUE(sem.stack_mem_write);
}

TEST(Semantics, PopWritesOperand) {
  const auto sem = cx::semantics(cx::parse_instruction("pop rbx"));
  bool rbx_w = false;
  for (const auto& a : sem.regs) {
    if (a.reg.family == cx::RegFamily::RBX) rbx_w = a.write && !a.read;
  }
  EXPECT_TRUE(rbx_w);
  EXPECT_TRUE(sem.stack_mem_read);
}

TEST(Semantics, CmovReadsFlags) {
  const auto sem = cx::semantics(cx::parse_instruction("cmove rax, rcx"));
  EXPECT_TRUE(sem.reads_flags);
}

TEST(Semantics, XorWritesFlagsNotDoesNot) {
  EXPECT_TRUE(cx::semantics(cx::parse_instruction("xor edx, edx")).writes_flags);
  EXPECT_FALSE(cx::semantics(cx::parse_instruction("not rdx")).writes_flags);
}

TEST(Semantics, Avx3OperandAccess) {
  const auto sem =
      cx::semantics(cx::parse_instruction("vdivss xmm0, xmm0, xmm6"));
  // xmm0 appears as both dst (write) and src1 (read) -> merged RW.
  bool xmm0_rw = false, xmm6_r = false;
  for (const auto& a : sem.regs) {
    if (a.reg.family == cx::RegFamily::XMM0) xmm0_rw = a.read && a.write;
    if (a.reg.family == cx::RegFamily::XMM6) xmm6_r = a.read && !a.write;
  }
  EXPECT_TRUE(xmm0_rw);
  EXPECT_TRUE(xmm6_r);
}

namespace {

/// "rbx:r rax:rw ...": every register access, in semantics() order
/// (explicit operands, then implicit effects).
std::string describe(const cx::RegAccessList& regs) {
  std::string out;
  for (const auto& a : regs) {
    if (!out.empty()) out += ' ';
    out += cx::reg_name(a.reg) + ':' + (a.read ? "r" : "") +
           (a.write ? "w" : "");
  }
  return out;
}

}  // namespace

TEST(Semantics, WidestFormsFitInline) {
  // Base and index registers plus two implicit registers: the most
  // register accesses any catalog form makes.
  const auto div =
      cx::semantics(cx::parse_instruction("div qword ptr [rbx + rcx*8]"));
  EXPECT_EQ(describe(div.regs), "rbx:r rcx:r rax:rw rdx:rw");
  ASSERT_TRUE(div.mem.has_value());
  EXPECT_TRUE(div.mem->read);
  EXPECT_EQ(describe(cx::semantics(cx::parse_instruction("cqo")).regs),
            "rax:r rdx:w");
  EXPECT_EQ(describe(cx::semantics(
                         cx::parse_instruction("push qword ptr [rbx + rcx*8]"))
                         .regs),
            "rbx:r rcx:r rsp:rw");

  cx::RegAccessList full;
  for (std::size_t i = 0; i < cx::RegAccessList::kCapacity; ++i) {
    full.push_back(cx::RegAccess{});
  }
  EXPECT_EQ(full.size(), 8u);
  EXPECT_THROW(full.push_back(cx::RegAccess{}),
               comet::util::ContractViolation);
  EXPECT_EQ(full.size(), 8u);
}

TEST(Semantics, InvalidInstructionThrows) {
  cx::Instruction bad;
  bad.opcode = cx::Opcode::ADD;
  bad.operands = {cx::Operand::imm(1), cx::Operand::imm(2)};
  EXPECT_THROW(cx::semantics(bad), std::invalid_argument);
  EXPECT_FALSE(cx::is_valid(bad));
}

// ---------- parser ----------

TEST(Parser, SimpleInstructions) {
  EXPECT_EQ(cx::parse_instruction("add rcx, rax").to_string(), "add rcx, rax");
  EXPECT_EQ(cx::parse_instruction("pop rbx").to_string(), "pop rbx");
  EXPECT_EQ(cx::parse_instruction("nop").to_string(), "nop");
}

TEST(Parser, MemoryOperands) {
  const auto i1 = cx::parse_instruction("mov qword ptr [rdi + 24], rdx");
  ASSERT_TRUE(i1.operands[0].is_mem());
  EXPECT_EQ(i1.operands[0].as_mem().disp, 24);
  EXPECT_EQ(i1.operands[0].as_mem().size_bits, 64);

  const auto i2 = cx::parse_instruction("mov byte ptr [rax], 80");
  EXPECT_EQ(i2.operands[0].as_mem().size_bits, 8);
  EXPECT_EQ(i2.operands[1].as_imm().value, 80);

  const auto i3 = cx::parse_instruction("lea rax, [rbp + rax - 1]");
  const auto& m = i3.operands[1].as_mem();
  EXPECT_EQ(m.base->family, cx::RegFamily::RBP);
  EXPECT_EQ(m.index->family, cx::RegFamily::RAX);
  EXPECT_EQ(m.disp, -1);
}

TEST(Parser, ScaledIndex) {
  const auto inst = cx::parse_instruction("mov rax, qword ptr [rsi + rcx*8 + 16]");
  const auto& m = inst.operands[1].as_mem();
  EXPECT_EQ(m.scale, 8);
  EXPECT_EQ(m.disp, 16);
}

TEST(Parser, InfersMemSizeFromRegister) {
  const auto inst = cx::parse_instruction("mov rsi, [r14 + 32]");
  EXPECT_EQ(inst.operands[1].as_mem().size_bits, 64);
  const auto inst32 = cx::parse_instruction("add ecx, [r14]");
  EXPECT_EQ(inst32.operands[1].as_mem().size_bits, 32);
}

TEST(Parser, ScalarFpMemWidthInferred) {
  const auto inst = cx::parse_instruction("addss xmm1, [rax]");
  EXPECT_EQ(inst.operands[1].as_mem().size_bits, 32);
  const auto instsd = cx::parse_instruction("addsd xmm1, [rax]");
  EXPECT_EQ(instsd.operands[1].as_mem().size_bits, 64);
}

TEST(Parser, HexImmediates) {
  const auto inst = cx::parse_instruction("mov rax, 0x10");
  EXPECT_EQ(inst.operands[1].as_imm().value, 16);
  const auto neg = cx::parse_instruction("add rax, -5");
  EXPECT_EQ(neg.operands[1].as_imm().value, -5);
}

// An immediate takes one sign and one radix prefix. from_chars accepts a
// '-' of its own, so "--5" used to parse as 5 and "0x-5" as -5; and
// "--9223372036854775808" negated INT64_MIN.
TEST(Parser, RejectsDoubledImmediateSign) {
  for (const char* line :
       {"mov rax, --5", "mov rax, +-5", "mov rax, 0x-5", "mov rax, -0x-5",
        "mov rax, +0X-5", "mov rax, --9223372036854775808"}) {
    EXPECT_THROW(cx::parse_instruction(line), cx::ParseError) << line;
  }
  try {
    cx::parse_instruction("mov rax, --5");
  } catch (const cx::ParseError& e) {
    EXPECT_STREQ(e.what(), "unrecognized operand: --5");
  }
  EXPECT_EQ(cx::parse_instruction("mov rax, +5").operands[1].as_imm().value,
            5);
  EXPECT_EQ(cx::parse_instruction("mov rax, -0x10").operands[1].as_imm().value,
            -16);
}

// Mnemonics, registers, size keywords and `ptr` are all case-insensitive.
// An uppercase `PTR` used to be cut at a case-sensitive find("ptr"), which
// missed and threw "size keyword without memory operand".
TEST(Parser, SizePtrIsCaseInsensitive) {
  for (const char* line :
       {"MOV QWORD PTR [RAX], RBX", "mov qword PTR [rax], rbx",
        "mov QWORD ptr [rax], rbx", "Mov Qword Ptr [Rax], Rbx"}) {
    EXPECT_EQ(cx::parse_instruction(line).to_string(),
              "mov qword ptr [rax], rbx")
        << line;
  }
  // The cut is at the keyword itself, not at a later "ptr".
  try {
    cx::parse_instruction("mov qword PTR [rax + ptr], rbx");
    ADD_FAILURE() << "accepted a register named ptr";
  } catch (const cx::ParseError& e) {
    EXPECT_STREQ(e.what(), "bad memory term: ptr");
  }
}

// Name lookup reads views: an embedded NUL must not match a shorter name,
// and a name longer than every table key matches nothing.
TEST(Parser, NameLookupRejectsNulAndOverlongNames) {
  EXPECT_FALSE(cx::parse_reg(std::string_view("r\0ax", 4)).has_value());
  EXPECT_FALSE(cx::parse_reg(std::string_view("rax\0", 4)).has_value());
  EXPECT_FALSE(cx::parse_opcode(std::string_view("mov\0", 4)).has_value());
  EXPECT_EQ(cx::parse_size_keyword(std::string_view("byte\0", 5)), 0);
  EXPECT_THROW(cx::parse_instruction(std::string_view("mov r\0ax, rbx", 14)),
               cx::ParseError);
  EXPECT_FALSE(cx::parse_reg("xmm150").has_value());
  EXPECT_FALSE(cx::parse_opcode("vbroadcastssx").has_value());
  EXPECT_EQ(cx::parse_size_keyword("xmmwordx"), 0);
  EXPECT_EQ(cx::parse_opcode("VBROADCASTSS"), cx::Opcode::VBROADCASTSS);
  EXPECT_EQ(cx::parse_size_keyword("XMMWORD"), 128);
  EXPECT_EQ(cx::parse_reg("FLAGS"), cx::flags_reg());
}

TEST(Parser, RejectsBadInput) {
  EXPECT_THROW(cx::parse_instruction("bogus rax"), cx::ParseError);
  EXPECT_THROW(cx::parse_instruction("add rax"), cx::ParseError);
  EXPECT_THROW(cx::parse_instruction("mov [rax, rbx"), cx::ParseError);
  EXPECT_THROW(cx::parse_instruction("jmp rax"), cx::ParseError);  // no CF ops
  EXPECT_THROW(cx::parse_instruction(""), cx::ParseError);
}

// Parse-boundary hardening (fuzz_x86_parser corpus): every adversarial
// input must raise ParseError — never overflow, index out of range, or
// abort. The displacement cases are a fixed bug: `[rax + MAX + MAX]` used
// to accumulate with a signed add, which is undefined behaviour.
TEST(Parser, AdversarialInputsRaiseParseError) {
  // Signed-overflow in displacement accumulation.
  EXPECT_THROW(
      cx::parse_instruction("add rcx, qword ptr [rax + 9223372036854775807 + "
                            "9223372036854775807]"),
      cx::ParseError);
  EXPECT_THROW(
      cx::parse_instruction("add rcx, qword ptr [rax - 9223372036854775807 - "
                            "9223372036854775807]"),
      cx::ParseError);
  // Empty operands around dangling separators.
  EXPECT_THROW(cx::parse_instruction("add ,"), cx::ParseError);
  EXPECT_THROW(cx::parse_instruction("add rax,"), cx::ParseError);
  EXPECT_THROW(cx::parse_instruction("add , rax"), cx::ParseError);
  // Unterminated memory brackets.
  EXPECT_THROW(cx::parse_instruction("mov rax, ["), cx::ParseError);
  EXPECT_THROW(cx::parse_instruction("mov rax, [rbx"), cx::ParseError);
  EXPECT_THROW(cx::parse_instruction("mov rax, qword ptr [rbx + "),
               cx::ParseError);
  // Immediates beyond int64 range must not silently wrap.
  EXPECT_THROW(cx::parse_instruction("mov rax, 99999999999999999999999"),
               cx::ParseError);
  // Non-ASCII bytes (raw high bytes, UTF-8 BOM glued to the mnemonic).
  EXPECT_THROW(cx::parse_instruction("mov rax, \xff\xfe\xc0"), cx::ParseError);
  EXPECT_THROW(cx::parse_instruction("\xef\xbb\xbf"
                                     "add rcx, rax"),
               cx::ParseError);
}

TEST(Parser, BlockWithCommentsAndListingNumbers) {
  const auto block = cx::parse_block(R"(
    1: add rcx, rax   ; RAW with next
    2: mov rdx, rcx
    # a comment line
    3: pop rbx
  )");
  ASSERT_EQ(block.size(), 3u);
  EXPECT_EQ(block.instructions[0].to_string(), "add rcx, rax");
  EXPECT_EQ(block.instructions[2].to_string(), "pop rbx");
  EXPECT_TRUE(cx::is_valid(block));
}

TEST(Parser, PaperCaseStudyBlocks) {
  // Listing 2.
  const auto cs1 = cx::parse_block(R"(
    lea rdx, [rax + 1]
    mov qword ptr [rdi + 24], rdx
    mov byte ptr [rax], 80
    mov rsi, qword ptr [r14 + 32]
    mov rdi, rbp
  )");
  EXPECT_EQ(cs1.size(), 5u);
  // Listing 3.
  const auto cs2 = cx::parse_block(R"(
    mov ecx, edx
    xor edx, edx
    lea rax, [rcx + rax - 1]
    div rcx
    mov rdx, rcx
    imul rax, rcx
  )");
  EXPECT_EQ(cs2.size(), 6u);
  // Listing 4 (AVX).
  const auto l4 = cx::parse_block(R"(
    vdivss xmm0, xmm0, xmm6
    vmulss xmm7, xmm0, xmm0
    vxorps xmm0, xmm0, xmm5
    vaddss xmm7, xmm7, xmm3
    vmulss xmm6, xmm6, xmm7
    vdivss xmm6, xmm3, xmm6
    vmulss xmm0, xmm6, xmm0
  )");
  EXPECT_EQ(l4.size(), 7u);
}

TEST(Parser, RoundTripThroughPrinter) {
  const char* lines[] = {
      "add rcx, rax",
      "mov qword ptr [rdi + 24], rdx",
      "vdivss xmm0, xmm0, xmm6",
      "shl eax, 3",
      "imul rax, r15",
      "mov rbp, qword ptr [rsp + 8]",
      "cmove rax, rcx",
      "movzx eax, cl",
  };
  for (const char* line : lines) {
    const auto inst = cx::parse_instruction(line);
    const auto printed = inst.to_string();
    const auto reparsed = cx::parse_instruction(printed);
    EXPECT_EQ(inst, reparsed) << line << " vs " << printed;
  }
}

// INT64_MIN is a reachable displacement (the accumulation is checked, not
// the range of one term). The printer writes its magnitude unsigned, and
// the parser takes that magnitude back when it is negated.
TEST(Parser, Int64MinDisplacementRoundTrips) {
  const std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  for (const char* line :
       {"mov rax, qword ptr [rbx - 9223372036854775807 - 1]",
        "mov rax, qword ptr [rbx - 9223372036854775808]",
        "mov rax, qword ptr [rbx - 0x8000000000000000]",
        "mov rax, qword ptr [-9223372036854775808]",
        "mov rax, qword ptr [rbx + rcx*4 - 9223372036854775808]"}) {
    const auto inst = cx::parse_instruction(line);
    ASSERT_TRUE(inst.operands[1].is_mem()) << line;
    EXPECT_EQ(inst.operands[1].as_mem().disp, kMin) << line;
    const auto printed = inst.to_string();
    const auto reparsed = cx::parse_instruction(printed);
    EXPECT_EQ(reparsed, inst) << line << " vs " << printed;
    EXPECT_EQ(reparsed.to_string(), printed);
  }
  const auto print = [](const char* line) {
    return cx::parse_instruction(line).to_string();
  };
  EXPECT_EQ(print("mov rax, qword ptr [rbx - 9223372036854775807 - 1]"),
            "mov rax, qword ptr [rbx - 9223372036854775808]");
  EXPECT_EQ(print("mov rax, qword ptr [-9223372036854775808]"),
            "mov rax, qword ptr [-9223372036854775808]");
  // Only the negated magnitude fits; 2^63 itself and anything past the
  // minimum do not.
  for (const char* line :
       {"mov rax, qword ptr [rbx + 9223372036854775808]",
        "mov rax, qword ptr [9223372036854775808]",
        "mov rax, qword ptr [rbx - 9223372036854775808 - 1]",
        "mov rax, qword ptr [rbx - 9223372036854775809]"}) {
    EXPECT_THROW(cx::parse_instruction(line), cx::ParseError) << line;
  }
}

// ---------- parse digest ----------
//
// One FNV-1a digest over the outcome of parse_block on a fixed input set:
// the printed block for an accepted input, or the error type and message
// for a rejected one. The inputs are Γ samples of generated Clang/OpenBLAS
// blocks, the fuzz_x86_parser seed corpus as it stood when the digest was
// recorded, and seeded byte mutations of both. The expected value was
// recorded before the parser was rewritten to work on views, and must never
// be edited to make a change pass: a mismatch means some input is now
// accepted, rejected or printed differently.
//
// Two deliberate behaviour fixes came after the recording: a `ptr` spelled
// in any case other than lowercase, and an immediate with a second sign
// ("--5", "+-5", "0x-5"). Mutants that spell either are skipped, so the
// digest stays a pure equivalence check; the fixes have their own tests.

namespace {

const char* const kParserSeedCorpus[] = {
    "add rcx, rax\nmov rdx, rcx\npop rbx\ninc rsi\n",
    "mov rax, 9223372036854775807\nadd rcx, -2147483648\n",
    "mov rax, qword ptr [rbx - 9223372036854775807 - 1]\n"
    "mov qword ptr [-9223372036854775807 - 1], rcx\n",
    "lea rdx, [rsi + rdi*8 - 0x8000000000000000]\n"
    "mov rax, qword ptr [rbx - 9223372036854775808]\n",
    "1: add rcx, rax  ; comment\n2: vdivss xmm0, xmm0, xmm6 # trailing\n"
    "3: cmp rcx, 0x7f\n\n4: jle -12\n",
    "mov rdx, qword ptr [rdi + 24]\nmov qword ptr [rsp - 8], rax\n"
    "lea rax, [rcx + rax*4 - 1]\nmovss xmm0, dword ptr [rax + rbx*8 + 16]\n"
    "add dword ptr [rbp + 0x40], eax\n",
    "vmulps ymm1, ymm2, ymm3\nvfmadd231ss xmm0, xmm1, xmm2\n"
    "vmovaps ymmword ptr [rdi], ymm1\nucomisd xmm3, qword ptr [rsi + 8]\n",
};

// Bytes a mutation may write: assembly punctuation, every C-locale space,
// digits, lowercase letters, uppercase letters other than P/T/R, a NUL and
// two high bytes.
constexpr char kMutationBytes[] =
    " \t\v\f\r\n,[]*+-:;#._0123456789abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOQSUVWXYZ\0\x80\xff";
constexpr std::string_view kMutationAlphabet(kMutationBytes,
                                             sizeof kMutationBytes - 1);

// Whether `text` spells what the two later fixes changed: a doubled sign
// on an immediate, or `ptr` in any case other than lowercase.
bool touched_by_later_fixes(std::string_view text) {
  for (const std::string_view doubled : {"--", "+-", "0x-", "0X-"}) {
    if (text.find(doubled) != std::string_view::npos) return true;
  }
  for (std::size_t i = 0; i + 3 <= text.size(); ++i) {
    const auto word = text.substr(i, 3);
    if (word == "ptr") continue;
    if ((word[0] | 0x20) == 'p' && (word[1] | 0x20) == 't' &&
        (word[2] | 0x20) == 'r') {
      return true;
    }
  }
  return false;
}

std::string mutate(std::string text, comet::util::Rng& rng) {
  const auto pick = [&] {
    return kMutationAlphabet[rng.index(kMutationAlphabet.size())];
  };
  const std::size_t edits = 1 + rng.index(3);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t pos = rng.index(text.size() + 1);
    switch (rng.index(4)) {
      case 0:  // overwrite
        if (pos < text.size()) text[pos] = pick();
        break;
      case 1:  // insert
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos), pick());
        break;
      case 2:  // delete
        if (pos < text.size()) text.erase(pos, 1);
        break;
      default: {  // copy a short slice elsewhere
        const std::size_t from = rng.index(text.size() + 1);
        const std::size_t len = 1 + rng.index(8);
        const std::string slice = text.substr(from, len);
        text.insert(pos, slice);
        break;
      }
    }
  }
  return text;
}

struct ParseDigest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t accepted = 0;
  std::size_t rejected = 0;

  void bytes(std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ULL;
    }
    h ^= 0;
    h *= 0x100000001b3ULL;
  }

  void add(std::string_view input) {
    try {
      const auto block = cx::parse_block(input);
      bytes("OK");
      bytes(block.to_string());
      ++accepted;
    } catch (const cx::ParseError& e) {
      bytes("PE");
      bytes(e.what());
      ++rejected;
    } catch (const comet::util::ContractViolation& e) {
      bytes("CV");
      bytes(e.what());
      ++rejected;
    }
  }
};

}  // namespace

TEST(Parser, DigestMatchesRecorded) {
  std::vector<std::string> bases;
  comet::util::Rng gen_rng(11);
  comet::util::Rng sample_rng(12);
  for (std::size_t i = 0; i < 64; ++i) {
    comet::bhive::GeneratorOptions opts;
    opts.source = i % 2 == 0 ? comet::bhive::BlockSource::Clang
                             : comet::bhive::BlockSource::OpenBLAS;
    const comet::perturb::Perturber p(
        comet::bhive::BlockGenerator(opts).generate(gen_rng));
    for (int s = 0; s < 4; ++s) {
      bases.push_back(
          p.sample(comet::graph::FeatureSet{}, sample_rng).block.to_string());
    }
  }
  for (const char* text : kParserSeedCorpus) bases.emplace_back(text);
  // Each line on its own as well: one bad line rejects a whole block, so
  // mutated lines are what reach the accepting paths.
  for (std::size_t b = 0, n = bases.size(); b < n; ++b) {
    std::size_t start = 0;
    for (std::size_t nl; (nl = bases[b].find('\n', start)) != std::string::npos;
         start = nl + 1) {
      if (nl > start) bases.push_back(bases[b].substr(start, nl - start));
    }
  }

  ParseDigest digest;
  comet::util::Rng mutation_rng(13);
  std::size_t skipped = 0;
  for (const auto& base : bases) {
    digest.add(base);
    for (int m = 0; m < 8; ++m) {
      const std::string mutant = mutate(base, mutation_rng);
      if (touched_by_later_fixes(mutant)) {
        ++skipped;
        continue;
      }
      digest.add(mutant);
    }
  }
  // Both outcomes must be well represented for the digest to mean much.
  EXPECT_GT(digest.accepted, 1000u);
  EXPECT_GT(digest.rejected, 1000u);
  EXPECT_LT(skipped, 500u);
  EXPECT_EQ(digest.h, 0x3d4f1a63480976abULL) << std::hex << digest.h << std::dec
                               << " accepted " << digest.accepted
                               << " rejected " << digest.rejected
                               << " skipped " << skipped;
}

// Property test: every opcode's printed form for some valid operand choice
// parses back. Uses reg-reg forms where available.
class CatalogRoundTrip : public ::testing::TestWithParam<int> {};

TEST(CatalogProperty, AllSignaturesHaveSaneSlotCounts) {
  for (const auto op : cx::all_opcodes()) {
    for (const auto& s : cx::info(op).signatures) {
      EXPECT_LE(s.slots.size(), 4u);
    }
  }
}
