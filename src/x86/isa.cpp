#include "x86/isa.h"

#include <array>
#include <stdexcept>

#include "util/name_table.h"

namespace comet::x86 {

namespace {

// ---- size mask shorthands -------------------------------------------------
constexpr std::uint32_t S8 = size_bit(8);
constexpr std::uint32_t S16 = size_bit(16);
constexpr std::uint32_t S32 = size_bit(32);
constexpr std::uint32_t S64 = size_bit(64);
constexpr std::uint32_t S128 = size_bit(128);
constexpr std::uint32_t S256 = size_bit(256);
constexpr std::uint32_t GALL = S8 | S16 | S32 | S64;   // any GPR width
constexpr std::uint32_t GW = S16 | S32 | S64;          // word+ GPR widths

// ---- OpSpec builders --------------------------------------------------------
OpSpec r(std::uint32_t sizes, std::uint8_t access) {
  return OpSpec{kKindReg, sizes, access, std::nullopt, RegClass::Gpr};
}
OpSpec m(std::uint32_t sizes, std::uint8_t access) {
  return OpSpec{kKindMem, sizes, access, std::nullopt, RegClass::Gpr};
}
OpSpec rm(std::uint32_t sizes, std::uint8_t access) {
  return OpSpec{static_cast<std::uint8_t>(kKindReg | kKindMem), sizes, access,
                std::nullopt, RegClass::Gpr};
}
OpSpec im(std::uint32_t sizes) {
  return OpSpec{kKindImm, sizes, kRead, std::nullopt, RegClass::Gpr};
}
OpSpec x(std::uint8_t access) {
  return OpSpec{kKindReg, S128, access, std::nullopt, RegClass::Vec};
}
OpSpec y(std::uint8_t access) {
  return OpSpec{kKindReg, S256, access, std::nullopt, RegClass::Vec};
}
OpSpec cl_count() {
  return OpSpec{kKindReg, S8, kRead, RegFamily::RCX, RegClass::Gpr};
}

Signature sig(std::vector<OpSpec> slots, bool same_width = false) {
  Signature s;
  s.slots = std::move(slots);
  s.same_width = same_width;
  return s;
}

// ---- common signature families ---------------------------------------------

// Two-operand integer ALU: op r/m, r/m/imm (no mem,mem), fixed access on dst.
std::vector<Signature> int2(std::uint8_t dst_access,
                            std::uint8_t src_access = kRead) {
  return {
      sig({r(GALL, dst_access), r(GALL, src_access)}, /*same_width=*/true),
      sig({r(GALL, dst_access), m(GALL, src_access)}, true),
      sig({m(GALL, dst_access), r(GALL, src_access)}, true),
      sig({r(GALL, dst_access), im(S8 | S16 | S32)}),
      sig({m(GALL, dst_access), im(S8 | S16 | S32)}),
  };
}

// One-operand integer read-modify-write (inc/dec/neg/not).
std::vector<Signature> int1rw() { return {sig({rm(GALL, kRead | kWrite)})}; }

// mul/div family: one r/m source, implicit RAX/RDX effects.
std::vector<Signature> muldiv(bool reads_rdx) {
  Signature s = sig({rm(GALL, kRead)});
  s.implicit = {
      ImplicitReg{RegFamily::RAX, 0, true, true},
      ImplicitReg{RegFamily::RDX, 0, reads_rdx, true},
  };
  return {s};
}

// Shifts/rotates: dst r/m RW, count imm8 or cl.
std::vector<Signature> shift() {
  return {
      sig({rm(GALL, kRead | kWrite), im(S8)}),
      sig({rm(GALL, kRead | kWrite), cl_count()}),
  };
}

// Bit scans / counts: r <- r/m, word+ widths.
std::vector<Signature> bitscan() {
  return {sig({r(GW, kWrite), rm(GW, kRead)}, true)};
}

// cmovcc: r <- r/m, word+ widths, dst conditionally written (treated RW).
std::vector<Signature> cmov() {
  return {sig({r(GW, kRead | kWrite), rm(GW, kRead)}, true)};
}

// SSE scalar FP, 2-operand read-modify-write: op xmm, xmm/m<bits>.
std::vector<Signature> sse_scalar_rw(std::uint16_t mem_bits) {
  return {
      sig({x(kRead | kWrite), x(kRead)}),
      sig({x(kRead | kWrite), m(size_bit(mem_bits), kRead)}),
  };
}

// SSE scalar with write-only destination (sqrtss, cvttss2si variants built
// separately).
std::vector<Signature> sse_scalar_w(std::uint16_t mem_bits) {
  return {
      sig({x(kWrite), x(kRead)}),
      sig({x(kWrite), m(size_bit(mem_bits), kRead)}),
  };
}

// SSE scalar move: load/store/reg-reg.
std::vector<Signature> sse_scalar_mov(std::uint16_t mem_bits) {
  return {
      sig({x(kWrite), x(kRead)}),
      sig({x(kWrite), m(size_bit(mem_bits), kRead)}),
      sig({m(size_bit(mem_bits), kWrite), x(kRead)}),
  };
}

// SSE packed move (128-bit).
std::vector<Signature> sse_packed_mov() {
  return {
      sig({x(kWrite), x(kRead)}),
      sig({x(kWrite), m(S128, kRead)}),
      sig({m(S128, kWrite), x(kRead)}),
  };
}

// SSE packed ALU: op xmm, xmm/m128 (read-modify-write destination).
std::vector<Signature> sse_packed_rw() {
  return {
      sig({x(kRead | kWrite), x(kRead)}),
      sig({x(kRead | kWrite), m(S128, kRead)}),
  };
}

// SSE packed with write-only destination (sqrtps).
std::vector<Signature> sse_packed_w() {
  return {
      sig({x(kWrite), x(kRead)}),
      sig({x(kWrite), m(S128, kRead)}),
  };
}

// FP compare: reads both, writes flags.
std::vector<Signature> fp_compare(std::uint16_t mem_bits) {
  return {
      sig({x(kRead), x(kRead)}),
      sig({x(kRead), m(size_bit(mem_bits), kRead)}),
  };
}

// AVX 3-operand scalar: vop xmm, xmm, xmm/m<bits>.
std::vector<Signature> avx3_scalar(std::uint16_t mem_bits,
                                   std::uint8_t dst_access = kWrite) {
  return {
      sig({x(dst_access), x(kRead), x(kRead)}),
      sig({x(dst_access), x(kRead), m(size_bit(mem_bits), kRead)}),
  };
}

// AVX 3-operand packed: xmm and ymm forms.
std::vector<Signature> avx3_packed(std::uint8_t dst_access = kWrite) {
  return {
      sig({x(dst_access), x(kRead), x(kRead)}),
      sig({x(dst_access), x(kRead), m(S128, kRead)}),
      sig({y(dst_access), y(kRead), y(kRead)}),
      sig({y(dst_access), y(kRead), m(S256, kRead)}),
  };
}

// AVX packed move: xmm and ymm forms.
std::vector<Signature> avx_packed_mov() {
  return {
      sig({x(kWrite), x(kRead)}),
      sig({x(kWrite), m(S128, kRead)}),
      sig({m(S128, kWrite), x(kRead)}),
      sig({y(kWrite), y(kRead)}),
      sig({y(kWrite), m(S256, kRead)}),
      sig({m(S256, kWrite), y(kRead)}),
  };
}

// ---- catalog construction ----------------------------------------------------

struct CatalogBuilder {
  std::array<OpcodeInfo, kNumOpcodes> infos;

  OpcodeInfo& at(Opcode op) { return infos[static_cast<std::size_t>(op)]; }

  void set(Opcode op, OpClass cls, std::vector<Signature> sigs) {
    auto& e = at(op);
    e.op = op;
    e.cls = cls;
    e.signatures = std::move(sigs);
  }

  void flags(Opcode op, bool reads, bool writes) {
    at(op).reads_flags = reads;
    at(op).writes_flags = writes;
  }
};

std::array<OpcodeInfo, kNumOpcodes> build_catalog() {
  CatalogBuilder b;

  // Mnemonics first so every entry has one even if set() is missed.
  static constexpr std::array<std::string_view, kNumOpcodes> kMnemonics = {
#define COMET_X86_MNEMONIC(name, mnemonic) #mnemonic,
      COMET_X86_OPCODES(COMET_X86_MNEMONIC)
#undef COMET_X86_MNEMONIC
  };
  for (std::size_t i = 0; i < kNumOpcodes; ++i) {
    b.infos[i].op = static_cast<Opcode>(i);
    b.infos[i].mnemonic = kMnemonics[i];
  }

  using O = Opcode;

  // --- integer moves ---
  b.set(O::MOV, OpClass::Mov,
        {
            sig({r(GALL, kWrite), r(GALL, kRead)}, true),
            sig({r(GALL, kWrite), m(GALL, kRead)}, true),
            sig({m(GALL, kWrite), r(GALL, kRead)}, true),
            sig({r(GALL, kWrite), im(S8 | S16 | S32 | S64)}),
            sig({m(GALL, kWrite), im(S8 | S16 | S32)}),
        });
  {
    Signature zx = sig({r(GW, kWrite), rm(S8 | S16 | S32, kRead)});
    zx.src_smaller = true;
    b.set(O::MOVZX, OpClass::Mov, {zx});
    b.set(O::MOVSX, OpClass::Mov, {zx});
  }
  {
    // lea: memory operand carries no access size semantics; address only.
    Signature l = sig({r(GW, kWrite), m(GW | S8, kRead)});
    b.set(O::LEA, OpClass::Lea, {l});
    b.at(O::LEA).address_only_mem = true;
  }

  // --- integer ALU ---
  for (O op : {O::ADD, O::SUB, O::AND, O::OR, O::XOR}) {
    b.set(op, OpClass::IntAlu, int2(kRead | kWrite));
    b.flags(op, false, true);
  }
  for (O op : {O::ADC, O::SBB}) {
    b.set(op, OpClass::IntAlu, int2(kRead | kWrite));
    b.flags(op, true, true);
  }
  for (O op : {O::CMP, O::TEST}) {
    b.set(op, OpClass::IntAlu, int2(kRead));
    b.flags(op, false, true);
  }
  for (O op : {O::INC, O::DEC, O::NEG}) {
    b.set(op, OpClass::IntAlu, int1rw());
    b.flags(op, false, true);
  }
  b.set(O::NOT, OpClass::IntAlu, int1rw());  // not does not touch flags

  // --- multiply / divide ---
  {
    std::vector<Signature> imul_sigs = muldiv(/*reads_rdx=*/false);
    imul_sigs.push_back(sig({r(GW, kRead | kWrite), rm(GW, kRead)}, true));
    {
      Signature s3 = sig({r(GW, kWrite), rm(GW, kRead), im(S8 | S16 | S32)},
                         /*same_width=*/true);
      imul_sigs.push_back(s3);
    }
    b.set(O::IMUL, OpClass::IntMul, std::move(imul_sigs));
    b.flags(O::IMUL, false, true);
  }
  b.set(O::MUL, OpClass::IntMul, muldiv(false));
  b.flags(O::MUL, false, true);
  b.set(O::DIV, OpClass::IntDiv, muldiv(true));
  b.flags(O::DIV, false, true);
  b.set(O::IDIV, OpClass::IntDiv, muldiv(true));
  b.flags(O::IDIV, false, true);

  // --- shifts / rotates ---
  for (O op : {O::SHL, O::SHR, O::SAR, O::ROL, O::ROR}) {
    b.set(op, OpClass::Shift, shift());
    b.flags(op, false, true);
  }

  // --- bit ops ---
  b.set(O::BSWAP, OpClass::IntAlu, {sig({r(S32 | S64, kRead | kWrite)})});
  for (O op : {O::BSF, O::BSR, O::POPCNT, O::LZCNT, O::TZCNT}) {
    b.set(op, OpClass::IntAlu, bitscan());
    b.flags(op, false, true);
  }

  // --- exchange ---
  b.set(O::XCHG, OpClass::IntAlu,
        {
            sig({r(GALL, kRead | kWrite), r(GALL, kRead | kWrite)}, true),
            sig({r(GALL, kRead | kWrite), m(GALL, kRead | kWrite)}, true),
            sig({m(GALL, kRead | kWrite), r(GALL, kRead | kWrite)}, true),
        });

  // --- stack ---
  {
    std::vector<Signature> push_sigs = {
        sig({r(S64 | S16, kRead)}),
        sig({m(S64 | S16, kRead)}),
        sig({im(S8 | S16 | S32)}),
    };
    for (auto& s : push_sigs) {
      s.implicit = {ImplicitReg{RegFamily::RSP, 64, true, true}};
    }
    b.set(O::PUSH, OpClass::Stack, std::move(push_sigs));
    b.at(O::PUSH).stack_mem_write = true;

    std::vector<Signature> pop_sigs = {
        sig({r(S64 | S16, kWrite)}),
        sig({m(S64 | S16, kWrite)}),
    };
    for (auto& s : pop_sigs) {
      s.implicit = {ImplicitReg{RegFamily::RSP, 64, true, true}};
    }
    b.set(O::POP, OpClass::Stack, std::move(pop_sigs));
    b.at(O::POP).stack_mem_read = true;
  }

  // --- nop ---
  b.set(O::NOP, OpClass::Nop, {sig({}), sig({rm(GW, 0)})});

  // --- cmovcc ---
  for (O op : {O::CMOVE, O::CMOVNE, O::CMOVL, O::CMOVLE, O::CMOVG, O::CMOVGE,
               O::CMOVB, O::CMOVA, O::CMOVS, O::CMOVNS}) {
    b.set(op, OpClass::IntAlu, cmov());
    b.flags(op, true, false);
  }

  // --- SSE scalar FP ---
  b.set(O::MOVSS, OpClass::FpMov, sse_scalar_mov(32));
  b.set(O::MOVSD, OpClass::FpMov, sse_scalar_mov(64));
  for (auto [op, bits] : std::initializer_list<std::pair<O, int>>{
           {O::ADDSS, 32}, {O::SUBSS, 32}, {O::MINSS, 32}, {O::MAXSS, 32},
           {O::ADDSD, 64}, {O::SUBSD, 64}, {O::MINSD, 64}, {O::MAXSD, 64}}) {
    b.set(op, OpClass::FpAdd, sse_scalar_rw(static_cast<std::uint16_t>(bits)));
  }
  b.set(O::MULSS, OpClass::FpMul, sse_scalar_rw(32));
  b.set(O::MULSD, OpClass::FpMul, sse_scalar_rw(64));
  b.set(O::DIVSS, OpClass::FpDiv, sse_scalar_rw(32));
  b.set(O::DIVSD, OpClass::FpDiv, sse_scalar_rw(64));
  b.set(O::SQRTSS, OpClass::FpDiv, sse_scalar_w(32));
  b.set(O::SQRTSD, OpClass::FpDiv, sse_scalar_w(64));
  b.set(O::UCOMISS, OpClass::FpAdd, fp_compare(32));
  b.flags(O::UCOMISS, false, true);
  b.set(O::UCOMISD, OpClass::FpAdd, fp_compare(64));
  b.flags(O::UCOMISD, false, true);
  b.set(O::CVTSI2SS, OpClass::Convert,
        {sig({x(kRead | kWrite), rm(S32 | S64, kRead)})});
  b.set(O::CVTSI2SD, OpClass::Convert,
        {sig({x(kRead | kWrite), rm(S32 | S64, kRead)})});
  b.set(O::CVTTSS2SI, OpClass::Convert,
        {sig({r(S32 | S64, kWrite), x(kRead)}),
         sig({r(S32 | S64, kWrite), m(S32, kRead)})});
  b.set(O::RCPSS, OpClass::FpMul, sse_scalar_w(32));
  b.set(O::RSQRTSS, OpClass::FpMul, sse_scalar_w(32));
  b.set(O::CVTSS2SD, OpClass::Convert, sse_scalar_rw(32));
  b.set(O::CVTSD2SS, OpClass::Convert, sse_scalar_rw(64));
  b.set(O::COMISS, OpClass::FpAdd, fp_compare(32));
  b.flags(O::COMISS, false, true);
  b.set(O::COMISD, OpClass::FpAdd, fp_compare(64));
  b.flags(O::COMISD, false, true);
  b.set(O::CVTTSD2SI, OpClass::Convert,
        {sig({r(S32 | S64, kWrite), x(kRead)}),
         sig({r(S32 | S64, kWrite), m(S64, kRead)})});

  // --- SSE packed ---
  for (O op : {O::MOVAPS, O::MOVUPS, O::MOVAPD, O::MOVUPD, O::MOVDQA,
               O::MOVDQU}) {
    b.set(op, OpClass::FpMov, sse_packed_mov());
  }
  for (O op : {O::ADDPS, O::ADDPD, O::SUBPS, O::SUBPD}) {
    b.set(op, OpClass::FpAdd, sse_packed_rw());
  }
  for (O op : {O::MULPS, O::MULPD}) b.set(op, OpClass::FpMul, sse_packed_rw());
  for (O op : {O::DIVPS, O::DIVPD}) b.set(op, OpClass::FpDiv, sse_packed_rw());
  b.set(O::SQRTPS, OpClass::FpDiv, sse_packed_w());
  b.set(O::SQRTPD, OpClass::FpDiv, sse_packed_w());
  for (O op : {O::XORPS, O::XORPD, O::ANDPS, O::ANDPD, O::ORPS, O::ORPD}) {
    b.set(op, OpClass::FpAdd, sse_packed_rw());
  }
  for (O op : {O::PXOR, O::PAND, O::POR, O::PADDB, O::PADDW, O::PADDD,
               O::PADDQ, O::PSUBB, O::PSUBW, O::PSUBD, O::PSUBQ}) {
    b.set(op, OpClass::VecInt, sse_packed_rw());
  }
  for (O op : {O::PMULLW, O::PMULLD}) {
    b.set(op, OpClass::VecIntMul, sse_packed_rw());
  }
  for (O op : {O::PCMPEQB, O::PCMPEQW, O::PCMPEQD, O::PCMPGTB, O::PCMPGTW,
               O::PCMPGTD, O::PMINSD, O::PMAXSD, O::PMINUB, O::PMAXUB,
               O::PAVGB, O::PAVGW}) {
    b.set(op, OpClass::VecInt, sse_packed_rw());
  }
  for (O op : {O::PABSB, O::PABSW, O::PABSD}) {
    b.set(op, OpClass::VecInt, sse_packed_w());
  }
  for (O op : {O::MINPS, O::MAXPS, O::MINPD, O::MAXPD, O::ANDNPS,
               O::ANDNPD}) {
    b.set(op, OpClass::FpAdd, sse_packed_rw());
  }
  for (O op : {O::MOVSLDUP, O::MOVSHDUP}) {
    b.set(op, OpClass::FpMov, sse_packed_w());
  }
  for (O op : {O::RCPPS, O::RSQRTPS}) {
    b.set(op, OpClass::FpMul, sse_packed_w());
  }
  b.set(O::PSHUFD, OpClass::Shuffle,
        {sig({x(kWrite), x(kRead), im(S8)}),
         sig({x(kWrite), m(S128, kRead), im(S8)})});
  b.set(O::SHUFPS, OpClass::Shuffle,
        {sig({x(kRead | kWrite), x(kRead), im(S8)}),
         sig({x(kRead | kWrite), m(S128, kRead), im(S8)})});
  b.set(O::UNPCKLPS, OpClass::Shuffle, sse_packed_rw());

  // --- AVX ---
  b.set(O::VMOVSS, OpClass::FpMov, sse_scalar_mov(32));
  b.set(O::VMOVSD, OpClass::FpMov, sse_scalar_mov(64));
  b.set(O::VMOVAPS, OpClass::FpMov, avx_packed_mov());
  b.set(O::VMOVUPS, OpClass::FpMov, avx_packed_mov());
  for (auto [op, bits] : std::initializer_list<std::pair<O, int>>{
           {O::VADDSS, 32}, {O::VSUBSS, 32}, {O::VADDSD, 64},
           {O::VSUBSD, 64}}) {
    b.set(op, OpClass::FpAdd, avx3_scalar(static_cast<std::uint16_t>(bits)));
  }
  b.set(O::VMULSS, OpClass::FpMul, avx3_scalar(32));
  b.set(O::VMULSD, OpClass::FpMul, avx3_scalar(64));
  b.set(O::VDIVSS, OpClass::FpDiv, avx3_scalar(32));
  b.set(O::VDIVSD, OpClass::FpDiv, avx3_scalar(64));
  b.set(O::VSQRTSS, OpClass::FpDiv, avx3_scalar(32));
  b.set(O::VSQRTSD, OpClass::FpDiv, avx3_scalar(64));
  for (O op : {O::VXORPS, O::VANDPS, O::VORPS}) {
    b.set(op, OpClass::FpAdd, avx3_packed());
  }
  for (O op : {O::VADDPS, O::VADDPD, O::VSUBPS, O::VSUBPD}) {
    b.set(op, OpClass::FpAdd, avx3_packed());
  }
  for (O op : {O::VMULPS, O::VMULPD}) b.set(op, OpClass::FpMul, avx3_packed());
  for (O op : {O::VDIVPS, O::VDIVPD}) b.set(op, OpClass::FpDiv, avx3_packed());
  b.set(O::VRCPSS, OpClass::FpMul, avx3_scalar(32));
  b.set(O::VRSQRTSS, OpClass::FpMul, avx3_scalar(32));
  for (auto [op, bits] : std::initializer_list<std::pair<O, int>>{
           {O::VMINSS, 32}, {O::VMAXSS, 32}, {O::VMINSD, 64},
           {O::VMAXSD, 64}}) {
    b.set(op, OpClass::FpAdd, avx3_scalar(static_cast<std::uint16_t>(bits)));
  }
  for (O op : {O::VMINPS, O::VMAXPS, O::VANDNPS}) {
    b.set(op, OpClass::FpAdd, avx3_packed());
  }
  for (O op : {O::VPADDD, O::VPSUBD, O::VPAND, O::VPOR, O::VPXOR,
               O::VPCMPEQD, O::VPMINSD, O::VPMAXSD}) {
    b.set(op, OpClass::VecInt, avx3_packed());
  }
  b.set(O::VFMADD231SS, OpClass::FpFma, avx3_scalar(32, kRead | kWrite));
  b.set(O::VFMADD231SD, OpClass::FpFma, avx3_scalar(64, kRead | kWrite));
  b.set(O::VFMADD231PS, OpClass::FpFma, avx3_packed(kRead | kWrite));
  b.set(O::VFMADD231PD, OpClass::FpFma, avx3_packed(kRead | kWrite));

  // --- setcc: flag consumers writing a byte ---
  for (O op : {O::SETE, O::SETNE, O::SETL, O::SETLE, O::SETG, O::SETGE,
               O::SETB, O::SETA, O::SETS, O::SETNS}) {
    b.set(op, OpClass::IntAlu, {sig({rm(S8, kWrite)})});
    b.flags(op, true, false);
  }

  // --- additional cmovcc forms ---
  for (O op : {O::CMOVBE, O::CMOVAE, O::CMOVO, O::CMOVNO, O::CMOVP,
               O::CMOVNP}) {
    b.set(op, OpClass::IntAlu, cmov());
    b.flags(op, true, false);
  }

  // --- movbe: byte-swapping load/store (no reg-reg form in the ISA) ---
  b.set(O::MOVBE, OpClass::Mov,
        {
            sig({r(GW, kWrite), m(GW, kRead)}, true),
            sig({m(GW, kWrite), r(GW, kRead)}, true),
        });

  // --- xadd: exchange-and-add ---
  b.set(O::XADD, OpClass::IntAlu,
        {
            sig({r(GALL, kRead | kWrite), r(GALL, kRead | kWrite)}, true),
            sig({m(GALL, kRead | kWrite), r(GALL, kRead | kWrite)}, true),
        });
  b.flags(O::XADD, false, true);

  // --- sign extensions into rdx: cdq (32-bit), cqo (64-bit) ---
  {
    Signature cdq = sig({});
    cdq.implicit = {ImplicitReg{RegFamily::RAX, 32, true, false},
                    ImplicitReg{RegFamily::RDX, 32, false, true}};
    b.set(O::CDQ, OpClass::IntAlu, {cdq});
    Signature cqo = sig({});
    cqo.implicit = {ImplicitReg{RegFamily::RAX, 64, true, false},
                    ImplicitReg{RegFamily::RDX, 64, false, true}};
    b.set(O::CQO, OpClass::IntAlu, {cqo});
  }

  // --- BMI1/BMI2 ---
  b.set(O::ANDN, OpClass::IntAlu,
        {sig({r(S32 | S64, kWrite), r(S32 | S64, kRead),
              rm(S32 | S64, kRead)},
             /*same_width=*/true)});
  b.flags(O::ANDN, false, true);
  for (O op : {O::BLSI, O::BLSR, O::BLSMSK}) {
    b.set(op, OpClass::IntAlu,
          {sig({r(S32 | S64, kWrite), rm(S32 | S64, kRead)}, true)});
    b.flags(op, false, true);
  }
  // Flagless shifts: shift count in a third register (shlx) or an
  // immediate rotate count (rorx).
  for (O op : {O::SHLX, O::SHRX, O::SARX}) {
    b.set(op, OpClass::Shift,
          {sig({r(S32 | S64, kWrite), rm(S32 | S64, kRead),
                r(S32 | S64, kRead)},
               true)});
  }
  b.set(O::RORX, OpClass::Shift,
        {sig({r(S32 | S64, kWrite), rm(S32 | S64, kRead), im(S8)}, true)});

  // --- GPR <-> XMM moves ---
  b.set(O::MOVD, OpClass::FpMov,
        {
            sig({x(kWrite), r(S32, kRead)}),
            sig({x(kWrite), m(S32, kRead)}),
            sig({r(S32, kWrite), x(kRead)}),
            sig({m(S32, kWrite), x(kRead)}),
        });
  b.set(O::MOVQ, OpClass::FpMov,
        {
            sig({x(kWrite), r(S64, kRead)}),
            sig({x(kWrite), m(S64, kRead)}),
            sig({r(S64, kWrite), x(kRead)}),
            sig({m(S64, kWrite), x(kRead)}),
            sig({x(kWrite), x(kRead)}),
        });

  // --- packed conversions ---
  b.set(O::CVTPS2PD, OpClass::Convert,
        {sig({x(kWrite), x(kRead)}), sig({x(kWrite), m(S64, kRead)})});
  b.set(O::CVTPD2PS, OpClass::Convert, sse_packed_w());
  b.set(O::CVTDQ2PS, OpClass::Convert, sse_packed_w());
  b.set(O::CVTPS2DQ, OpClass::Convert, sse_packed_w());

  // --- vector predicates ---
  b.set(O::PMOVMSKB, OpClass::VecInt,
        {sig({r(S32 | S64, kWrite), x(kRead)})});
  b.set(O::PTEST, OpClass::VecInt,
        {sig({x(kRead), x(kRead)}), sig({x(kRead), m(S128, kRead)})});
  b.flags(O::PTEST, false, true);

  // --- packed shifts ---
  for (O op : {O::PSLLW, O::PSLLD, O::PSLLQ, O::PSRLW, O::PSRLD, O::PSRLQ}) {
    b.set(op, OpClass::VecInt,
          {
              sig({x(kRead | kWrite), im(S8)}),
              sig({x(kRead | kWrite), x(kRead)}),
              sig({x(kRead | kWrite), m(S128, kRead)}),
          });
  }

  // --- horizontal adds ---
  b.set(O::HADDPS, OpClass::FpAdd, sse_packed_rw());
  b.set(O::HADDPD, OpClass::FpAdd, sse_packed_rw());
  b.set(O::PHADDW, OpClass::VecInt, sse_packed_rw());
  b.set(O::PHADDD, OpClass::VecInt, sse_packed_rw());

  // --- AVX2 data movement and integer ALU ---
  b.set(O::VMOVDQA, OpClass::FpMov, avx_packed_mov());
  b.set(O::VMOVDQU, OpClass::FpMov, avx_packed_mov());
  for (O op : {O::VPADDB, O::VPADDW, O::VPADDQ, O::VPSUBB, O::VPSUBW,
               O::VPSUBQ, O::VPCMPGTD, O::VPMINUB, O::VPMAXUB, O::VPAVGB}) {
    b.set(op, OpClass::VecInt, avx3_packed());
  }
  for (O op : {O::VPMULLW, O::VPMULLD}) {
    b.set(op, OpClass::VecIntMul, avx3_packed());
  }
  b.set(O::VPABSD, OpClass::VecInt,
        {
            sig({x(kWrite), x(kRead)}),
            sig({x(kWrite), m(S128, kRead)}),
            sig({y(kWrite), y(kRead)}),
            sig({y(kWrite), m(S256, kRead)}),
        });

  // --- broadcasts ---
  b.set(O::VBROADCASTSS, OpClass::FpMov,
        {
            sig({x(kWrite), x(kRead)}),
            sig({x(kWrite), m(S32, kRead)}),
            sig({y(kWrite), x(kRead)}),
            sig({y(kWrite), m(S32, kRead)}),
        });
  b.set(O::VPBROADCASTD, OpClass::Shuffle,
        {
            sig({x(kWrite), x(kRead)}),
            sig({x(kWrite), m(S32, kRead)}),
            sig({y(kWrite), x(kRead)}),
            sig({y(kWrite), m(S32, kRead)}),
        });

  // --- AVX shuffles and lane operations ---
  b.set(O::VPSHUFD, OpClass::Shuffle,
        {
            sig({x(kWrite), x(kRead), im(S8)}),
            sig({x(kWrite), m(S128, kRead), im(S8)}),
            sig({y(kWrite), y(kRead), im(S8)}),
            sig({y(kWrite), m(S256, kRead), im(S8)}),
        });
  b.set(O::VSHUFPS, OpClass::Shuffle,
        {
            sig({x(kWrite), x(kRead), x(kRead), im(S8)}),
            sig({x(kWrite), x(kRead), m(S128, kRead), im(S8)}),
            sig({y(kWrite), y(kRead), y(kRead), im(S8)}),
            sig({y(kWrite), y(kRead), m(S256, kRead), im(S8)}),
        });
  b.set(O::VUNPCKLPS, OpClass::Shuffle, avx3_packed());
  b.set(O::VPERM2F128, OpClass::Shuffle,
        {
            sig({y(kWrite), y(kRead), y(kRead), im(S8)}),
            sig({y(kWrite), y(kRead), m(S256, kRead), im(S8)}),
        });
  b.set(O::VINSERTF128, OpClass::Shuffle,
        {
            sig({y(kWrite), y(kRead), x(kRead), im(S8)}),
            sig({y(kWrite), y(kRead), m(S128, kRead), im(S8)}),
        });
  b.set(O::VEXTRACTF128, OpClass::Shuffle,
        {
            sig({x(kWrite), y(kRead), im(S8)}),
            sig({m(S128, kWrite), y(kRead), im(S8)}),
        });

  // --- additional FMA forms (132/213 orderings, negated/subtracted) ---
  for (O op : {O::VFMADD132SS, O::VFMADD213SS, O::VFNMADD231SS,
               O::VFMSUB231SS}) {
    b.set(op, OpClass::FpFma, avx3_scalar(32, kRead | kWrite));
  }
  for (O op : {O::VFMADD132SD, O::VFMADD213SD}) {
    b.set(op, OpClass::FpFma, avx3_scalar(64, kRead | kWrite));
  }
  for (O op : {O::VFMADD132PS, O::VFMADD213PS}) {
    b.set(op, OpClass::FpFma, avx3_packed(kRead | kWrite));
  }

  return b.infos;
}

const std::array<OpcodeInfo, kNumOpcodes>& catalog() {
  static const auto kCatalog = build_catalog();
  return kCatalog;
}

}  // namespace

std::string_view op_class_name(OpClass cls) {
  switch (cls) {
    case OpClass::Mov: return "Mov";
    case OpClass::IntAlu: return "IntAlu";
    case OpClass::IntMul: return "IntMul";
    case OpClass::IntDiv: return "IntDiv";
    case OpClass::Lea: return "Lea";
    case OpClass::Shift: return "Shift";
    case OpClass::Stack: return "Stack";
    case OpClass::Nop: return "Nop";
    case OpClass::FpMov: return "FpMov";
    case OpClass::FpAdd: return "FpAdd";
    case OpClass::FpMul: return "FpMul";
    case OpClass::FpDiv: return "FpDiv";
    case OpClass::FpFma: return "FpFma";
    case OpClass::VecInt: return "VecInt";
    case OpClass::VecIntMul: return "VecIntMul";
    case OpClass::Shuffle: return "Shuffle";
    case OpClass::Convert: return "Convert";
  }
  return "?";
}

const OpcodeInfo& info(Opcode op) {
  return catalog()[static_cast<std::size_t>(op)];
}

std::string_view mnemonic(Opcode op) { return info(op).mnemonic; }

std::optional<Opcode> parse_opcode(std::string_view mn) {
  static const util::NameTable<Opcode> kByName = [] {
    std::vector<std::pair<std::string_view, Opcode>> names;
    for (const auto& e : catalog()) names.emplace_back(e.mnemonic, e.op);
    return util::NameTable<Opcode>(names);
  }();
  return kByName.find(mn);
}

std::span<const Opcode> all_opcodes() {
  static const std::vector<Opcode> kAll = [] {
    std::vector<Opcode> v;
    v.reserve(kNumOpcodes);
    for (std::size_t i = 0; i < kNumOpcodes; ++i) {
      v.push_back(static_cast<Opcode>(i));
    }
    return v;
  }();
  return kAll;
}

bool matches(const Signature& sig, std::span<const Operand> operands) {
  if (sig.slots.size() != operands.size()) return false;
  for (std::size_t i = 0; i < operands.size(); ++i) {
    const auto& spec = sig.slots[i];
    const auto& op = operands[i];
    std::uint8_t kind_bit = 0;
    switch (op.kind()) {
      case OperandKind::Reg: kind_bit = kKindReg; break;
      case OperandKind::Mem: kind_bit = kKindMem; break;
      case OperandKind::Imm: kind_bit = kKindImm; break;
    }
    if (!(spec.kinds & kind_bit)) return false;
    if (op.is_imm()) {
      // Immediates only need to fit one of the accepted widths; accept if
      // any width in the mask can hold the value.
      bool fits = false;
      for (std::uint16_t bits : {8, 16, 32, 64}) {
        if (!(spec.sizes & size_bit(bits))) continue;
        const auto v = op.as_imm().value;
        if (bits == 64) {
          fits = true;
        } else {
          const std::int64_t lo = -(std::int64_t{1} << (bits - 1));
          const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
          if (v >= lo && v <= hi) fits = true;
        }
        if (fits) break;
      }
      if (!fits) return false;
      continue;
    }
    if (!(spec.sizes & size_bit(op.size_bits()))) return false;
    if (op.is_reg()) {
      if (reg_class(op.as_reg()) != spec.reg_cls) return false;
      if (spec.fixed_family && op.as_reg().family != *spec.fixed_family) {
        return false;
      }
    }
  }
  if (sig.same_width) {
    std::uint16_t w = 0;
    for (const auto& op : operands) {
      if (op.is_imm()) continue;
      if (w == 0) {
        w = op.size_bits();
      } else if (op.size_bits() != w) {
        return false;
      }
    }
  }
  if (sig.src_smaller && operands.size() >= 2 && !operands[1].is_imm()) {
    if (operands[1].size_bits() >= operands[0].size_bits()) return false;
  }
  return true;
}

const Signature* find_signature(Opcode op, std::span<const Operand> operands) {
  for (const auto& s : info(op).signatures) {
    if (matches(s, operands)) return &s;
  }
  return nullptr;
}

std::vector<Opcode> replacement_opcodes(Opcode op,
                                        std::span<const Operand> operands) {
  std::vector<Opcode> out;
  const bool orig_addr_only = info(op).address_only_mem;
  bool has_mem = false;
  for (const auto& o : operands) has_mem |= o.is_mem();
  for (Opcode cand : all_opcodes()) {
    if (cand == op) continue;
    const auto& ci = info(cand);
    // An address-only memory operand (lea) is semantically incompatible with
    // a real memory access; do not cross that boundary in either direction.
    if (has_mem && (ci.address_only_mem != orig_addr_only)) continue;
    if (find_signature(cand, operands) != nullptr) out.push_back(cand);
  }
  return out;
}

}  // namespace comet::x86
