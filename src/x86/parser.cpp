#include "x86/parser.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>

#include "util/str.h"

namespace comet::x86 {

namespace {

std::optional<std::int64_t> parse_int(std::string_view s) {
  s = util::trim(s);
  if (s.empty()) return std::nullopt;
  bool neg = false;
  if (s.front() == '-' || s.front() == '+') {
    neg = s.front() == '-';
    s.remove_prefix(1);
  }
  if (s.empty()) return std::nullopt;
  int base = 10;
  if (util::starts_with(s, "0x") || util::starts_with(s, "0X")) {
    base = 16;
    s.remove_prefix(2);
  }
  // One sign only: from_chars would take a second '-' ("--5", "0x-5").
  if (s.empty() || s.front() == '-') return std::nullopt;
  std::int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), value, base);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return neg ? -value : value;
}

// Whether `s` spells 2^63, the magnitude of INT64_MIN (decimal or 0x hex):
// the one negated displacement term parse_int cannot hold.
bool is_int64_min_magnitude(std::string_view s) {
  s = util::trim(s);
  int base = 10;
  if (util::starts_with(s, "0x") || util::starts_with(s, "0X")) {
    base = 16;
    s.remove_prefix(2);
  }
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), value, base);
  return ec == std::errc{} && ptr == s.data() + s.size() &&
         value == std::uint64_t{1} << 63;
}

ParseError term_error(const char* what, std::string_view term) {
  return ParseError(what + std::string(term));
}

// Apply one trimmed, non-empty term of a memory expression, with the sign
// that preceded it (-1 or +1).
void apply_mem_term(MemOperand& mem, int sign, std::string_view term) {
  // index*scale or scale*index
  const auto star = term.find('*');
  if (star != std::string_view::npos) {
    if (sign < 0) throw term_error("negative scaled index: ", term);
    const auto lhs = util::trim(term.substr(0, star));
    const auto rhs = util::trim(term.substr(star + 1));
    auto reg = parse_reg(lhs);
    auto scale = parse_int(rhs);
    if (!reg) {
      reg = parse_reg(rhs);
      scale = parse_int(lhs);
    }
    if (!reg || !scale) throw term_error("bad scaled index: ", term);
    if (*scale != 1 && *scale != 2 && *scale != 4 && *scale != 8) {
      throw term_error("bad scale: ", term);
    }
    if (mem.index) throw term_error("duplicate index: ", term);
    mem.index = *reg;
    mem.scale = static_cast<std::uint8_t>(*scale);
    return;
  }
  if (const auto reg = parse_reg(term)) {
    if (sign < 0) throw term_error("negative register term: ", term);
    if (!mem.base) {
      mem.base = *reg;
    } else if (!mem.index) {
      mem.index = *reg;
      mem.scale = 1;
    } else {
      throw term_error("too many registers in memory operand: ", term);
    }
    return;
  }
  const auto value = parse_int(term);
  if (value || (sign < 0 && is_int64_min_magnitude(term))) {
    // "- 9223372036854775808" is INT64_MIN, which the printer emits.
    // Checked accumulation: "[rax + 9e18 + 9e18]" must be a ParseError,
    // not signed-overflow UB (found by fuzz_x86_parser under UBSan).
    const std::int64_t signed_term =
        !value     ? std::numeric_limits<std::int64_t>::min()
        : sign < 0 ? -*value
                   : *value;
    std::int64_t next_disp = 0;
    if (__builtin_add_overflow(mem.disp, signed_term, &next_disp)) {
      throw term_error("displacement overflow: ", term);
    }
    mem.disp = next_disp;
    return;
  }
  throw term_error("bad memory term: ", term);
}

// Parse "[base + index*scale + disp]" contents (without the brackets). Each
// +/- separated term is applied with its sign as it is found; finding terms
// cannot fail, so the first bad term is the one reported.
MemOperand parse_mem_expr(std::string_view expr) {
  MemOperand mem;
  bool any_term = false;
  int sign = 1;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= expr.size(); ++i) {
    if (i < expr.size() && expr[i] != '+' && expr[i] != '-') continue;
    const auto term = util::trim(expr.substr(start, i - start));
    if (!term.empty()) {
      apply_mem_term(mem, sign, term);
      any_term = true;
    }
    if (i < expr.size()) sign = expr[i] == '-' ? -1 : 1;
    start = i + 1;
  }
  if (!any_term) throw ParseError("empty memory expression");
  if (mem.base && mem.base->width_bits != 64) {
    throw ParseError("memory base must be a 64-bit register");
  }
  if (mem.index && mem.index->width_bits != 64) {
    throw ParseError("memory index must be a 64-bit register");
  }
  return mem;
}

// The first whitespace-delimited word of `s` at or after `from`, as a view
// into `s` (empty when there is none).
std::string_view word_at(std::string_view s, std::size_t from) {
  while (from < s.size() && util::is_space(s[from])) ++from;
  std::size_t end = from;
  while (end < s.size() && !util::is_space(s[end])) ++end;
  return s.substr(from, end - from);
}

bool is_ptr_keyword(std::string_view word) {
  return word.size() == 3 && util::ascii_lower(word[0]) == 'p' &&
         util::ascii_lower(word[1]) == 't' &&
         util::ascii_lower(word[2]) == 'r';
}

// Parse one operand; memory size 0 means "infer later".
Operand parse_operand(std::string_view text) {
  text = util::trim(text);
  if (text.empty()) throw ParseError("empty operand");

  // Optional "<size> ptr [ ... ]", any case.
  std::uint16_t mem_size = 0;
  const auto size_word = word_at(text, 0);
  const auto ptr_word = word_at(text, size_word.size());
  if (is_ptr_keyword(ptr_word)) {
    mem_size = parse_size_keyword(size_word);
    if (mem_size == 0) {
      throw ParseError("bad size keyword: " + std::string(size_word));
    }
    const auto ptr_end = static_cast<std::size_t>(ptr_word.data() -
                                                  text.data()) + 3;
    text = util::trim(text.substr(ptr_end));
  }
  if (!text.empty() && text.front() == '[') {
    if (text.back() != ']') throw ParseError("unterminated memory operand");
    auto mem = parse_mem_expr(text.substr(1, text.size() - 2));
    mem.size_bits = mem_size;  // possibly 0; fixed up by caller
    return Operand::mem(mem);
  }
  if (mem_size != 0) throw ParseError("size keyword without memory operand");
  if (const auto reg = parse_reg(text)) return Operand::reg(*reg);
  if (const auto value = parse_int(text)) return Operand::imm(*value);
  throw ParseError("unrecognized operand: " + std::string(text));
}

// Infer a missing memory-operand size from sibling register operands or,
// for lea, from the destination register.
void fixup_mem_size(Instruction& inst) {
  for (auto& op : inst.operands) {
    if (!op.is_mem() || op.as_mem().size_bits != 0) continue;
    std::uint16_t inferred = 0;
    if (inst.opcode == Opcode::LEA && !inst.operands.empty() &&
        inst.operands[0].is_reg()) {
      inferred = inst.operands[0].as_reg().width_bits;
    } else {
      for (const auto& other : inst.operands) {
        if (other.is_reg()) {
          inferred = other.as_reg().width_bits;
          break;
        }
      }
      // Scalar FP memory operands take the element width, not 128.
      if (inferred == 128 || inferred == 256) {
        switch (inst.opcode) {
          case Opcode::MOVSS: case Opcode::ADDSS: case Opcode::SUBSS:
          case Opcode::MULSS: case Opcode::DIVSS: case Opcode::SQRTSS:
          case Opcode::MINSS: case Opcode::MAXSS: case Opcode::UCOMISS:
          case Opcode::VMOVSS: case Opcode::VADDSS: case Opcode::VSUBSS:
          case Opcode::VMULSS: case Opcode::VDIVSS: case Opcode::VSQRTSS:
          case Opcode::VFMADD231SS: case Opcode::CVTTSS2SI:
            inferred = 32;
            break;
          case Opcode::MOVSD: case Opcode::ADDSD: case Opcode::SUBSD:
          case Opcode::MULSD: case Opcode::DIVSD: case Opcode::SQRTSD:
          case Opcode::MINSD: case Opcode::MAXSD: case Opcode::UCOMISD:
          case Opcode::VMOVSD: case Opcode::VADDSD: case Opcode::VSUBSD:
          case Opcode::VMULSD: case Opcode::VDIVSD: case Opcode::VSQRTSD:
          case Opcode::VFMADD231SD: case Opcode::CVTTSD2SI:
            inferred = 64;
            break;
          default:
            break;  // packed op: keep the register width
        }
      }
    }
    if (inferred == 0) inferred = 64;
    op.as_mem().size_bits = inferred;
  }
}

}  // namespace

Instruction parse_instruction(std::string_view line) {
  line = util::trim(line);
  if (line.empty()) throw ParseError("empty instruction");

  // Split mnemonic from operand list at the first whitespace.
  std::size_t sp = 0;
  while (sp < line.size() && !util::is_space(line[sp])) ++sp;
  const auto mn = line.substr(0, sp);
  const auto rest = util::trim(line.substr(sp));

  const auto opcode = parse_opcode(mn);
  if (!opcode) throw ParseError("unknown mnemonic: " + std::string(mn));

  Instruction inst;
  inst.opcode = *opcode;
  if (!rest.empty()) {
    // Operands are separated by commas outside brackets.
    const auto next_comma = [&rest](std::size_t from) {
      int depth = 0;
      for (std::size_t i = from; i < rest.size(); ++i) {
        if (rest[i] == '[') ++depth;
        if (rest[i] == ']') --depth;
        if (rest[i] == ',' && depth == 0) return i;
      }
      return rest.size();
    };
    inst.operands.reserve(
        static_cast<std::size_t>(std::count(rest.begin(), rest.end(), ',')) +
        1);
    for (std::size_t start = 0;;) {
      const std::size_t end = next_comma(start);
      inst.operands.push_back(parse_operand(rest.substr(start, end - start)));
      if (end == rest.size()) break;
      start = end + 1;
    }
  }
  fixup_mem_size(inst);
  if (!is_valid(inst)) {
    throw ParseError("instruction does not match any signature: " +
                     inst.to_string());
  }
  return inst;
}

BasicBlock parse_block(std::string_view text) {
  BasicBlock block;
  // One instruction per line at most; a final '\n' ends a line.
  block.instructions.reserve(
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) +
      (text.ends_with('\n') ? 0 : 1));
  for (std::size_t start = 0; start <= text.size();) {
    const std::size_t nl = std::min(text.find('\n', start), text.size());
    std::string_view line = text.substr(start, nl - start);
    start = nl + 1;
    // Strip comments.
    for (char marker : {';', '#'}) {
      const auto pos = line.find(marker);
      if (pos != std::string_view::npos) line = line.substr(0, pos);
    }
    line = util::trim(line);
    if (line.empty()) continue;
    // Strip a leading "N:"-style listing number.
    {
      std::size_t i = 0;
      while (i < line.size() && line[i] >= '0' && line[i] <= '9') ++i;
      if (i > 0 && i < line.size() && line[i] == ':') {
        line = util::trim(line.substr(i + 1));
      }
    }
    if (line.empty()) continue;
    block.instructions.push_back(parse_instruction(line));
  }
  return block;
}

}  // namespace comet::x86
