#include "x86/operand.h"

#include <charconv>
#include <stdexcept>
#include <string_view>

#include "util/name_table.h"

namespace comet::x86 {

std::uint16_t Operand::size_bits() const {
  switch (kind()) {
    case OperandKind::Reg: return as_reg().width_bits;
    case OperandKind::Mem: return as_mem().size_bits;
    case OperandKind::Imm: return as_imm().size_bits;
  }
  return 0;
}

namespace {

/// Append the decimal digits of `v` (an integer type).
template <typename Int>
void append_decimal(std::string& out, Int v) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;  // 24 chars hold any 64-bit integer
  out.append(buf, end);
}

}  // namespace

std::string Operand::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void Operand::append_to(std::string& out) const {
  switch (kind()) {
    case OperandKind::Reg:
      append_reg_name(out, as_reg());
      return;
    case OperandKind::Imm:
      append_decimal(out, as_imm().value);
      return;
    case OperandKind::Mem: {
      const auto& m = as_mem();
      out += size_keyword(m.size_bits);
      out += " ptr [";
      bool empty = true;  // nothing inside the brackets yet
      if (m.base) {
        append_reg_name(out, *m.base);
        empty = false;
      }
      if (m.index) {
        if (!empty) out += " + ";
        append_reg_name(out, *m.index);
        if (m.scale != 1) {
          out += '*';
          append_decimal(out, int(m.scale));
        }
        empty = false;
      }
      if (empty) {
        append_decimal(out, m.disp);
      } else if (m.disp > 0) {
        out += " + ";
        append_decimal(out, m.disp);
      } else if (m.disp < 0) {
        // The magnitude as unsigned: -INT64_MIN does not fit an int64.
        out += " - ";
        append_decimal(out, 0 - static_cast<std::uint64_t>(m.disp));
      }
      out += ']';
      return;
    }
  }
}

std::string_view size_keyword(std::uint16_t size_bits) {
  switch (size_bits) {
    case 8: return "byte";
    case 16: return "word";
    case 32: return "dword";
    case 64: return "qword";
    case 128: return "xmmword";
    case 256: return "ymmword";
    case 512: return "zmmword";
    default:
      throw std::invalid_argument("size_keyword: bad size " +
                                  std::to_string(size_bits));
  }
}

std::uint16_t parse_size_keyword(std::string_view kw) {
  static const util::NameTable<std::uint16_t> kByName({
      {"byte", 8},
      {"word", 16},
      {"dword", 32},
      {"qword", 64},
      {"xmmword", 128},
      {"oword", 128},
      {"ymmword", 256},
      {"zmmword", 512},
  });
  return kByName.find(kw).value_or(0);
}

}  // namespace comet::x86
