// Intel-syntax assembly parser for the supported x86-64 subset.
//
// Accepts the syntax used throughout the paper's listings, e.g.
//
//   add rcx, rax
//   mov qword ptr [rdi + 24], rdx
//   lea rax, [rcx + rax - 1]
//   vdivss xmm0, xmm0, xmm6
//
// Memory operands are `[base + index*scale + disp]` with any subset of the
// three terms. A size keyword ("qword ptr") is optional when the width can
// be inferred from a register operand; for `lea` the memory width is taken
// from the destination. Mnemonics, registers, size keywords and `ptr` are
// case-insensitive ("MOV QWORD PTR [RAX], RBX" is accepted). Immediates are
// decimal or 0x-hex with at most one sign ("--5" and "0x-5" are rejected).
//
// The remote shard server parses every block of every predict request, so
// the parser works on views of its input: it allocates only the result's
// own vectors, plus the message of a ParseError.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "x86/instruction.h"

namespace comet::x86 {

/// Error thrown on malformed assembly.
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

/// Parse a single instruction line. Throws ParseError.
Instruction parse_instruction(std::string_view line);

/// Parse a multi-line block. Empty lines and ';'/'#'-comments are skipped;
/// leading "N:"-style line numbers (as in the paper's listings) are allowed.
/// Throws ParseError. The result is validated against the catalog.
BasicBlock parse_block(std::string_view text);

}  // namespace comet::x86
