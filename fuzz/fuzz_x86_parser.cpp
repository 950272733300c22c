// Fuzz harness: x86::parse_block over arbitrary bytes.
//
// Contract under test: any byte string either parses into a catalog-valid
// block or throws x86::ParseError / util::ContractViolation. Anything else
// — a crash, a sanitizer finding, an unexpected exception type — is a bug.
// Oracle (parser/printer round trip): a successfully parsed block's
// printed text must parse again and print to the identical text. The
// re-parse runs outside the rejection handlers, so a ParseError from the
// printer's own output escapes and fails the run. Text is compared, not
// structure: "[rcx*1]" legitimately re-parses with rcx as the base.
#include <cstdint>
#include <string>
#include <string_view>

#include "util/contract.h"
#include "x86/parser.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  comet::x86::BasicBlock block;
  try {
    block = comet::x86::parse_block(text);
  } catch (const comet::x86::ParseError&) {
    return 0;  // expected rejection of malformed input
  } catch (const comet::util::ContractViolation&) {
    return 0;  // expected rejection at a contract boundary
  }
  const std::string printed = block.to_string();
  const comet::x86::BasicBlock again = comet::x86::parse_block(printed);
  if (again.to_string() != printed) {
    __builtin_trap();  // the printed text does not print back to itself
  }
  return 0;
}
