// Input-handling contract macros for library code.
//
// The byte-parsing surfaces (ISA parsers, checkpoint deserializers, dataset
// loaders) will soon consume bytes from remote clients and shared caches,
// not just our own fixtures. Their invariants therefore must fail in a way
// that is observable by tests and fuzz harnesses and recoverable by a
// server: a typed exception, never abort()/assert() (which would turn one
// malformed request into a process kill) and never a silent huge
// allocation (a forged size field must be rejected *before* any buffer is
// sized).
//
//   COMET_CHECK(cond)            always-on invariant; throws
//                                util::ContractViolation on failure
//   COMET_CHECK_MSG(cond, msg)   same, with a streamed context message:
//                                COMET_CHECK_MSG(n <= kMax, "rows=" << n)
//   COMET_DCHECK(cond)           debug-only (compiled out under NDEBUG
//                                unless COMET_DCHECK_ENABLED=1 forces it
//                                on, as the fuzz build does); also throws,
//                                so a fuzzer finding is a catchable report,
//                                not a crash triage session
//
// The comet-lint rule `raw-assert` enforces that src/ uses these instead
// of assert()/abort().
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace comet::util {

/// Thrown when a COMET_CHECK / COMET_DCHECK contract fails. Derives from
/// std::logic_error: a violation means the *input* (or a caller) broke a
/// stated precondition, and the operation was refused before side effects.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what)
      : std::logic_error(what) {}
};

[[noreturn]] inline void contract_fail(const char* cond, const char* file,
                                       int line, const std::string& msg) {
  std::ostringstream os;
  os << "contract violation at " << file << ":" << line << ": CHECK(" << cond
     << ")";
  if (!msg.empty()) os << " — " << msg;
  throw ContractViolation(os.str());
}

}  // namespace comet::util

#define COMET_CHECK(cond)                                              \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ::comet::util::contract_fail(#cond, __FILE__, __LINE__, {});     \
    }                                                                  \
  } while (false)

#define COMET_CHECK_MSG(cond, msg)                                     \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::ostringstream comet_check_os_;                              \
      comet_check_os_ << msg;                                          \
      ::comet::util::contract_fail(#cond, __FILE__, __LINE__,          \
                                   comet_check_os_.str());             \
    }                                                                  \
  } while (false)

// Debug checks default to the build's NDEBUG setting but can be forced on
// (the fuzz and coverage builds define COMET_DCHECK_ENABLED=1 so optimized
// fuzzing still exercises every contract).
#ifndef COMET_DCHECK_ENABLED
#ifdef NDEBUG
#define COMET_DCHECK_ENABLED 0
#else
#define COMET_DCHECK_ENABLED 1
#endif
#endif

#if COMET_DCHECK_ENABLED
#define COMET_DCHECK(cond) COMET_CHECK(cond)
#else
// Disabled: the condition still type-checks and counts as used (so a
// variable read only by a DCHECK draws no unused warning) but is never
// evaluated.
#define COMET_DCHECK(cond)  \
  do {                      \
    if (false) {            \
      (void)(cond);         \
    }                       \
  } while (false)
#endif
