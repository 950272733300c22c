#!/usr/bin/env python3
"""comet-lint: mechanical enforcement of this repo's hard-won invariants.

Every rule below encodes a contract that was paid for with a real bug or a
real design decision in an earlier PR, and that ordinary compilation cannot
check:

  libm-in-nn        src/nn/ hot paths must not call libm transcendentals
                    (std::tanh / std::exp / expf / powf ...). The batched and
                    scalar inference paths are bit-for-bit identical only
                    because both go through the shared rational tanh
                    (PR 3's parity contract, pinned by test_batch_parity).
  raw-sync          No std::mutex / std::condition_variable / std::*_lock
                    outside src/util/sync.h. All synchronization goes
                    through util::Mutex / util::MutexLock / util::CondVar so
                    the Clang thread-safety analysis (COMET_THREAD_SAFETY)
                    sees every lock in the program.
  unchecked-io      No fread/fwrite whose result is discarded (statement
                    position). A full disk must fail a checkpoint save
                    loudly, not truncate it silently (the Ithemal
                    save/load staging bug, PR 3).
  raw-random        No rand()/srand()/std::random_device/std::mt19937
                    outside src/util/rng.*. Every served request owns a
                    deterministically seeded util::Rng — hidden global
                    entropy would break bit-identical serving (PR 2).
  stdout-in-library No std::cout / printf in src/ library code; report
                    formatting returns strings, diagnostics go to stderr.
  include-guard     Every header under src/ opens with #pragma once before
                    any code.
  using-namespace   No `using namespace` at file scope in src/ (headers are
                    included everywhere; the library namespace discipline
                    keeps them composable).
  raw-clock         No std::chrono::system_clock / high_resolution_clock in
                    src/ library code. Timing flows through obs::Clock (or
                    steady_clock directly in the obs seam itself): wall
                    clocks jump with NTP/suspend, and a mockable monotonic
                    seam is what keeps served results bit-identical with
                    metrics on (PR 7 determinism contract).
  raw-assert        No assert()/abort() in src/ library code. Invariants go
                    through COMET_CHECK / COMET_DCHECK (util/contract.h),
                    which throw a typed util::ContractViolation: a malformed
                    request or corrupt cache file must be a catchable,
                    fuzz-observable report, never a process kill
                    (static_assert stays fine - it costs nothing at runtime).
  unbounded-wait    No deadline-free wait()/recv() in src/serve/ + src/net/.
                    Every blocking call in the serving and transport layers
                    either carries a bound on the same statement (timeout_ns,
                    a deadline expression, or a wait_for_ns variant) or is an
                    explicitly annotated drain/backpressure contract. A
                    blocking call nobody can name a wake-up for is how a
                    wedged peer becomes a wedged server (PR 10 traffic
                    controls). Zero-argument wait() calls are helper
                    invocations - their blocking loop is linted where it is
                    defined.
  upward-include    No #include of serve/ or net/ headers in src/ outside
                    src/serve/ and src/net/, and no project header in
                    src/net/ but net/, obs/ and util/ ones. Dependencies
                    point downward: the engine, the models and the
                    utilities never reach up into the serving or transport
                    layers that build on them, and the transport layer
                    never reaches into the models or the serving layer.
  isa-include       No file under src/riscv/ includes an x86/, perturb/ or
                    cost/ header (cost/query_stats.h excepted), and the
                    shared feature vocabulary src/graph/vocabulary.h
                    includes only util/ headers. RISC-V supplies only its
                    ISA; the explanation vocabulary, engine and broker are
                    shared, never borrowed from the x86 instantiation
                    (paper Section 7's portability claim).
  extern-template   A header under src/ that aliases AnchorEngine<T> or
                    ExplanationServer<T> also declares the matching
                    `extern template class`, with the one explicit
                    instantiation in the library's .cpp. Without it, every
                    file that names the alias compiles its own copy of the
                    engine or server, with its own flags.

Suppression: a finding is silenced by a comment on the same line or the
line directly above it:

    std::FILE* log = ...;
    std::fwrite(banner, 1, n, log);  // comet-lint: allow(unchecked-io)

    // comet-lint: allow(raw-sync)
    std::mutex legacy_mutex;

Multiple rules: `// comet-lint: allow(rule-a, rule-b)`. Suppressions are
deliberately loud in review diffs — that is the point.

Usage:
    scripts/comet_lint.py                  # lint src/ under the repo root
    scripts/comet_lint.py --root R p1 p2   # explicit root and paths
    scripts/comet_lint.py --list-rules

Exit status: 0 clean, 1 violations found, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

CXX_EXTENSIONS = (".h", ".hpp", ".hh", ".cpp", ".cc", ".cxx")

ALLOW_RE = re.compile(r"//\s*comet-lint:\s*allow\(([^)]*)\)")


@dataclass(frozen=True)
class Violation:
    path: str  # repo-root-relative, forward slashes
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _strip_comments_and_strings(text: str) -> list[str]:
    """Scrubbed per-line view: comments, string and char literals blanked.

    Line structure is preserved so scrubbed line numbers match the file.
    A deliberately small state machine — raw strings are treated as plain
    strings (fine for linting; the delimiter only extends the literal).
    """
    out: list[str] = []
    current: list[str] = []
    state = "code"  # code | line_comment | block_comment | string | char
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            out.append("".join(current))
            current = []
            if state == "line_comment":
                state = "code"
            # An unterminated string/char at EOL is a syntax error anyway;
            # reset so one bad line cannot blank the rest of the file.
            if state in ("string", "char"):
                state = "code"
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                state = "string"
                current.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                current.append("'")
                i += 1
                continue
            current.append(c)
            i += 1
        elif state == "line_comment":
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
            else:
                i += 1
        else:  # string or char
            if c == "\\":
                i += 2
                continue
            if (state == "string" and c == '"') or (state == "char" and c == "'"):
                current.append(c)
                state = "code"
            i += 1
    out.append("".join(current))
    return out


def _suppressed_lines(raw_lines: list[str]) -> dict[int, set[str]]:
    """Map of 0-based line index -> rule names allowed on that line."""
    allowed: dict[int, set[str]] = {}
    for idx, line in enumerate(raw_lines):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        # The comment covers its own line and the line below it (so a
        # suppression can sit above the offending statement).
        allowed.setdefault(idx, set()).update(rules)
        allowed.setdefault(idx + 1, set()).update(rules)
    return allowed


def _norm(path: str) -> str:
    return path.replace(os.sep, "/")


# --------------------------------------------------------------------------
# Rules. Each rule has: name, description, applies(relpath) -> bool, and
# check(relpath, raw_lines, scrubbed_lines) -> list[(line_idx, message)].

_LIBM_RE = re.compile(
    r"\b(?:std::)?(tanh|tanhf|exp|expf|exp2|exp2f|expm1|expm1f|pow|powf"
    r"|sinh|sinhf|cosh|coshf)\s*\("
)

_RAW_SYNC_RE = re.compile(
    r"\bstd::(mutex|recursive_mutex|timed_mutex|shared_mutex"
    r"|condition_variable|condition_variable_any|lock_guard|unique_lock"
    r"|scoped_lock|shared_lock)\b"
)

_IO_STMT_RE = re.compile(r"^\s*(?:\(void\)\s*)?(?:std::)?f(?:read|write)\s*\(")

_RAW_RANDOM_RE = re.compile(
    r"(?<![\w:])(?:std::)?(?:rand|srand)\s*\("
    r"|\bstd::(random_device|mt19937(_64)?|minstd_rand0?"
    r"|default_random_engine)\b"
)

_STDOUT_RE = re.compile(r"\bstd::cout\b|\b(?:std::)?printf\s*\(|\bstd::puts\b")

_USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\s+\w")

_RAW_CLOCK_RE = re.compile(
    r"\b(?:std::chrono::)?(?:system_clock|high_resolution_clock)\b"
)

# Call position only; the negative lookbehind keeps static_assert (and any
# *_assert identifier) out of scope.
_RAW_ASSERT_RE = re.compile(r"(?<![\w:])(?:std::)?(?:assert|abort)\s*\(")

# Scrubbed line endings that mean "the next line continues this statement",
# so a leading fread/fwrite there is not statement position.
_CONTINUATION_END_RE = re.compile(r"[(&|+\-*/=,<>?:!%]\s*$")

_UNBOUNDED_WAIT_RE = re.compile(r"\b(?:wait|recv)\s*\(")

# A bound somewhere on the statement: an explicit timeout parameter, a
# deadline expression, or one of the wait_for_* timed variants.
_UNBOUNDED_WAIT_OK_RE = re.compile(r"\btimeout_ns\b|\bdeadline\w*\b|\bwait_for\w*\b")

_STMT_END_RE = re.compile(r"[;{}]")


def _grep_rule(pattern: re.Pattern, message: str):
    def check(relpath, raw_lines, scrubbed):
        del relpath, raw_lines
        hits = []
        for idx, line in enumerate(scrubbed):
            if pattern.search(line):
                hits.append((idx, message))
        return hits

    return check


def _check_unchecked_io(relpath, raw_lines, scrubbed):
    del relpath, raw_lines
    hits = []
    prev_code = ""
    for idx, line in enumerate(scrubbed):
        if _IO_STMT_RE.search(line) and not _CONTINUATION_END_RE.search(
            prev_code
        ):
            hits.append(
                (
                    idx,
                    "fread/fwrite result discarded - check the element count "
                    "(a full disk must fail a checkpoint loudly)",
                )
            )
        if line.strip():
            prev_code = line
    return hits


def _check_unbounded_wait(relpath, raw_lines, scrubbed):
    del relpath, raw_lines
    hits = []
    reported = set()
    for idx, line in enumerate(scrubbed):
        if not _UNBOUNDED_WAIT_RE.search(line):
            continue
        # Walk back to the first line of the statement (a continuation
        # suffix on the previous non-blank line means it flows into this
        # one) so the finding - and its suppression comment - anchor where
        # the statement starts.
        start = idx
        prev = start - 1
        while prev >= 0 and not scrubbed[prev].strip():
            prev -= 1
        while prev >= 0 and _CONTINUATION_END_RE.search(scrubbed[prev]):
            start = prev
            prev -= 1
            while prev >= 0 and not scrubbed[prev].strip():
                prev -= 1
        # Walk forward to the end of the statement (bounded lookahead).
        end = idx
        limit = min(len(scrubbed) - 1, idx + 8)
        while end < limit and not _STMT_END_RE.search(scrubbed[end]):
            end += 1
        stmt = " ".join(scrubbed[i] for i in range(start, end + 1))
        if _UNBOUNDED_WAIT_OK_RE.search(stmt):
            continue
        # Zero-argument wait()/recv() is a helper call (e.g. a countdown
        # latch); the actual blocking loop is linted at its definition.
        flagged = False
        for match in _UNBOUNDED_WAIT_RE.finditer(stmt):
            if not re.match(r"\s*\)", stmt[match.end():]):
                flagged = True
                break
        if not flagged or start in reported:
            continue
        reported.add(start)
        hits.append(
            (
                start,
                "blocking wait/recv with no bound on the statement - pass a "
                "timeout/deadline (wait_for_ns, timeout_ns) or annotate the "
                "documented drain/backpressure contract",
            )
        )
    return hits


_INCLUDE_RE = re.compile(r"^\s*#\s*include\b")
_UPWARD_INCLUDE_RE = re.compile(r"^\s*#\s*include\s*[<\"](?:serve|net)/")
# In src/net/, a quoted include is a project header and must come from one
# of the layers below it; angled ones there are system headers
# (<sys/socket.h>).
_NET_PROJECT_INCLUDE_RE = re.compile(
    r"^\s*#\s*include\s*\"(?!(?:net|obs|util)/)"
)


def _check_upward_include(relpath, raw_lines, scrubbed):
    if relpath.startswith("src/net/"):
        pattern = _NET_PROJECT_INCLUDE_RE
        message = (
            "src/net/ may include only net/, obs/ and util/ headers - "
            "dependencies point downward; move the shared piece below"
        )
    else:
        pattern = _UPWARD_INCLUDE_RE
        message = (
            "upward include of a serve/ or net/ header - dependencies "
            "point downward; move the shared piece below (e.g. util/)"
        )
    # The scrubber blanks the include path (a string literal), so the
    # directive is found on the scrubbed line and the path read raw.
    return [
        (idx, message)
        for idx, line in enumerate(scrubbed)
        if _INCLUDE_RE.search(line) and pattern.search(raw_lines[idx])
    ]


VOCABULARY_HEADER = "src/graph/vocabulary.h"
_RISCV_FOREIGN_INCLUDE_RE = re.compile(
    r"^\s*#\s*include\s*[<\"](?:x86|perturb|cost)/(?!query_stats\.h[>\"])"
)
# The vocabulary header's project includes (quoted) must come from util/.
_VOCABULARY_INCLUDE_RE = re.compile(r"^\s*#\s*include\s*\"(?!util/)")


def _check_isa_include(relpath, raw_lines, scrubbed):
    if relpath == VOCABULARY_HEADER:
        pattern = _VOCABULARY_INCLUDE_RE
        message = (
            "the shared feature vocabulary may include only util/ headers - "
            "it is instantiated by every ISA"
        )
    else:
        pattern = _RISCV_FOREIGN_INCLUDE_RE
        message = (
            "src/riscv/ may not include x86/, perturb/ or cost/ headers "
            "(cost/query_stats.h excepted) - RISC-V supplies only its ISA"
        )
    return [
        (idx, message)
        for idx, line in enumerate(scrubbed)
        if _INCLUDE_RE.search(line) and pattern.search(raw_lines[idx])
    ]


def _check_include_guard(relpath, raw_lines, scrubbed):
    del relpath
    for idx, line in enumerate(scrubbed):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#pragma") and "once" in stripped:
            return []
        # First real code/preprocessor line reached without #pragma once.
        return [
            (
                idx,
                "header must open with '#pragma once' before any code",
            )
        ]
    # Header with no code at all: fine.
    del raw_lines
    return []


# An alias of an engine or server instantiation; group(1) is the template,
# group(2) its argument. Matched over the whole scrubbed header, so an alias
# may span lines.
_INSTANTIATION_ALIAS_RE = re.compile(
    r"\busing\s+\w+\s*=\s*(?:\w+::)*(AnchorEngine|ExplanationServer)\s*<"
    r"\s*([\w:]+)\s*>\s*;"
)
_EXTERN_TEMPLATE_RE = re.compile(
    r"\bextern\s+template\s+class\s+(?:\w+::)*"
    r"(AnchorEngine|ExplanationServer)\s*<\s*([\w:]+)\s*>\s*;"
)
# A template head's type parameters: an alias over one of them (the
# server's `using Engine = core::AnchorEngine<Traits>`) names no
# instantiation.
_TEMPLATE_PARAM_RE = re.compile(r"\btemplate\s*<[^>]*>")
_TYPE_PARAM_RE = re.compile(r"\b(?:typename|class)\s+(\w+)")


def _unqualified(name: str) -> str:
    return name.rsplit("::", 1)[-1]


def _check_extern_template(relpath, raw_lines, scrubbed):
    del relpath, raw_lines
    text = "\n".join(scrubbed)
    params = {
        p
        for head in _TEMPLATE_PARAM_RE.findall(text)
        for p in _TYPE_PARAM_RE.findall(head)
    }
    declared = {
        (m.group(1), _unqualified(m.group(2)))
        for m in _EXTERN_TEMPLATE_RE.finditer(text)
    }
    hits = []
    for m in _INSTANTIATION_ALIAS_RE.finditer(text):
        template, arg = m.group(1), _unqualified(m.group(2))
        if arg in params or (template, arg) in declared:
            continue
        hits.append(
            (
                text.count("\n", 0, m.start()),
                f"alias of {template}<{arg}> without `extern template class "
                f"{template}<{arg}>;` - declare it here and instantiate it "
                "once in the library's .cpp, or every user compiles a copy",
            )
        )
    return hits


@dataclass(frozen=True)
class Rule:
    name: str
    description: str
    applies: object  # Callable[[str], bool]
    check: object  # Callable[[str, list[str], list[str]], list]


def _in_dir(prefix: str):
    return lambda p: p.startswith(prefix)


RULES = [
    Rule(
        "libm-in-nn",
        "no libm transcendentals (tanh/exp/pow...) in src/nn/ - the "
        "batched==scalar bit-parity contract requires the shared rational "
        "tanh",
        _in_dir("src/nn/"),
        _grep_rule(
            _LIBM_RE,
            "libm transcendental in src/nn/ - use the shared rational "
            "tanh/sigmoid helpers (bit-parity rule, see test_batch_parity)",
        ),
    ),
    Rule(
        "raw-sync",
        "no std::mutex/std::condition_variable/std::*_lock outside "
        "src/util/sync.h - use util::Mutex/MutexLock/CondVar so the "
        "thread-safety analysis sees every lock",
        lambda p: p.startswith("src/") and p != "src/util/sync.h",
        _grep_rule(
            _RAW_SYNC_RE,
            "raw std synchronization primitive - use the annotated wrappers "
            "in util/sync.h (COMET_THREAD_SAFETY contract)",
        ),
    ),
    Rule(
        "unchecked-io",
        "no fread/fwrite in statement position (result discarded) in src/",
        _in_dir("src/"),
        _check_unchecked_io,
    ),
    Rule(
        "raw-random",
        "no rand()/srand()/std::random_device/std::mt19937 outside "
        "src/util/rng.* - served determinism requires owned, seeded "
        "util::Rng instances",
        lambda p: p.startswith("src/") and not p.startswith("src/util/rng."),
        _grep_rule(
            _RAW_RANDOM_RE,
            "unowned entropy source - use util::Rng (served results must be "
            "bit-identical and deterministically seeded)",
        ),
    ),
    Rule(
        "stdout-in-library",
        "no std::cout/printf in src/ library code",
        _in_dir("src/"),
        _grep_rule(
            _STDOUT_RE,
            "stdout output from library code - return strings (util/table, "
            "to_string) or write diagnostics to stderr",
        ),
    ),
    Rule(
        "include-guard",
        "every header under src/ opens with #pragma once",
        lambda p: p.startswith("src/") and p.endswith((".h", ".hpp", ".hh")),
        _check_include_guard,
    ),
    Rule(
        "using-namespace",
        "no file-scope `using namespace` in src/",
        _in_dir("src/"),
        _grep_rule(
            _USING_NAMESPACE_RE,
            "`using namespace` at file scope - qualify names instead "
            "(headers are included everywhere)",
        ),
    ),
    Rule(
        "raw-clock",
        "no system_clock/high_resolution_clock in src/ library code - time "
        "flows through the obs::Clock seam (monotonic, mockable; metrics "
        "must not perturb served results)",
        lambda p: p.startswith("src/") and p != "src/obs/clock.h",
        _grep_rule(
            _RAW_CLOCK_RE,
            "non-monotonic/unmockable clock - use obs::Clock (steady, "
            "injectable; see src/obs/clock.h)",
        ),
    ),
    Rule(
        "unbounded-wait",
        "no deadline-free wait()/recv() in src/serve/ + src/net/ - every "
        "blocking call carries a timeout/deadline on its statement or an "
        "annotated drain/backpressure contract",
        lambda p: p.startswith(("src/serve/", "src/net/")),
        _check_unbounded_wait,
    ),
    Rule(
        "raw-assert",
        "no assert()/abort() in src/ library code - invariants throw typed "
        "util::ContractViolation via COMET_CHECK/COMET_DCHECK "
        "(util/contract.h) so bad input is recoverable and fuzz-observable",
        _in_dir("src/"),
        _grep_rule(
            _RAW_ASSERT_RE,
            "raw assert()/abort() - use COMET_CHECK/COMET_DCHECK "
            "(util/contract.h): a broken invariant must throw "
            "ContractViolation, not kill the process",
        ),
    ),
    Rule(
        "upward-include",
        "no #include of serve/ or net/ headers in src/ outside src/serve/ "
        "and src/net/, and only net/, obs/ and util/ headers in src/net/ - "
        "dependencies point downward",
        lambda p: p.startswith("src/") and not p.startswith("src/serve/"),
        _check_upward_include,
    ),
    Rule(
        "isa-include",
        "no x86/, perturb/ or cost/ header (but cost/query_stats.h) in "
        "src/riscv/, and only util/ headers in src/graph/vocabulary.h - "
        "RISC-V supplies only its ISA",
        lambda p: p.startswith("src/riscv/") or p == VOCABULARY_HEADER,
        _check_isa_include,
    ),
    Rule(
        "extern-template",
        "a header in src/ that aliases AnchorEngine<T> or "
        "ExplanationServer<T> declares the matching `extern template "
        "class` - the engine and servers are compiled once, in the library",
        lambda p: p.startswith("src/") and p.endswith((".h", ".hpp", ".hh")),
        _check_extern_template,
    ),
]


def lint_text(relpath: str, text: str) -> list[Violation]:
    """Lint one file's contents; `relpath` is repo-root-relative."""
    relpath = _norm(relpath)
    raw_lines = text.split("\n")
    scrubbed = _strip_comments_and_strings(text)
    allowed = _suppressed_lines(raw_lines)
    out: list[Violation] = []
    for rule in RULES:
        if not rule.applies(relpath):
            continue
        for idx, message in rule.check(relpath, raw_lines, scrubbed):
            if rule.name in allowed.get(idx, ()):
                continue
            out.append(Violation(relpath, idx + 1, rule.name, message))
    out.sort(key=lambda v: (v.path, v.line, v.rule))
    return out


def lint_paths(root: str, paths: list[str]) -> list[Violation]:
    violations: list[Violation] = []
    for path in paths:
        absolute = path if os.path.isabs(path) else os.path.join(root, path)
        if os.path.isfile(absolute):
            files = [absolute]
        else:
            files = []
            for dirpath, _dirnames, filenames in os.walk(absolute):
                for name in sorted(filenames):
                    if name.endswith(CXX_EXTENSIONS):
                        files.append(os.path.join(dirpath, name))
        for file_path in sorted(files):
            relpath = _norm(os.path.relpath(file_path, root))
            with open(file_path, "r", encoding="utf-8", errors="replace") as f:
                violations.extend(lint_text(relpath, f.read()))
    return violations


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="comet-lint", description="COMET repo invariant linter"
    )
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repo root (rule scopes are evaluated relative to this)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule set and exit"
    )
    parser.add_argument(
        "paths", nargs="*", default=None, help="files/dirs to lint (default: src/)"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.name}: {rule.description}")
        return 0

    paths = args.paths or ["src"]
    violations = lint_paths(args.root, paths)
    for violation in violations:
        print(violation)
    if violations:
        print(
            f"comet-lint: {len(violations)} violation(s). Suppress a "
            "deliberate one with '// comet-lint: allow(<rule>)' on or above "
            "the line.",
            file=sys.stderr,
        )
        return 1
    print(f"comet-lint: clean ({len(RULES)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
