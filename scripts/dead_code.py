#!/usr/bin/env python3
"""Linker-view dead-code gate over the comet library (scripts/check.sh --dead).

Builds every binary of the repository at -O0 with one section per function
and links it with --gc-sections, so a binary's symbol table holds exactly
the functions the linker kept for it. Then every `comet::` function that
libcomet.a defines is classified by the binaries that keep it:

  program    kept by an example, a bench/ binary or comet_perfbench
  test-only  kept only by test_* or fuzz_* binaries
  dead       kept by no binary at all

The gate fails when a function is dead, when a test-only function is not
named in the allow-list (scripts/dead_allow.txt), when an allow-list line
has no reason, and when an allow-list line is stale (it matches no
test-only function: a program keeps it now, or it no longer exists), so the
list can only shrink.

Only mangled `_ZN5comet` / `_ZNK5comet` text symbols are counted, which
keeps `std::` instantiations over comet types out. Names are compared after
demangling with every template argument list collapsed to `<>`, so a
template member counts as kept when any one of its instantiations is kept.
A member of a class template (a name with `<>::`) is compared by its name
part alone, since its parameters may spell out the template argument's
types (`AnchorEngine<>::estimate_coverage(x86::BasicBlock const&, ...)`
and its `riscv::` twin are one member).

  scripts/dead_code.py [--build-dir DIR] [--jobs N]   # default ./build-dead

Allow-list lines read `pattern  # reason`. A pattern is a display name as
this script prints it (`comet::` and ABI tags stripped, template arguments
collapsed);
`*` matches any run of characters. A pattern without `(` is matched against
the name only, so it covers every overload; one with `(` is matched against
the whole signature.
"""

import argparse
import concurrent.futures
import glob
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
ALLOW_LIST = os.path.join(ROOT, "scripts", "dead_allow.txt")

SCAN_CXX_FLAGS = "-O0 -ffunction-sections -fdata-sections"
SCAN_LINK_FLAGS = "-Wl,--gc-sections"
TEXT_TYPES = frozenset("TtWw")
COMET_PREFIXES = ("_ZN5comet", "_ZNK5comet")


# ------------------------------------------------------------- classifier --

def text_symbols(nm_lines):
    """Mangled comet:: text symbols from `nm --defined-only` output lines."""
    syms = set()
    for line in nm_lines:
        parts = line.split()
        if len(parts) < 3 or parts[-2] not in TEXT_TYPES:
            continue
        name = parts[-1]
        if name.startswith(COMET_PREFIXES):
            syms.add(name)
    return syms


def demangle_all(mangled):
    """Map each mangled name to its c++filt demangling (one process)."""
    names = sorted(mangled)
    if not names:
        return {}
    out = subprocess.run(["c++filt"], input="\n".join(names) + "\n",
                         capture_output=True, text=True, check=True).stdout
    demangled = out.split("\n")[:len(names)]
    return dict(zip(names, demangled))


def collapse_templates(name):
    """Replace every template argument list with `<>`.

    `operator<`, `operator<<`, `operator->` and friends keep their angle
    brackets: they are part of the function's name, not an argument list.
    """
    out = []
    depth = 0
    i = 0
    while i < len(name):
        if name.startswith("operator", i):
            j = i + len("operator")
            while j < len(name) and name[j] in "<>=-":
                j += 1
            if depth == 0:
                out.append(name[i:j])
            i = j
            continue
        c = name[i]
        if c == "<":
            if depth == 0:
                out.append("<>")
            depth += 1
        elif c == ">":
            depth -= 1
        elif depth == 0:
            out.append(c)
        i += 1
    return "".join(out)


def display_name(demangled):
    """The name a symbol is grouped, reported and allow-listed under."""
    name = demangled.replace("(anonymous namespace)", "{anon}")
    name = re.sub(r"\[abi:\w+\]", "", name)
    name = collapse_templates(name).replace("comet::", "")
    head = name.split("(", 1)[0]
    # A function template's demangling starts with its return type.
    if " " in head and "operator" not in head:
        name = name[head.rindex(" ") + 1:]
    return name


def name_part(display):
    """A display name without its parameter list and qualifiers."""
    return display.split("(", 1)[0]


def group_key(display):
    """What a function's instantiations are grouped under: the name part
    for a member of a class template, the whole display name otherwise."""
    name = name_part(display)
    return name if "<>::" in name else display


def is_test_binary(binary):
    base = os.path.basename(binary)
    return base.startswith("test_") or base.startswith("fuzz_")


def classify(library_syms, binary_syms, demangle=demangle_all):
    """Sort the library's functions into program / test-only / dead.

    library_syms: mangled comet:: text symbols libcomet.a defines.
    binary_syms: {binary name: mangled comet:: text symbols it keeps}.
    Returns {display name: "program" | "test-only" | "dead"}.
    """
    every = set(library_syms)
    for syms in binary_syms.values():
        every |= syms
    names = {m: display_name(d) for m, d in demangle(every).items()}
    kept_by_program = set()
    kept_by_test = set()
    for binary, syms in binary_syms.items():
        target = kept_by_test if is_test_binary(binary) else kept_by_program
        target.update(group_key(names[m]) for m in syms)
    result = {}
    for m in library_syms:
        name = names[m]
        key = group_key(name)
        if key in kept_by_program:
            result[name] = "program"
        elif key in kept_by_test:
            result[name] = "test-only"
        else:
            result[name] = "dead"
    return result


class AllowEntry:
    def __init__(self, lineno, pattern, reason):
        self.lineno = lineno
        self.pattern = pattern
        self.reason = reason
        regex = ".*".join(re.escape(p) for p in pattern.split("*"))
        self._regex = re.compile(regex + r"\Z")

    def matches(self, display):
        subject = display if "(" in self.pattern else name_part(display)
        return self._regex.match(subject) is not None


def parse_allow(text):
    """Parse allow-list text; returns (entries, errors)."""
    entries, errors = [], []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        pattern, sep, reason = line.partition("#")
        pattern, reason = pattern.strip(), reason.strip()
        if not sep or not reason:
            errors.append(f"line {lineno}: '{pattern}' has no '# reason'")
            continue
        entries.append(AllowEntry(lineno, pattern, reason))
    return entries, errors


def check(classes, entries):
    """Gate findings as (dead, unlisted test-only, stale allow lines)."""
    dead = sorted(n for n, c in classes.items() if c == "dead")
    test_only = sorted(n for n, c in classes.items() if c == "test-only")
    unlisted = [n for n in test_only
                if not any(e.matches(n) for e in entries)]
    stale = []
    for e in entries:
        hits = [n for n in classes if e.matches(n)]
        if not hits:
            stale.append((e, "matches no library function"))
        elif not any(classes[n] == "test-only" for n in hits):
            stale.append((e, "a program keeps it now"))
    return dead, unlisted, stale


# ------------------------------------------------------------------ build --

def run(cmd, **kw):
    print("+ " + " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True, **kw)


def cmake_flags():
    # Build type None: no -O or -DNDEBUG of its own, so SCAN_CXX_FLAGS rule.
    return ["-DCMAKE_BUILD_TYPE=None",
            f"-DCMAKE_CXX_FLAGS={SCAN_CXX_FLAGS}",
            f"-DCMAKE_EXE_LINKER_FLAGS={SCAN_LINK_FLAGS}"]


def cache_value(build_dir, key):
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    raise SystemExit(f"dead_code: {key} not in {build_dir}/CMakeCache.txt")


def build(build_dir, jobs):
    run(["cmake", "-B", build_dir, "-S", ROOT] + cmake_flags(),
        stdout=subprocess.DEVNULL)
    run(["cmake", "--build", build_dir, "-j", str(jobs)])
    bench_dir = os.path.join(build_dir, "perfbench")
    run(["cmake", "-B", bench_dir, "-S", os.path.join(ROOT, "perfbench")]
        + cmake_flags(), stdout=subprocess.DEVNULL)
    run(["cmake", "--build", bench_dir, "-j", str(jobs),
         "--target", "comet_perfbench"])
    build_fuzz(build_dir, jobs)


def build_fuzz(build_dir, jobs):
    """Each fuzz/fuzz_*.cpp with the replay driver, without sanitizers."""
    cxx = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    fuzz_dir = os.path.join(build_dir, "fuzz")
    os.makedirs(fuzz_dir, exist_ok=True)
    flags = (SCAN_CXX_FLAGS.split() +
             ["-std=c++20", "-I", os.path.join(ROOT, "src"), "-I", ROOT])

    def compile_one(src):
        obj = os.path.join(fuzz_dir,
                           os.path.splitext(os.path.basename(src))[0] + ".o")
        subprocess.run([cxx] + flags + ["-c", src, "-o", obj], check=True)
        return obj

    harnesses = fuzz_sources()
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        objs = list(pool.map(compile_one, harnesses +
                             [os.path.join(ROOT, "fuzz", "driver_main.cpp")]))
    driver = objs.pop()
    lib = os.path.join(build_dir, "libcomet.a")
    for obj in objs:
        out = os.path.splitext(obj)[0]
        subprocess.run([cxx, obj, driver, lib, SCAN_LINK_FLAGS, "-pthread",
                        "-o", out], check=True)
    print(f"dead_code: linked {len(objs)} fuzz harnesses", flush=True)


# ------------------------------------------------------------------- scan --

def fuzz_sources():
    return sorted(glob.glob(os.path.join(ROOT, "fuzz", "fuzz_*.cpp")))


def expected_binaries(build_dir):
    """Every binary the scan needs, from the same globs CMake uses."""
    paths = []
    for pattern, exclude in (("tests/test_*.cpp", None),
                             ("bench/bench_*.cpp", "bench_common"),
                             ("examples/*.cpp", None)):
        for src in sorted(glob.glob(os.path.join(ROOT, pattern))):
            name = os.path.splitext(os.path.basename(src))[0]
            if name != exclude:
                paths.append(os.path.join(build_dir, name))
    paths.append(os.path.join(build_dir, "perfbench", "comet_perfbench"))
    for src in fuzz_sources():
        name = os.path.splitext(os.path.basename(src))[0]
        paths.append(os.path.join(build_dir, "fuzz", name))
    return paths


def nm_symbols(path):
    out = subprocess.run(["nm", "--defined-only", path], capture_output=True,
                         text=True, check=True).stdout
    return text_symbols(out.splitlines())


def scan(build_dir):
    missing = [p for p in expected_binaries(build_dir)
               if not os.path.isfile(p)]
    if missing:
        raise SystemExit("dead_code: binaries missing (is GTest or "
                         "google-benchmark absent?):\n  " +
                         "\n  ".join(missing))
    library = nm_symbols(os.path.join(build_dir, "libcomet.a"))
    binaries = {os.path.basename(p): nm_symbols(p)
                for p in expected_binaries(build_dir)}
    return library, binaries


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--build-dir", default=os.path.join(ROOT, "build-dead"))
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 4)
    args = ap.parse_args(argv)
    build_dir = os.path.abspath(args.build_dir)
    for tool in ("nm", "c++filt"):
        if shutil.which(tool) is None:
            raise SystemExit(f"dead_code: '{tool}' not found (binutils)")
    build(build_dir, args.jobs)

    library, binaries = scan(build_dir)
    classes = classify(library, binaries)
    with open(ALLOW_LIST) as f:
        entries, errors = parse_allow(f.read())
    dead, unlisted, stale = check(classes, entries)

    tests = sum(1 for b in binaries if is_test_binary(b))
    counts = {c: sum(1 for v in classes.values() if v == c)
              for c in ("program", "test-only", "dead")}
    print(f"dead_code: {len(classes)} library functions over "
          f"{len(binaries)} binaries ({len(binaries) - tests} programs, "
          f"{tests} test/fuzz): {counts['program']} kept by a program, "
          f"{counts['test-only']} test-only, {counts['dead']} dead")
    rel = os.path.relpath(ALLOW_LIST, ROOT)
    failed = False
    if dead:
        failed = True
        print(f"\nkept by no binary ({len(dead)}): delete them")
        for n in dead:
            print(f"  {n}")
    if unlisted:
        failed = True
        print(f"\nkept only by tests and not in {rel} ({len(unlisted)}): "
              "delete them, give them a program caller, or allow-list them "
              "with a reason")
        for n in unlisted:
            print(f"  {n}")
    if errors:
        failed = True
        print(f"\nmalformed lines in {rel}:")
        for e in errors:
            print(f"  {e}")
    if stale:
        failed = True
        print(f"\nstale lines in {rel} (remove them):")
        for e, why in stale:
            print(f"  line {e.lineno}: {e.pattern}: {why}")
    if failed:
        return 1
    print("dead_code: green")
    return 0


if __name__ == "__main__":
    sys.exit(main())
