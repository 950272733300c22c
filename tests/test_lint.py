#!/usr/bin/env python3
"""Fixture tests for scripts/comet_lint.py (run via ctest target `test_lint`).

Every rule is proven in both directions: a known-bad snippet must be
flagged at the right line, and the documented suppression comment
(`// comet-lint: allow(<rule>)`, same line or the line above) must silence
exactly that finding. The scrubber (comments / string literals) and the
statement-position logic of unchecked-io get their own negative fixtures —
these are the cases a naive grep gets wrong.
"""

import os
import subprocess
import sys
import tempfile
import unittest

SCRIPTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                           "scripts")
sys.path.insert(0, SCRIPTS_DIR)

import comet_lint  # noqa: E402


def rules_hit(relpath, text):
    return [(v.rule, v.line) for v in comet_lint.lint_text(relpath, text)]


class RuleFiresAndSuppresses(unittest.TestCase):
    """Each rule: the bad snippet fires; the suppressed variant is clean."""

    def check(self, relpath, bad, rule, line=1):
        self.assertIn((rule, line), rules_hit(relpath, bad),
                      f"{rule} must fire on known-bad fixture")
        lines = bad.split("\n")
        idx = line - 1
        same_line = list(lines)
        same_line[idx] += f"  // comet-lint: allow({rule})"
        self.assertNotIn(
            (rule, line), rules_hit(relpath, "\n".join(same_line)),
            f"{rule} must honour a same-line suppression")
        above = list(lines)
        above.insert(idx, f"// comet-lint: allow({rule})")
        self.assertNotIn(
            (rule, line + 1), rules_hit(relpath, "\n".join(above)),
            f"{rule} must honour a previous-line suppression")

    def test_libm_in_nn(self):
        self.check("src/nn/kernel.cpp", "float y = std::tanh(x);",
                   "libm-in-nn")
        self.check("src/nn/kernel.cpp", "float y = expf(x);", "libm-in-nn")

    def test_raw_sync(self):
        self.check("src/serve/foo.h", "std::mutex mu;", "raw-sync")
        self.check("src/serve/foo.h", "std::condition_variable cv;",
                   "raw-sync")
        self.check("src/serve/foo.cpp",
                   "std::lock_guard<std::mutex> lock(mu);", "raw-sync")

    def test_unchecked_io(self):
        self.check("src/cost/model.cpp",
                   "std::fwrite(buf, 1, n, fp);", "unchecked-io")
        self.check("src/cost/model.cpp",
                   "fread(buf, 1, n, fp);", "unchecked-io")
        self.check("src/cost/model.cpp",
                   "(void)fwrite(buf, 1, n, fp);", "unchecked-io")

    def test_raw_random(self):
        self.check("src/perturb/p.cpp", "int r = rand();", "raw-random")
        self.check("src/perturb/p.cpp", "std::random_device rd;",
                   "raw-random")
        self.check("src/perturb/p.cpp", "std::mt19937 gen(42);", "raw-random")

    def test_stdout_in_library(self):
        self.check("src/core/report.cpp", 'std::cout << "x";',
                   "stdout-in-library")
        self.check("src/core/report.cpp", 'printf("%d", x);',
                   "stdout-in-library")

    def test_include_guard(self):
        self.check("src/core/new_header.h",
                   "namespace comet {}", "include-guard")

    def test_using_namespace(self):
        self.check("src/util/helpers.cpp", "using namespace std;",
                   "using-namespace")

    def test_raw_assert(self):
        self.check("src/x86/parser.cpp", "assert(idx < ops.size());",
                   "raw-assert")
        self.check("src/cost/model.cpp", "if (bad) std::abort();",
                   "raw-assert")
        self.check("src/cost/model.cpp", "if (bad) abort();", "raw-assert")

    def test_unbounded_wait(self):
        self.check("src/serve/pool.cpp",
                   "while (pending != 0) cv_.wait(lock);", "unbounded-wait")
        self.check("src/net/chan.cpp",
                   "const size_t n = transport.recv(buf, kNoTimeout);",
                   "unbounded-wait")

    def test_raw_clock(self):
        self.check("src/serve/foo.cpp",
                   "auto t = std::chrono::system_clock::now();", "raw-clock")
        self.check("src/serve/foo.cpp",
                   "using C = std::chrono::high_resolution_clock;",
                   "raw-clock")
        self.check("src/serve/foo.h",
                   "#pragma once\nauto t = system_clock::now();",
                   "raw-clock", line=2)

    def test_upward_include(self):
        self.check("src/core/anchor_engine.h",
                   '#pragma once\n#include "serve/async_broker.h"',
                   "upward-include", line=2)
        self.check("src/cost/cost_model.cpp",
                   '#include "serve/thread_pool.h"', "upward-include")
        self.check("src/perturb/p.cpp", "#include <net/wire.h>",
                   "upward-include")


class RuleScoping(unittest.TestCase):
    """Rules only apply where the invariant lives."""

    def test_libm_fine_outside_nn(self):
        self.assertEqual(
            [], rules_hit("src/cost/model.cpp", "double y = std::exp(x);"))

    def test_sync_h_itself_may_hold_std_mutex(self):
        self.assertEqual(
            [], rules_hit("src/util/sync.h",
                          "#pragma once\nstd::mutex mu_;"))

    def test_rng_impl_may_use_std_random(self):
        self.assertEqual(
            [], rules_hit("src/util/rng.cpp", "std::mt19937 gen_;"))
        self.assertEqual(
            [], rules_hit("src/util/rng.h",
                          "#pragma once\nstd::mt19937 gen_;"))

    def test_tests_and_benches_out_of_scope(self):
        self.assertEqual(
            [], rules_hit("tests/test_foo.cpp",
                          'std::mutex mu; std::cout << "ok";'))
        self.assertEqual(
            [], rules_hit("bench/bench_foo.cpp",
                          "auto t = std::chrono::system_clock::now();"))

    def test_unbounded_wait_only_in_serve_and_net(self):
        # Blocking helpers elsewhere (cost-layer joins, util internals) are
        # out of this rule's scope.
        self.assertEqual(
            [], rules_hit("src/cost/model.cpp",
                          "while (done != posted) join.cv.wait(lock);"))
        self.assertEqual(
            [], rules_hit("src/util/sync.h",
                          "#pragma once\n"
                          "void wait(MutexLock& lock) { cv_.wait(lock.lock_); }"))

    def test_upward_include_only_outside_serve_and_net(self):
        self.assertEqual(
            [], rules_hit("src/serve/remote_shard.h",
                          '#pragma once\n#include "net/transport.h"'))
        self.assertEqual(
            [], rules_hit("src/net/wire.cpp", '#include "serve/x.h"'))
        self.assertEqual(
            [], rules_hit("tests/test_serve.cpp",
                          '#include "serve/sharded_pool.h"'))

    def test_upward_include_spares_mentions_and_lookalikes(self):
        self.assertEqual(
            [], rules_hit("src/core/a.cpp",
                          '// was: #include "serve/async_broker.h"\n'
                          'const char* p = "#include \\"net/x.h\\"";\n'
                          '#include "cost/serve_stats.h"\n'
                          '#include "util/net/addr.h"'))

    def test_obs_clock_seam_is_exempt_from_raw_clock(self):
        # The seam itself wraps the real clock; steady_clock is fine
        # anywhere, and clock.h may name the others in its implementation.
        self.assertEqual(
            [], rules_hit("src/obs/clock.h",
                          "#pragma once\nauto t = "
                          "std::chrono::high_resolution_clock::now();"))
        self.assertEqual(
            [], rules_hit("src/serve/foo.h",
                          "#pragma once\nauto t = "
                          "std::chrono::steady_clock::now();"))


class ScrubberNegatives(unittest.TestCase):
    """Mentions in comments and strings must not fire."""

    def test_comment_mention(self):
        self.assertEqual(
            [], rules_hit("src/nn/lstm.h",
                          "#pragma once\nfloat tanh_c;  // tanh(c)"))
        self.assertEqual(
            [], rules_hit("src/serve/pool.h",
                          "#pragma once\n// replaces std::mutex here"))
        self.assertEqual(
            [], rules_hit("src/serve/pool.h",
                          "#pragma once\n/* std::mutex in a\n"
                          "   block comment */"))

    def test_string_mention(self):
        self.assertEqual(
            [], rules_hit("src/core/doc.cpp",
                          'const char* kDoc = "call std::exp or rand()";'))

    def test_identifier_substrings(self):
        # fast_exp / snprintf / fprintf must not match exp( / printf(.
        self.assertEqual(
            [], rules_hit("src/nn/act.cpp", "float y = fast_exp(x);"))
        self.assertEqual(
            [], rules_hit("src/util/fmt.cpp",
                          'std::snprintf(buf, n, "%d", v);\n'
                          "std::fprintf(stderr, \"x\");"))

    def test_raw_assert_spares_static_assert_and_contract_macros(self):
        ok = ("static_assert(sizeof(x) == 8, \"layout\");\n"
              "COMET_CHECK(idx < ops.size());\n"
              "COMET_DCHECK(t >= 0);\n"
              "void my_assert_helper(int);")
        self.assertEqual([], rules_hit("src/x86/parser.cpp", ok))


class UncheckedIoPositioning(unittest.TestCase):
    """Only result-discarding statement-position calls are violations."""

    def test_checked_forms_pass(self):
        ok = (
            "bool ok = std::fwrite(d, s, 1, fp) == 1;\n"
            "ok = ok && std::fwrite(m.data(), 4, n, fp) == n;\n"
            "if (std::fread(&magic, 4, 1, fp) != 1) return false;\n"
            "const size_t got = fread(buf, 1, n, fp);"
        )
        self.assertEqual([], rules_hit("src/cost/ckpt.cpp", ok))

    def test_continuation_line_not_statement_position(self):
        ok = ("ok = ok &&\n"
              "     std::fwrite(d, s, 1, fp) == 1;")
        self.assertEqual([], rules_hit("src/cost/ckpt.cpp", ok))

    def test_multiline_condition_not_flagged(self):
        ok = ("if (a != b ||\n"
              "    std::fread(d, s, 1, fp) != 1) {\n"
              "  return false;\n"
              "}")
        self.assertEqual([], rules_hit("src/cost/ckpt.cpp", ok))


class UnboundedWaitBounds(unittest.TestCase):
    """A bound anywhere on the statement exempts it; helpers don't fire."""

    def test_timed_variants_pass(self):
        ok = (
            "cv_.wait_for_ns(lock, deadline - now);\n"
            "const size_t n = transport.recv(buf, timeout_ns);\n"
            "const size_t m = transport.recv(buf, deadline - now);"
        )
        self.assertEqual([], rules_hit("src/serve/pool.cpp", ok))

    def test_bound_on_continuation_line_counts(self):
        ok = ("const std::size_t n =\n"
              "    transport->recv(std::span<std::uint8_t>(buf),\n"
              "                    deadline - now);")
        self.assertEqual([], rules_hit("src/serve/pool.cpp", ok))

    def test_declaration_with_timeout_parameter_passes(self):
        ok = ("#pragma once\n"
              "virtual std::size_t recv(std::span<std::uint8_t> buf,\n"
              "                         std::uint64_t timeout_ns) = 0;")
        self.assertEqual([], rules_hit("src/net/transport2.h", ok))

    def test_zero_arg_wait_is_a_helper_call(self):
        # join.wait() is a named latch; its blocking loop is linted where
        # it is defined.
        self.assertEqual([], rules_hit("src/serve/pool.cpp", "join.wait();"))

    def test_finding_anchors_at_statement_start(self):
        bad = ("const std::size_t n =\n"
               "    transport.recv(buf, kNoTimeout);")
        self.assertEqual([("unbounded-wait", 1)],
                         rules_hit("src/serve/pool.cpp", bad))
        # ... so the documented previous-line suppression works on
        # multi-line statements too.
        suppressed = "// comet-lint: allow(unbounded-wait)\n" + bad
        self.assertEqual([], rules_hit("src/serve/pool.cpp", suppressed))


class SuppressionSyntax(unittest.TestCase):
    def test_multi_rule_suppression(self):
        text = ("std::mutex mu;  "
                "// comet-lint: allow(raw-sync, stdout-in-library)")
        self.assertEqual([], rules_hit("src/serve/x.cpp", text))

    def test_wrong_rule_does_not_suppress(self):
        text = "std::mutex mu;  // comet-lint: allow(unchecked-io)"
        self.assertEqual([("raw-sync", 1)], rules_hit("src/serve/x.cpp", text))

    def test_suppression_does_not_leak_two_lines_down(self):
        text = ("// comet-lint: allow(raw-sync)\n"
                "std::mutex a;\n"
                "std::mutex b;")
        self.assertEqual([("raw-sync", 3)], rules_hit("src/serve/x.cpp", text))


class CommandLine(unittest.TestCase):
    """The CLI (what ctest and CI invoke) reports and exits correctly."""

    def run_lint(self, root, paths):
        return subprocess.run(
            [sys.executable,
             os.path.join(SCRIPTS_DIR, "comet_lint.py"), "--root", root]
            + paths,
            capture_output=True, text=True)

    def test_bad_tree_fails_with_findings(self):
        with tempfile.TemporaryDirectory() as root:
            bad_dir = os.path.join(root, "src", "serve")
            os.makedirs(bad_dir)
            with open(os.path.join(bad_dir, "bad.h"), "w") as f:
                f.write("#pragma once\nstd::mutex mu_;\n")
            result = self.run_lint(root, ["src"])
            self.assertEqual(1, result.returncode)
            self.assertIn("src/serve/bad.h:2: [raw-sync]", result.stdout)

    def test_clean_tree_passes(self):
        with tempfile.TemporaryDirectory() as root:
            clean_dir = os.path.join(root, "src", "core")
            os.makedirs(clean_dir)
            with open(os.path.join(clean_dir, "ok.h"), "w") as f:
                f.write("#pragma once\nnamespace comet {}\n")
            result = self.run_lint(root, ["src"])
            self.assertEqual(0, result.returncode, result.stdout)
            self.assertIn("clean", result.stdout)

    def test_list_rules_names_every_rule(self):
        result = subprocess.run(
            [sys.executable, os.path.join(SCRIPTS_DIR, "comet_lint.py"),
             "--list-rules"],
            capture_output=True, text=True)
        self.assertEqual(0, result.returncode)
        for rule in ("libm-in-nn", "raw-sync", "unchecked-io", "raw-random",
                     "stdout-in-library", "include-guard", "using-namespace",
                     "raw-clock", "raw-assert", "unbounded-wait",
                     "upward-include"):
            self.assertIn(rule, result.stdout)


if __name__ == "__main__":
    unittest.main()
