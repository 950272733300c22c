#!/usr/bin/env python3
"""Fixture tests for scripts/comet_lint.py and the classifier of
scripts/dead_code.py (run via ctest target `test_lint`).

Every rule is proven in both directions: a known-bad snippet must be
flagged at the right line, and the documented suppression comment
(`// comet-lint: allow(<rule>)`, same line or the line above) must silence
exactly that finding. The scrubber (comments / string literals) and the
statement-position logic of unchecked-io get their own negative fixtures —
these are the cases a naive grep gets wrong. The dead-code classifier is
fed canned `nm` lines, so it is tested without a build.
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
import dead_code  # noqa: E402


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
                   '#pragma once\n#include "serve/explanation_server.h"',
                   "upward-include", line=2)
        self.check("src/cost/cost_model.cpp",
                   '#include "serve/remote_shard.h"', "upward-include")
        self.check("src/perturb/p.cpp", "#include <net/wire.h>",
                   "upward-include")
        # src/net/ sits on obs/ and util/ only.
        self.check("src/net/wire.cpp", '#include "serve/x.h"',
                   "upward-include")
        self.check("src/net/wire.h",
                   '#pragma once\n#include "cost/query_stats.h"',
                   "upward-include", line=2)

    def test_isa_include(self):
        self.check("src/riscv/explain.h",
                   '#pragma once\n#include "x86/instruction.h"',
                   "isa-include", line=2)
        self.check("src/riscv/cost.cpp", '#include "cost/query_broker.h"',
                   "isa-include")
        self.check("src/riscv/perturb.cpp", "#include <perturb/perturber.h>",
                   "isa-include")
        # The shared vocabulary sits on util/ only.
        self.check("src/graph/vocabulary.h",
                   '#pragma once\n#include "riscv/isa.h"',
                   "isa-include", line=2)

    def test_extern_template(self):
        self.check("src/core/comet.h",
                   "#pragma once\n"
                   "using CometExplainer = AnchorEngine<X86AnchorTraits>;",
                   "extern-template", line=2)
        # The alias may span lines; the finding anchors at `using`.
        self.check("src/serve/isa_servers.h",
                   "#pragma once\nusing RvExplanationServer =\n"
                   "    ExplanationServer<riscv::RvAnchorTraits>;",
                   "extern-template", line=2)
        # A declaration for the other ISA does not cover this alias.
        self.check("src/riscv/explain.h",
                   "#pragma once\n"
                   "using RvExplainer = core::AnchorEngine<RvAnchorTraits>;\n"
                   "extern template class AnchorEngine<X86AnchorTraits>;",
                   "extern-template", line=2)


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
            [], rules_hit("src/net/sim_transport.cpp",
                          '#include "net/sim_transport.h"\n'
                          "#include <sys/socket.h>\n"
                          '#include "obs/clock.h"\n'
                          '#include "util/sync.h"'))
        self.assertEqual(
            [], rules_hit("tests/test_serve.cpp",
                          '#include "serve/remote_shard.h"'))

    def test_isa_include_allows_the_shared_layers(self):
        self.assertEqual(
            [], rules_hit("src/riscv/explain.h",
                          "#pragma once\n"
                          "#include <vector>\n"
                          '#include "core/anchor_engine.h"\n'
                          '#include "cost/query_stats.h"\n'
                          '#include "graph/vocabulary.h"\n'
                          '#include "riscv/isa.h"'))
        self.assertEqual(
            [], rules_hit("src/graph/vocabulary.h",
                          "#pragma once\n#include <string>\n"
                          '#include "util/str.h"'))
        # Only the vocabulary header is held to util/ in src/graph/.
        self.assertEqual(
            [], rules_hit("src/graph/features.h",
                          '#pragma once\n#include "x86/instruction.h"'))

    def test_upward_include_spares_mentions_and_lookalikes(self):
        self.assertEqual(
            [], rules_hit("src/core/a.cpp",
                          '// was: #include "serve/async_broker.h"\n'
                          'const char* p = "#include \\"net/x.h\\"";\n'
                          '#include "cost/serve_stats.h"\n'
                          '#include "util/net/addr.h"'))

    def test_extern_template_matches_declarations_in_any_namespace(self):
        self.assertEqual(
            [], rules_hit("src/riscv/explain.h",
                          "#pragma once\n"
                          "namespace comet::riscv {\n"
                          "using RvExplainer = core::AnchorEngine<"
                          "RvAnchorTraits>;\n"
                          "}\n"
                          "namespace comet::core {\n"
                          "extern template class AnchorEngine<"
                          "riscv::RvAnchorTraits>;\n"
                          "}"))

    def test_extern_template_spares_parameters_sources_and_mentions(self):
        # An alias over a template parameter names no instantiation.
        self.assertEqual(
            [], rules_hit("src/serve/explanation_server.h",
                          "#pragma once\ntemplate <typename Traits>\n"
                          "class ExplanationServer {\n"
                          "  using Engine = core::AnchorEngine<Traits>;\n"
                          "};"))
        # Only headers: a .cpp alias is that file's own business, as are
        # tests, benches and perfbench outside src/.
        alias = "using E = core::AnchorEngine<X86AnchorTraits>;"
        self.assertEqual([], rules_hit("src/core/eval.cpp", alias))
        self.assertEqual([], rules_hit("tests/test_core.cpp", alias))
        self.assertEqual([], rules_hit("perfbench/src/layers.h", alias))
        self.assertEqual(
            [], rules_hit("src/core/comet.h",
                          "#pragma once\n// using E = AnchorEngine<T>;"))

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
                     "upward-include", "isa-include", "extern-template"):
            self.assertIn(rule, result.stdout)


# Real mangled names, as `nm --defined-only` prints them.
X86_IS_DEP = "_ZNK5comet5graph9FeatureOfINS_3x866OpcodeEE6is_depEv"
RV_IS_DEP = "_ZNK5comet5graph9FeatureOfINS_5riscv6OpcodeEE6is_depEv"
HAS_EDGE = "_ZNK5comet5graph8DepGraph8has_edgeEmmNS0_7DepKindE"
GPR_FAMILIES = "_ZN5comet3x8612gpr_familiesEv"
SUBST_FAMILIES = "_ZN5comet3x8626substitutable_gpr_familiesEv"
X86_ESTIMATE_PRECISION = (
    "_ZNK5comet4core12AnchorEngineINS0_15X86AnchorTraitsEE18estimate_"
    "precisionERKNS_3x8610BasicBlockERKNS_5graph12FeatureSetOfINS4_6Opcode"
    "EEEmRNS_4util3RngE")
RV_ESTIMATE_PRECISION = (
    "_ZNK5comet4core12AnchorEngineINS_5riscv14RvAnchorTraitsEE18estimate_"
    "precisionERKNS2_10BasicBlockERKNS_5graph12FeatureSetOfINS2_6OpcodeEE"
    "EmRNS_4util3RngE")
RV_ESTIMATE_COVERAGE = (
    "_ZNK5comet4core12AnchorEngineINS_5riscv14RvAnchorTraitsEE17estimate_"
    "coverageERKNS2_10BasicBlockERKNS_5graph12FeatureSetOfINS2_6OpcodeEEEm"
    "RNS_4util3RngE")
STD_OVER_COMET = ("_ZNSt6vectorIN5comet2nn12LstmSequenceESaIS2_EE"
                  "17_M_default_appendEm")


def nm_line(sym, kind="T"):
    return f"0000000000001040 {kind} {sym}"


class DeadCodeClassifier(unittest.TestCase):
    """scripts/dead_code.py sorts library functions by the binaries that
    keep them, and polices its allow-list."""

    def classify(self, library, binaries):
        lib = dead_code.text_symbols([nm_line(s, "W") for s in library])
        kept = {name: dead_code.text_symbols([nm_line(s) for s in syms])
                for name, syms in binaries.items()}
        return dead_code.classify(lib, kept)

    def test_std_instantiation_over_comet_type_is_ignored(self):
        lines = [nm_line(STD_OVER_COMET, "W"), nm_line(GPR_FAMILIES),
                 nm_line(HAS_EDGE, "U"), f"{' ' * 17}U {SUBST_FAMILIES}"]
        self.assertEqual({GPR_FAMILIES}, dead_code.text_symbols(lines))
        classes = self.classify([STD_OVER_COMET, GPR_FAMILIES],
                                {"quickstart": [STD_OVER_COMET]})
        self.assertEqual({"x86::gpr_families()": "dead"}, classes)

    def test_template_member_kept_by_one_instantiation_is_kept(self):
        classes = self.classify([X86_IS_DEP, RV_IS_DEP],
                                {"riscv_quickstart": [RV_IS_DEP]})
        self.assertEqual({"graph::FeatureOf<>::is_dep() const": "program"},
                         classes)

    def test_class_template_member_grouped_across_isa_signatures(self):
        # The two instantiations' signatures differ (x86:: vs riscv::
        # parameter types), yet they are one member of AnchorEngine<>: an
        # x86 program keeping it keeps the RISC-V twin too. A member no
        # instantiation of which a program keeps stays test-only.
        classes = self.classify(
            [X86_ESTIMATE_PRECISION, RV_ESTIMATE_PRECISION,
             RV_ESTIMATE_COVERAGE],
            {"bench_table3_ithemal": [X86_ESTIMATE_PRECISION],
             "test_riscv": [RV_ESTIMATE_PRECISION, RV_ESTIMATE_COVERAGE]})
        rv_signature = ("(riscv::BasicBlock const&, graph::FeatureSetOf<> "
                        "const&, unsigned long, util::Rng&) const")
        self.assertEqual(
            {"core::AnchorEngine<>::estimate_precision(x86::BasicBlock "
             "const&, graph::FeatureSetOf<> const&, unsigned long, "
             "util::Rng&) const": "program",
             "core::AnchorEngine<>::estimate_precision" + rv_signature:
             "program",
             "core::AnchorEngine<>::estimate_coverage" + rv_signature:
             "test-only"},
            classes)

    def test_kept_only_by_test_and_fuzz_binaries_is_test_only(self):
        classes = self.classify(
            [HAS_EDGE, GPR_FAMILIES, SUBST_FAMILIES],
            {"test_graph": [HAS_EDGE, SUBST_FAMILIES],
             "fuzz_perturber": [HAS_EDGE],
             "comet_perfbench": [SUBST_FAMILIES]})
        self.assertEqual(
            {"graph::DepGraph::has_edge(unsigned long, unsigned long, "
             "graph::DepKind) const": "test-only",
             "x86::gpr_families()": "dead",
             "x86::substitutable_gpr_families()": "program"},
            classes)

    def test_display_name_strips_return_type_abi_tag_and_operators(self):
        self.assertEqual(
            "util::f<>(std::vector<> const&)",
            dead_code.display_name(
                "std::vector<int> "
                "comet::util::f<int>(std::vector<int> const&)"))
        self.assertEqual(
            "obs::R::to_prometheus() const",
            dead_code.display_name(
                "comet::obs::R::to_prometheus[abi:cxx11]() const"))
        self.assertEqual(
            "x86::operator<<(std::ostream&, x86::Reg const&)",
            dead_code.display_name("comet::x86::operator<<(std::ostream&, "
                                   "comet::x86::Reg const&)"))
        self.assertEqual("net::{anon}::poll(unsigned long)",
                         dead_code.display_name(
                             "comet::net::(anonymous namespace)::poll("
                             "unsigned long)"))

    def test_allow_line_without_reason_is_rejected(self):
        entries, errors = dead_code.parse_allow(
            "# comment\n\nx86::a  # kept for the fuzzer\nx86::b\nx86::c  #\n")
        self.assertEqual(["x86::a"], [e.pattern for e in entries])
        self.assertEqual(2, len(errors))
        self.assertIn("line 4", errors[0])
        self.assertIn("line 5", errors[1])

    def test_allow_patterns_match_names_or_signatures(self):
        entries, _ = dead_code.parse_allow(
            "net::Fault::*  # fabric\n"
            "x86::is_valid(x86::BasicBlock const&)  # oracle\n")
        fault, is_valid = entries
        self.assertTrue(fault.matches("net::Fault::drop()"))
        self.assertFalse(fault.matches("net::FaultSchedule::seeded(double)"))
        self.assertTrue(
            is_valid.matches("x86::is_valid(x86::BasicBlock const&)"))
        self.assertFalse(
            is_valid.matches("x86::is_valid(x86::Instruction const&)"))

    def test_gate_findings_and_stale_allow_lines(self):
        classes = {"a()": "test-only", "b()": "test-only", "c()": "program",
                   "d()": "dead"}
        entries, errors = dead_code.parse_allow(
            "a  # covered\n"
            "c  # a program keeps it now\n"
            "gone  # the function no longer exists\n")
        self.assertEqual([], errors)
        dead, unlisted, stale = dead_code.check(classes, entries)
        self.assertEqual(["d()"], dead)
        self.assertEqual(["b()"], unlisted)
        self.assertEqual([2, 3], [e.lineno for e, _ in stale])
        self.assertIn("program", stale[0][1])
        self.assertIn("no library function", stale[1][1])

    def test_clean_inputs_pass(self):
        classes = {"a()": "test-only", "c()": "program"}
        entries, _ = dead_code.parse_allow("a  # covered\n")
        self.assertEqual(([], [], []), dead_code.check(classes, entries))


if __name__ == "__main__":
    unittest.main()
