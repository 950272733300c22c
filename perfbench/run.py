#!/usr/bin/env python3
"""Build and run the COMET benchmark.

    python3 perfbench/run.py --workload <explain-uica|explain-ithemal|serve-mixed>
                             --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout. The first call configures and builds
the repository's library plus the benchmark binary into
.bench_build/perfbench/ at the checkout root (about a minute on 4 cores);
later calls rebuild only what changed. Trained model weights go to a fresh
.bench_build/run-<pid>/ directory that is removed when the run ends.

The last line of standard output is the run's JSON result; the lines before
it are a readable summary. The exit code is non-zero, and no result is
printed, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "comet_perfbench")
FINGERPRINTS = os.path.join(HERE, "fingerprints.tsv")
WORKLOADS = ("explain-uica", "explain-ithemal", "serve-mixed")


def build():
    if not os.path.isfile(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4",
                    "--target", "comet_perfbench"],
                   stdout=sys.stderr, check=True, timeout=840)


def parse_result(stdout):
    lines = stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys: %s" % sorted(result))
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    try:
        build()
    except (subprocess.SubprocessError, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1

    workdir = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--fingerprints", FINGERPRINTS, "--workdir", workdir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=60 + 4 * args.seconds)
        if run.returncode != 0:
            print("perfbench: run failed with exit code %d" % run.returncode,
                  file=sys.stderr)
            return 1
        lines = parse_result(run.stdout)
    except (subprocess.SubprocessError, OSError, ValueError) as err:
        print("perfbench: run failed: %s" % err, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
