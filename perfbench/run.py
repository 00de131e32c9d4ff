#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. The OCaml benchmark
(perfbench/perfbench.ml) is built with dune into .bench_build/, then
run; its last line of output is the JSON result. With --trace 1 this
script first runs the environment-pinning self-check: one short round
of the workload under the library's environment variables unset and
under flipped values must give identical simulated figures.

Exit status: 0 on success, 1 when a build, an output check or a
self-check fails, 2 on bad usage or a checkout without the sources.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "perfbench.exe")
WORKLOADS = ["http_vtx", "bild_mpk", "wiki_mpk_4core", "python_vtx"]
SOURCES = ["dune-project", "lib", os.path.join("perfbench", "dune")]

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
PIN_TIMEOUT_S = 60

# Every environment variable the library reads, and a value flipping
# each away from its default.
FLIPPED_ENV = {
    "ENCL_CORES": "3",
    "ENCL_FASTPATH": "0",
    "ENCL_SYSRING": "0",
    "ENCL_ZEROCOPY": "0",
    "ENCL_DEFENSES_OFF": ",".join([
        "gate-integrity", "syscall-origin", "mm-guard", "ring-integrity",
        "resume-check", "cache-epoch", "sfi-mask", "tainted-boundary",
    ]),
}


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    found = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    if found:
        return found[-1]
    fail("dune not found on PATH")


def build():
    # The shared dune cache lives outside the checkout: keep it off.
    cmd = [find_dune(), "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--cache", "disabled", "./perfbench/perfbench.exe"]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if res.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(res.stdout.decode(errors="replace"))
        fail("build failed")


def pin_output(args, env):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed), "--pin-check"]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, timeout=PIN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("pinning self-check timed out")
    if res.returncode != 0:
        sys.stderr.write(res.stderr.decode(errors="replace"))
        fail("pinning self-check round failed")
    return res.stdout.decode()


def pin_check(args):
    clean = {k: v for k, v in os.environ.items() if k not in FLIPPED_ENV}
    flipped = dict(clean, **FLIPPED_ENV)
    same = pin_output(args, clean) == pin_output(args, flipped)
    print("self-check: simulated figures identical with ENCL_* unset and "
          "flipped (%s)  %s" % (" ".join("%s=%s" % kv for kv in FLIPPED_ENV.items()),
                                "ok" if same else "FAILED"), flush=True)
    if not same:
        fail("results depend on the environment")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)
    missing = [p for p in SOURCES if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("not a checkout of the repository (missing %s)" % ", ".join(missing), 2)
    build()
    if args.trace == 1:
        pin_check(args)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        res = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
