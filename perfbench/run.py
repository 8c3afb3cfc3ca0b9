#!/usr/bin/env python3
"""perfbench entry point.

Builds the benchmark binary from the checkout's sources (into .bench_build/,
configured once, rebuilt incrementally) and runs one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is the result JSON. Build output goes to
standard error. Traced runs keep their spans in
.bench_build/spans/<workload>-<seed>.csv.

    python3 perfbench/run.py --selfcheck

runs the negative self-checks: a paper-socket run with one agent that never
reaches its safe state, and a check-pair run against the resume-early
manager mutation. Both must report failed operations; exit status 0 means
the failure counting caught both.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at src/ - run from a full checkout")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def provenance():
    """Commit of the checkout, or a hash of the sources when it is not a git tree."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            raise OSError("checkout is not the root of a git tree")
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                                "perfbench"], capture_output=True, text=True,
                               check=True).stdout.strip()
        return {"commit": head + ("-dirty" if dirty else ""), "source": "git"}
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"commit": "tree-" + digest.hexdigest()[:16], "source": "sha256 of src/ and perfbench/"}


def run(args, capture=False):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--provenance", json.dumps(provenance())]
    if args.fault:
        cmd += ["--fault", args.fault]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, "%s-%d.csv" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    return done


def selfcheck():
    checks = [("paper-socket", "fail-to-reset", 3), ("check-pair", "resume-before-last-adapt-done", 2)]
    caught = 0
    for workload, fault, seconds in checks:
        args = argparse.Namespace(workload=workload, seed=1, seconds=seconds, trace=0, fault=fault)
        done = run(args, capture=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
        ok = result is not None and result["failed"] > 0 and not result["correct"]
        caught += ok
        print("selfcheck %s --fault %s: %s" % (workload, fault,
              "caught (%d of %d failed)" % (result["failed"], result["attempted"]) if ok
              else "NOT CAUGHT"))
    return 0 if caught == len(checks) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", default="", help="negative self-check input (see --selfcheck)")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    build()
    if args.selfcheck:
        return selfcheck()
    if not args.workload:
        parser.error("--workload is required")
    return run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
