#!/usr/bin/env python3
"""Build and run the SVAGC repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite-swapva --seed 1 --seconds 20 --trace 0

Builds perfbench/svagc_perfbench.exe from source with dune, runs it, and
passes its output through.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

EXE = os.path.join("_build", "default", "perfbench", "svagc_perfbench.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def lib_line_count():
    """Lines of lib/ .ml and .mli files, as the ROADMAP asks bench metadata to carry."""
    total = 0
    for root, _dirs, files in os.walk("lib"):
        for name in files:
            if name.endswith((".ml", ".mli")):
                with open(os.path.join(root, name), "rb") as f:
                    total += sum(1 for _ in f)
    return total


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(cmd, timeout, stdout):
    proc = subprocess.Popen(cmd, stdout=stdout)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("timed out: " + " ".join(cmd))
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for path in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            die("run from the root of an SVAGC checkout (missing %s)" % path)
    if shutil.which("dune") is None:
        die("dune is not on PATH")

    # Build output goes to stderr so the result stays the last stdout line.
    rc = run(["dune", "build", "--root", ".", "./perfbench/svagc_perfbench.exe"],
             BUILD_TIMEOUT_S, sys.stderr)
    if rc != 0:
        die("build failed")

    os.environ.pop("DOMAINS", None)  # the library's default domain count
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--git-sha", git_sha(),
        "--lib-lines", str(lib_line_count()),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timed_out = threading.Event()

    def on_timeout():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(RUN_TIMEOUT_S, on_timeout)
    timer.start()
    last = ""
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            if line.strip():
                last = line
        rc = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    sys.stdout.flush()
    if timed_out.is_set():
        die("timed out after %d s" % RUN_TIMEOUT_S)
    if rc != 0:
        die("benchmark exited with code %d" % rc)
    try:
        result = json.loads(last)
    except ValueError:
        die("last line is not a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("result has unexpected keys")


if __name__ == "__main__":
    main()
