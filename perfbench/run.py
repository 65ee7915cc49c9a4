#!/usr/bin/env python3
"""Builds and runs the dapple end-to-end benchmark.

    python3 perfbench/run.py --workload stream_udp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --canary

Run from the repository root.  The benchmark is compiled from the
repository's sources into $CARGO_TARGET_DIR (default .bench_build) on every
run; an up-to-date build costs well under a second.  Build output goes to
stderr.  The last line of stdout is the result object; the line before it
is the run's context (host, workload shape, integrity problems).  With
--trace 1 the spans of the traced phase are written to
<build dir>/spans/<workload>.csv.

Exit status: 0 when every message arrived intact and in order and every
stage-sum check held; non-zero otherwise (or when the build fails).
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds dapple_perf; returns its path."""
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 2)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "dapple_perf")


def source_id():
    """The git commit when there is one, else a hash of the built sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "include", "perfbench"):
        for dirpath, _, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--canary", action="store_true",
                    help="run the attribution self-test instead of a workload")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"run.py: build failed: {e}")
        return 2
    if args.canary:
        cmd = [binary, "--canary", "--seed", str(args.seed),
               "--seconds", str(min(args.seconds, 6))]
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode

    if not re.fullmatch(r"[A-Za-z0-9_]+", args.workload or ""):
        log("run.py: --workload NAME is required (letters, digits, _)")
        return 2
    metrics = expected_metrics(args.trace == 1)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id()]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, args.workload + ".csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"run.py: dapple_perf printed nothing (exit {proc.returncode})")
        return proc.returncode or 4
    try:
        got = set(json.loads(lines[-1])["metrics"])
    except (ValueError, KeyError, TypeError):
        log(f"run.py: last line is not a result (exit {proc.returncode})")
        return proc.returncode or 4
    if got != metrics:
        log(f"run.py: metric names differ from BENCHMARK.json: "
            f"missing {sorted(metrics - got)}, extra {sorted(got - metrics)}")
        return 5
    print("\n".join(lines), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
