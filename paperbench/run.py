#!/usr/bin/env python3
"""Builds the paper-pipeline benchmark against the nestflow sources and runs it.

Usage, from the root of the repository:

    python3 paperbench/run.py --workload fig-solve --seed 42 --seconds 10 --trace 0

--workload takes one name, a comma-separated list, or "all". Each run prints
every metric by name with its unit, then one JSON result line. Options this
script does not know (e.g. --threads, --nodes, --write-golden) are passed to
the benchmark binary unchanged.

The build goes to $CARGO_TARGET_DIR/paperbench (default .bench_build), and
stamped result files and traced spans to $CARGO_TARGET_DIR/paperbench-results.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "paperbench"
WORKLOADS = ["fig-solve", "fig-events", "fig-shuffle", "table1-routes"]
# Each run must end within 180 s; the binary is stopped before that.
RUN_TIMEOUT_S = 170


def target_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    build_dir = target_dir() / "paperbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(build_dir), "--target", "paperbench",
                  "-j", jobs])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.flush()
                (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
                sys.stderr.write(log.read_text()[-4000:])
                sys.exit(f"run.py: build failed (log: {log})")
    return build_dir / "paperbench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden-dir", default=str(BENCH_DIR / "golden"))
    args, passthrough = parser.parse_known_args()
    names = WORKLOADS if args.workload == "all" else args.workload.split(",")
    for name in names:
        if name not in WORKLOADS:
            sys.exit(f"run.py: unknown workload '{name}' (expected {WORKLOADS} or all)")

    binary = build()
    results = target_dir() / "paperbench-results"
    results.mkdir(parents=True, exist_ok=True)
    provenance = ["--git-sha", git_sha()]
    status = 0
    for name in names:
        stem = results / f"{name}-seed{args.seed}-trace{args.trace}"
        command = [str(binary), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--golden-dir", args.golden_dir,
                   "--out", f"{stem}.json", *provenance]
        if args.trace:
            command += ["--spans", f"{stem}.spans.jsonl"]
        sys.stdout.flush()
        try:
            code = subprocess.run(command + passthrough, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            sys.exit(f"run.py: {name} did not finish within {RUN_TIMEOUT_S} s")
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
