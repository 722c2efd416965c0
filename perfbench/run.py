#!/usr/bin/env python3
"""netrec-bench entry point: builds the benchmark from source, runs it.

    python3 perfbench/run.py --workload plan_fresh --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  The build goes to $CARGO_TARGET_DIR, or
.bench_build when it is unset (relative paths resolve against the working
directory); the first run configures and compiles netrec in Release mode.
The last line of standard output is the benchmark's result object.  With
--trace 1 the spans are also written to <build dir>/traces/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir, target):
    """Configures (once) and builds `target`; False on failure."""
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", target])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("error: build step failed: " + " ".join(step))
            return False
    return True


def source_digest(root):
    """SHA-256 over the benchmarked sources: netrec's src/ and this package."""
    digest = hashlib.sha256()
    for base in (root / "src", BENCH_DIR):
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit_id(root):
    """HEAD when `root` is itself a git checkout, else "unknown"."""
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse",
                              "--show-toplevel"], capture_output=True,
                             text=True, timeout=10)
        if top.returncode == 0 and Path(top.stdout.strip()) == root:
            head = subprocess.run(["git", "-C", str(root), "rev-parse",
                                   "HEAD"], capture_output=True, text=True,
                                  timeout=10)
            if head.returncode == 0:
                return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run(command):
    """Runs the harness with a hard timeout; returns (code, stdout)."""
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log(f"error: benchmark exceeded {RUN_TIMEOUT_S} s")
            return 1, ""
        return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness self-tests")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    root = Path.cwd().resolve()
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    target = "perfbench_selftest" if args.selftest else "perfbench"
    if not build(build_dir, target):
        return 1
    if args.selftest:
        return subprocess.run([str(build_dir / target)]).returncode

    command = [str(build_dir / target),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--commit", commit_id(root),
               "--source-digest", source_digest(root)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    code, out = run(command)
    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if code not in (0, 1) or not isinstance(result, dict) \
            or set(result) != RESULT_KEYS:
        sys.stderr.write(out)
        log(f"error: benchmark failed (exit {code}) without a result")
        return code or 1
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
