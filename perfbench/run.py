#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --seed N --print-spec K

Run from the repository root. Configures and builds perfbench/ (the
dilu library from the repository's sources plus the dilu_perfbench
binary, Release) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the binary and prints its output; the
last line is the result JSON {correct, attempted, failed, metrics}.

Every run of the same workload, seed and mode must serialize the same
simulated reports: the binary prints a digest of them, and this script
keeps the first digest it sees per (binary build, workload, seed, mode)
and fails any later run whose digest differs.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the binary; returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "dilu_perfbench"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                sys.exit(f"perfbench: build failed ({' '.join(cmd)}); see {log}")
    return build_dir / "dilu_perfbench"


def same_reports(build_dir, exe, key, digest):
    """True unless an earlier run of `key` on this build saw another digest."""
    exe_hash = hashlib.sha256(exe.read_bytes()).hexdigest()[:16]
    record = build_dir / "reports" / exe_hash / f"{key}.digest"
    if record.exists():
        return record.read_text().strip() == digest
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(digest + "\n")
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--print-spec", type=int, default=None, metavar="K")
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = target.resolve() / "perfbench"
    exe = build(build_dir)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed)]
    if args.print_spec is not None:
        sys.exit(subprocess.run(cmd + ["--print-spec", str(args.print_spec)]).returncode)
    trace_dir = build_dir / "traces"
    trace_dir.mkdir(exist_ok=True)
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace),
            "--trace-out", str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: dilu_perfbench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    digests = [l.split()[1] for l in lines if l.startswith("report_digest ")]
    key = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if digests and not same_reports(build_dir, exe, key, digests[0]):
        sys.stderr.write(f"CHECK FAILED: reports of {key} differ from an "
                         "earlier run of the same build\n")
        result["correct"] = False
        result["failed"] = result["attempted"]
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
