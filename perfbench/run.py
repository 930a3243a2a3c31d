#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The simulator and the benchmark are built
from source with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to stderr. The last line of
standard output is the result object; a run that cannot build, crashes or
times out exits non-zero without printing one.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(os.path.join(ROOT, base)), "perfbench")


def build():
    """Configures and builds nm_perfbench (incrementally); returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", out, "--target", "nm_perfbench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "nm_perfbench")


def declared_metrics():
    """(layer, name, unit, better) rows BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {(layer, m["name"], m["unit"], m["better"])
            for layer in ("end_to_end", "per_layer") for m in spec[layer]}


def self_test(binary):
    ok = subprocess.run([binary, "--self-test"]).returncode == 0
    listed = subprocess.run([binary, "--list-metrics"], capture_output=True, text=True,
                            check=True).stdout.split("\n")
    emitted = {tuple(line.split()) for line in listed if line.strip()}
    declared = declared_metrics()
    for row in sorted(emitted ^ declared):
        where = "BENCHMARK.json" if row in declared else "the benchmark"
        print("FAIL: only %s has metric %s" % (where, " ".join(row)))
        ok = False
    print("run.py self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def run(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(line for line in lines if not line.startswith("{")))
        sys.exit("perfbench: %s exited with %d" % (args.workload, proc.returncode))
    result = json.loads(lines[-1])
    layer = "per_layer" if args.trace else "end_to_end"
    wanted = {name for (lay, name, _, _) in declared_metrics() if lay == layer}
    if set(result["metrics"]) != wanted:
        sys.exit("perfbench: metrics differ from BENCHMARK.json: %s"
                 % sorted(set(result["metrics"]) ^ wanted))
    print(proc.stdout, end="")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    binary = build()
    return self_test(binary) if args.self_test else run(binary, args)


if __name__ == "__main__":
    sys.exit(main())
