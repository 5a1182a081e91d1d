#!/usr/bin/env python3
"""The CMCC performance benchmark (see perfbench/RATIONALE.md).

Run from the repository root:

    python3 perfbench/run.py --workload seismic --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The first form builds the program and the benchmark binary from source
(into .bench_build/, or $CARGO_TARGET_DIR when set), runs one workload in a
private scratch directory that is removed afterwards, and prints the
binary's report; its last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones; both must match BENCHMARK.json.

--smoke runs every workload traced and untraced at tiny sizes, so every
output check and both metric sets are exercised in about a minute.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("seismic", "wire", "compile", "shard")
# A run must end well within 180 s, even on a loaded host.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources next to perfbench/ (src/CMakeLists.txt)")
    out = os.path.join(build_dir(), "perfbench")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, **quiet).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    build_cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(build_cmd, **quiet).returncode != 0:
        fail("build failed")
    return os.path.join(out, "cmcc_perfbench")


def benchmark_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (report lines, result line, result)."""
    run_dir = os.path.join(build_dir(), "runs",
                           "%d-%s-%d" % (os.getpid(), workload, seed))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = dict(os.environ)
    # The build makes its own shard worker; never pick up another one.
    env.pop("CMCC_SHARD_WORKER", None)
    # The njit backend's compiler writes its temporaries here, not in /tmp.
    env["TMPDIR"] = run_dir
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--dir", run_dir] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail("%s exited with code %d" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("%s printed no result line" % workload)
    want = benchmark_names(trace)
    got = sorted(result.get("metrics", {}))
    if result.get("correct") and got != sorted(want):
        fail("%s reported metrics %s, BENCHMARK.json lists %s"
             % (workload, got, sorted(want)))
    return lines[:-1], lines[-1], result


def smoke(binary):
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            _, _, result = run(binary, workload, 1, 0.5, trace, smoke=True)
            good = result["correct"] and result["failed"] == 0
            print("smoke %-8s trace=%d: %s (%d jobs)"
                  % (workload, trace, "ok" if good else "FAILED",
                     result["attempted"]))
            ok = ok and good
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="exercise every workload and check at tiny sizes")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found at the repository root")

    binary = build()
    if args.smoke:
        return smoke(binary)
    lines, last, _ = run(binary, args.workload, args.seed, args.seconds,
                         args.trace == 1)
    print("\n".join(lines))
    print(last)
    return 0


if __name__ == "__main__":
    sys.exit(main())
