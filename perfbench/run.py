#!/usr/bin/env python3
"""Host-time benchmark of the dragonfly simulator (see perfbench/README.md).

Builds perfbench/dfly_bench from the checkout's sources, then runs each
requested workload in its own process, so that peak_rss_mb belongs to that
workload alone:

  python3 perfbench/run.py                      # every workload, untraced then traced
  python3 perfbench/run.py --workload cr_rand_adp --seed 7 --trace 1
  python3 perfbench/run.py --self-test          # reduced-size checks of the benchmark

Each process measures for --seconds, by default BENCHMARK.json's run_seconds.
Every run prints a "result" line; the last stdout line is one JSON object
{correct, attempted, failed, metrics} totalled over the runs. Its metrics are
the run's own when one workload and one --trace mode were asked for, and
empty otherwise.
At the default seed each run's simulated digest must equal the reference in
perfbench/reference_digests.json; at other seeds only the invariants are
checked and the digest is printed so two commits can be compared.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["cr_rand_adp", "amg_cont_min", "a2a_rand_adp_t1"]
DEFAULT_SEED = 42
# A harness process that outlives its --seconds by this much is killed; no
# single repetition comes near it.
GRACE_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "dfly_bench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr so the result stays the last stdout line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / "dfly_bench"


def run_workload(binary, workload, seed, seconds, trace, threads=None, small=False,
                 expect_digest=None, echo=True):
    """Runs one workload in its own process; returns (result dict, digest)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    if small:
        cmd.append("--small")
    if expect_digest is not None:
        cmd += ["--expect-digest", expect_digest]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {seconds + GRACE_S} s")
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: harness exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")), None)
    return result, digest


def run_seconds():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)["run_seconds"]


def reference_digests():
    with open(HERE / "reference_digests.json") as f:
        return json.load(f)


def self_test(binary):
    """Reduced-size checks that the benchmark itself tells good runs from bad."""
    checks = []

    def check(name, ok, detail):
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")

    small = dict(seed=DEFAULT_SEED, seconds=1, trace=False, small=True, echo=False)
    r1, d1 = run_workload(binary, "cr_rand_adp", **small)
    r2, d2 = run_workload(binary, "cr_rand_adp", **small)
    check("digest repeats across two processes",
          r1["correct"] and r2["correct"] and d1 == d2, f"{d1} vs {d2}")

    digests = {}
    for threads in (1, 2, 4):
        r, d = run_workload(binary, "a2a_rand_adp_t1", threads=threads, **small)
        digests[threads] = d if r["correct"] else None
    check("a2a_rand_adp_t1 digest is independent of the thread count",
          None not in digests.values() and len(set(digests.values())) == 1,
          ", ".join(f"threads={t} {d}" for t, d in digests.items()))

    good, digest = run_workload(binary, "amg_cont_min", **small)
    corrupt = format(int(digest, 16) ^ 1, "016x")
    bad, _ = run_workload(binary, "amg_cont_min", expect_digest=corrupt, **small)
    check("a corrupted reference digest fails the run",
          good["correct"] and not bad["correct"] and bad["failed"] == bad["attempted"] >= 1,
          f"{bad['failed']}/{bad['attempted']} runs failed against {corrupt}")

    for workload in WORKLOADS:
        traced, _ = run_workload(binary, workload, **dict(small, trace=True))
        check(f"{workload} traced run reproduces the untraced digest", traced["correct"],
              f"{traced['failed']}/{traced['attempted']} runs failed")
    return all(checks)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="budget of each process (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1],
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    seconds = run_seconds() if args.seconds is None else args.seconds
    if seconds < 1:
        fail("--seconds must be at least 1")

    binary = build()
    if args.self_test:
        sys.exit(0 if self_test(binary) else 1)

    refs = reference_digests()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    modes = [0, 1] if args.trace is None else [args.trace]
    runs = [(w, t) for w in workloads for t in modes]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in runs:
        expect = refs[workload] if args.seed == DEFAULT_SEED else None
        result, _ = run_workload(binary, workload, args.seed, seconds, trace == 1,
                                 expect_digest=expect)
        print(f"result {workload} trace={trace} {json.dumps(result)}")
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        if len(runs) == 1:
            total["metrics"] = result["metrics"]
    print(json.dumps(total))


if __name__ == "__main__":
    main()
