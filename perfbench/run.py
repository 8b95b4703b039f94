#!/usr/bin/env python3
"""perfbench: the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the benchmark (perfbench/CMakeLists.txt, which builds the subdp library
from this checkout) into .bench_build/perfbench, runs one workload, checks every
result against the sequential DP, prints every metric with its unit, and prints
as its last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list. Artifacts (full metric set, host header,
reconciliations, and the Chrome trace of a traced run) go to .bench_out/.
See perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170
# Compiler and benchmark temporaries stay inside the checkout.
ENV = dict(os.environ, TMPDIR=str(BUILD / "tmp"))


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no subdp sources next to {HERE.name}/ (expected CMakeLists.txt and src/)")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=ENV).returncode != 0:
            fail("build failed: " + " ".join(cmd), 1)


def git_sha():
    if not (ROOT / ".git").exists():
        return ""  # an exported checkout: the artifact records null
    env = dict(ENV, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        fail("--workload is required")

    build()
    if args.self_test:
        sys.exit(subprocess.run([str(BUILD / "perfbench_selftest")],
                                env=ENV).returncode)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    artifact = OUT / f"{stem}.json"
    artifact.unlink(missing_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--artifact", str(artifact),
           "--scratch", str(OUT / "tmp"), "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--trace-json", str(OUT / f"{stem}.trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=ENV, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    if proc.returncode != 0 or not artifact.is_file():
        fail(f"{args.workload} exited with code {proc.returncode}", 1)

    result = json.loads(artifact.read_text())
    header = result["header"]
    print(f"# perfbench {args.workload} seed={args.seed} seconds={seconds:g} "
          f"trace={args.trace} cpu={header['cpu_model']} nproc={header['nproc']} "
          f"compiler={header['compiler']} git={header['git_sha']}")
    print(f"# attempted={result['attempted']} failed={result['failed']} "
          f"oracle_mismatches={result['oracle_mismatches']} "
          f"reconcile_failures={result['reconcile_failures']} "
          f"correct={result['correct']}")
    for name, recon in result["reconcile"].items():
        print(f"# reconcile {name}: {json.dumps(recon)}")
    for name, m in result["metrics"].items():
        value = "null" if m["value"] is None else repr(m["value"])
        print(f"{name} = {value} {m['unit']}")
    print(f"# artifact: {artifact.relative_to(ROOT)}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for declared in wanted:
        m = result["metrics"].get(declared["name"])
        if m is None or not isinstance(m["value"], (int, float)) or \
                not math.isfinite(m["value"]):
            fail(f"{args.workload} did not measure {declared['name']}", 1)
        if m["unit"] != declared["unit"]:
            fail(f"{declared['name']} is in {m['unit']}, BENCHMARK.json says "
                 f"{declared['unit']}", 1)
        metrics[declared["name"]] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
