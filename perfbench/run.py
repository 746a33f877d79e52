#!/usr/bin/env python3
"""srcsim benchmark harness.

Builds the `perfbench` package (perfbench/Cargo.toml) and runs one
workload on one executor thread:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Every simulated output is hashed per cell by the binary; cells whose
seed has a recorded reference in perfbench/reference.json must match it.

Two more modes serve whoever maintains the benchmark:

    python3 perfbench/run.py --steadiness [--runs 10] [--first-seed 1] [--workloads a,b]
        Repeats each workload with a new seed per run (workloads
        interleaved) and prints, per end-to-end metric, the spread
        between quartiles as a share of the median next to the bound.

    python3 perfbench/run.py --record-seeds 1,2,3
        Runs every workload once per seed and stores its cell hashes in
        perfbench/reference.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
REFERENCE = BENCH / "reference.json"
SPANS_DIR = BENCH / "out"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"reading BENCHMARK.json: {e}")


def build():
    """Build the benchmark binary; return its path."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed with exit code {r.returncode}")
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    return target / "release" / "perfbench"


def child_env():
    env = dict(os.environ)
    # One executor thread: on a host with few shared cores, extra
    # threads measure the scheduler, not the simulator.
    env["SRCSIM_THREADS"] = "1"
    env["RAYON_NUM_THREADS"] = "1"
    for var in ("SRCSIM_CHECKPOINT", "SRCSIM_TRACE"):
        env.pop(var, None)
    return env


def run_binary(binary, workload, seed, seconds, trace):
    """Run one workload; return (echoed stdout lines, parsed result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        cmd += ["--spans", str(SPANS_DIR / f"spans-{workload}-{seed}.jsonl")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{workload}: {e}")
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail(f"{workload} exited with code {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload}: last line is not JSON: {lines[-1][:200]}")
    return lines[:-1], result


def check_reference(workload, seed, cells):
    """Count cells that failed their own checks or differ from the
    recorded reference for this seed; print what was checked."""
    failed = sum(1 for _, _, ok in cells if not ok)
    try:
        reference = json.loads(REFERENCE.read_text())
    except (OSError, ValueError) as e:
        fail(f"reading {REFERENCE.name}: {e}")
    recorded = reference.get(workload, {}).get(str(seed))
    if recorded is None:
        print(f"reference: none recorded for {workload} seed {seed}; "
              "checked invariants and pass-to-pass repeatability only")
        return failed
    seen = set()
    mismatched = 0
    for name, digest, ok in cells:
        if name in recorded:
            seen.add(name)
            if digest != recorded[name] and ok:
                mismatched += 1
                print(f"reference: {name} hash {digest} != recorded {recorded[name]}")
    missing = len(set(recorded) - seen)
    print(f"reference: {len(seen)} recorded cells compared, {mismatched} differ, "
          f"{missing} missing")
    return failed + mismatched + missing


def one_run(args):
    bench = load_benchmark()
    names = {w["name"] for w in bench["workloads"]}
    if args.workload not in names:
        fail(f"unknown workload {args.workload}; BENCHMARK.json has {sorted(names)}")
    binary = build()
    lines, result = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    cells = result["cells"]
    failed = check_reference(args.workload, args.seed, cells)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            fail(f"metric {m['name']} missing from the {args.workload} run")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = got
    print(json.dumps({"correct": failed == 0, "attempted": len(cells),
                      "failed": failed, "metrics": metrics}))


def self_invoke(workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        fail(f"{workload} seed {seed} exited with code {r.returncode}")
    return r.stdout.rstrip("\n").split("\n")


def steadiness(args):
    bench = load_benchmark()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    values = {w: {m["name"]: [] for m in bench["end_to_end"]} for w in workloads}
    failures = {w: [0, 0] for w in workloads}
    start = time.time()
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in workloads:
            result = json.loads(self_invoke(w, seed, seconds)[-1])
            failures[w][0] += result["failed"]
            failures[w][1] += result["attempted"]
            for name, v in result["metrics"].items():
                values[w][name].append(v["value"])
            summary = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"run {i + 1}/{args.runs} {w} seed={seed} correct={result['correct']} {summary}",
                  flush=True)
    print(f"\nsteadiness: {args.runs} runs per workload, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, run_seconds {seconds}, "
          f"{time.time() - start:.0f} s in all")
    print(f"{'workload':<14} {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6} {'bound/3':>8}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            xs = values[w][m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            if spread < m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
            print(f"{w:<14} {m['name']:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {m['bound']:>6} {m['bound'] / 3:>8.4f}  {verdict}")
        f, a = failures[w]
        print(f"{w:<14} fail_frac = {f} failed / {a} cells attempted")


def record(args):
    seeds = [int(s) for s in args.record_seeds.split(",")]
    bench = load_benchmark()
    try:
        ref = json.loads(REFERENCE.read_text())
    except (OSError, ValueError):
        ref = {}
    binary = build()
    for w in (w["name"] for w in bench["workloads"]):
        for seed in seeds:
            # Zero seconds: exactly one pass, the cells the timed runs repeat.
            _, result = run_binary(binary, w, seed, 0, 0)
            bad = [name for name, _, ok in result["cells"] if not ok]
            if bad:
                fail(f"{w} seed {seed}: cells failed their checks: {bad}")
            ref.setdefault(w, {})[str(seed)] = {name: d for name, d, _ in result["cells"]}
            print(f"recorded {w} seed {seed}: {len(result['cells'])} cells", flush=True)
            REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads")
    p.add_argument("--record-seeds")
    args = p.parse_args()
    if args.steadiness:
        steadiness(args)
    elif args.record_seeds:
        record(args)
    elif args.workload and args.seconds is not None:
        one_run(args)
    else:
        p.error("give --workload and --seconds, --steadiness, or --record-seeds")


if __name__ == "__main__":
    main()
