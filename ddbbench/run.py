#!/usr/bin/env python3
"""Benchmark runner for ``ddb``: see README.md in this directory.

    python3 ddbbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
        One run from the repository root. Builds ``ddb`` (and, with
        --trace 1, the in-process probe), replays the workload's fixed
        op sequence, checks every answer, prints a report and, as the last
        line, one JSON object: {correct, attempted, failed, metrics}. With
        --trace 0 the metrics are the end-to-end ones, with --trace 1 the
        per-layer ones. Exits 1 on any wrong answer.

    ... --steadiness <k>
        Runs the workload k times (seeds n, n+1, ...), prints each metric's
        median, quartiles and spread against its bound, and exits 1 if a
        count differs between runs or an end-to-end spread exceeds its bound.

    ... --save <file> / --baseline <file>
        Writes the run's metrics as {name: {value, unit}}, or compares them
        with a stored file: counts must match exactly, end-to-end times must
        be within the bounds in BENCHMARK.json. Exits 1 on a mismatch.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from stats import spread  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


class Context:
    def __init__(self, seed, seconds, ddb, probe, work):
        self.seed, self.seconds = seed, seconds
        self.ddb, self.probe, self.work = ddb, probe, work


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(with_probe):
    """Builds ``ddb`` (and the probe) in release mode; returns their paths."""
    for needed in ("Cargo.toml", os.path.join("src", "bin", "ddb.rs")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise SystemExit(f"run.py: {needed} is missing; run from a full checkout")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or "target")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifests = [(os.path.join(ROOT, "Cargo.toml"), ["--bin", "ddb"])]
    if with_probe:
        manifests.append((os.path.join(BENCH_DIR, "probe", "Cargo.toml"), []))
    for manifest, extra in manifests:
        subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                        "--manifest-path", manifest] + extra,
                       cwd=ROOT, env=env, check=True, stdout=sys.stderr)
    release = os.path.join(target, "release")
    return os.path.join(release, "ddb"), os.path.join(release, "ddbbench-probe"), target


def run_once(workload, seed, seconds, trace, paths):
    """One run: returns (run, end-to-end metrics, per-layer metrics or None)."""
    ddb, probe, target = paths
    work = os.path.join(target, "ddbbench-work", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = Context(seed, seconds, ddb, probe, work)
    run = workloads.WORKLOADS[workload](ctx)
    layers = workloads.per_layer(ctx, run) if trace else None
    return run, run.end_to_end(), layers


def result_line(run, metrics):
    return json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    })


def print_metrics(title, metrics):
    print(title)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def compare(fresh, stored, bounds):
    """Mismatches between two {name: {value, unit}} maps: counts must be
    equal, bounded metrics within their bound."""
    problems = []
    for name, old in stored.items():
        new = fresh.get(name)
        if new is None:
            problems.append(f"{name}: missing from the fresh run")
        elif new["unit"] != old["unit"]:
            problems.append(f"{name}: unit {new['unit']} != stored {old['unit']}")
        elif old["unit"] == "count":
            if abs(new["value"] - old["value"]) > 1e-9 * max(1.0, abs(old["value"])):
                problems.append(f"{name}: count {new['value']} != stored {old['value']}")
        elif name in bounds:
            better, bound = bounds[name]
            worse = (old["value"] - new["value"] if better == "higher"
                     else new["value"] - old["value"])
            if worse > bound * old["value"]:
                problems.append(f"{name}: {new['value']:.6g} vs stored {old['value']:.6g} "
                                f"is worse by more than {bound:.0%}")
    return problems


def steadiness(args, spec, paths):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for k in range(args.steadiness):
        run, e2e, layers = run_once(args.workload, args.seed + k, args.seconds, True, paths)
        print(f"run {k + 1}/{args.steadiness} seed {args.seed + k}: "
              f"{run.attempted} ops, {len(run.failures)} failed", flush=True)
        if run.failures:
            print("\n".join(run.report()))
            return 1
        runs.append({**e2e, **layers})
    status = 0
    print(f"{'metric':34} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} bound")
    for name, first in runs[0].items():
        values = [r[name]["value"] for r in runs]
        if first["unit"] == "count":
            same = all(v == values[0] for v in values)
            print(f"{name:34} {'count':>6} {values[0]:12.6g} {'':>12} {'':>12} "
                  f"{'exact' if same else 'DIFFERS':>8}")
            status |= 0 if same else 1
            continue
        q1, q2, q3 = statistics.quantiles(values, n=4)
        s = spread(values)
        bound = bounds.get(name)
        note = "" if bound is None else f"{bound:.2f}" + ("" if s <= bound or name == "setup_s" else "  EXCEEDED")
        if bound is not None and s > bound and name != "setup_s":
            status = 1
        print(f"{name:34} {first['unit']:>6} {q2:12.6g} {q1:12.6g} {q3:12.6g} {s:8.3f} {note}")
    return status


def main():
    parser = argparse.ArgumentParser(description="ddb benchmark runner (see ddbbench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="K")
    parser.add_argument("--save", metavar="FILE")
    parser.add_argument("--baseline", metavar="FILE")
    args = parser.parse_args()

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    want_layers = bool(args.trace or args.steadiness or args.save or args.baseline)
    paths = build(with_probe=want_layers)
    if args.steadiness:
        return steadiness(args, spec, paths)

    run, e2e, layers = run_once(args.workload, args.seed, args.seconds, want_layers, paths)
    print("\n".join(run.report()))
    if layers is not None:
        print_metrics("per-layer:", layers)
    status = 1 if run.failures else 0
    everything = {**e2e, **(layers or {})}
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "metrics": everything}, f, indent=1, sort_keys=True)
            f.write("\n")
    if args.baseline:
        with open(args.baseline) as f:
            stored = json.load(f)
        bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
        problems = compare(everything, stored["metrics"], bounds)
        print(f"baseline {args.baseline}: {len(problems)} mismatch(es)")
        for p in problems:
            print(f"  {p}")
        status |= 1 if problems else 0
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(result_line(run, {m["name"]: everything[m["name"]] for m in wanted}))
    return status


if __name__ == "__main__":
    sys.exit(main())
