"""Repeat run.py over seeds and summarise each metric's median and spread.

    python3 benchmarks/collect.py --workload drop-fig2 --seeds 1-10
    python3 benchmarks/collect.py --seeds 1-10 --out results.json

Runs are made one after another from this process, with the run length
from BENCHMARK.json.  For every metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median, next to
the metric's bound from BENCHMARK.json, marked WIDE above a third of it.
With --out, the environment of the first run and every run's metrics are
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


PRINTED = ("solve_s", "kernel_ms")


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command, workload, seed, seconds, trace):
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT, check=True)
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    result = json.loads(lines[-1])
    # Values run.py prints but keeps out of the JSON result (raw wall time).
    result["printed"] = {}
    for line in lines:
        words = line.split()
        if len(words) >= 3 and words[0] == workload and words[1] in PRINTED:
            result["printed"][words[1]] = float(words[2])
    return env, result


def summarise(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("nan")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]],
                        help="default: every workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    report = {"run_seconds": bench["run_seconds"], "trace": args.trace,
              "workloads": {}}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        env = None
        for seed in seed_list(args.seeds):
            run_env, result = run_once(bench["command"], workload, seed,
                                       bench["run_seconds"], args.trace)
            env = env or run_env
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g} {v['unit']}"
                for k, v in result["metrics"].items())
                + f", runs_failed={result['failed'] / result['attempted']:g}"
                f" ({result['failed']}/{result['attempted']})", flush=True)
        stats = {name: summarise([r["metrics"][name]["value"] for r in runs],
                                 bounds[name]) for name in bounds}
        for name in PRINTED:
            values = [r["printed"][name] for r in runs if name in r["printed"]]
            if len(values) == len(runs):
                stats[name] = summarise(values, None)
        for name, st in stats.items():
            note = ""
            if st["bound"] is not None:
                steady = st["spread"] <= st["bound"] / 3
                note = f"  bound {st['bound']}  {'ok' if steady else 'WIDE'}"
            print(f"{workload} {name}: median {st['median']:.6g}  "
                  f"IQR [{st['q1']:.6g}, {st['q3']:.6g}]  "
                  f"spread {st['spread']:.4f}{note}")
        report["workloads"][workload] = {"env": env, "stats": stats, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
