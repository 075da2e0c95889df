"""lubrisim benchmark: time-to-solution and accuracy of three solver workloads.

    python3 benchmarks/run.py --workload drop-fig2 --seed 0 --seconds 35 --trace 0

--trace 0 reports the end-to-end metrics with tracing off:
  solve_norm   median over solves of the solve's wall time (first step to
               last output) divided by the mean time of a fixed kernel
               sampled during it (calibration.py); the raw wall median
               solve_s is printed too
  setup_s      median over fresh interpreters of import + scenario + State
  peak_rss_mb  peak resident memory of this process, which runs the solves
  solution_err accuracy of the answer against an independent reference
--trace 1 reports the per-layer metrics from a separate traced run (see
tracing.py), plus the tracing overhead against an untraced pass.

The load is closed loop: solves run one after another in this process until
the next one would end past --seconds (at least one).  Every solve is gated
(see workloads.py); a failed gate counts the solve in "failed", and
runs_failed = failed / attempted.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The lines
before it record the environment and print every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 7
# Printed for reference but not part of the JSON result: raw wall time
# depends on the host's load (see calibration.py).
UNREPORTED = {"solve_s": "s", "kernel_ms": "ms"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_benchmark() -> dict:
    """BENCHMARK.json: workloads, run length, and each metric's unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def environment(workload: str, seed: int, variant: int) -> dict:
    import numpy
    import scipy

    def blas(config):
        try:
            dep = config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (KeyError, TypeError):
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "variant": variant,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def os_threads() -> int:
    """Operating-system threads of this process (BLAS pools included)."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


def measure_setup(workload: str, seed: int) -> list:
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, probe, workload, str(seed)],
                              capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def closed_loop(workloads, case, s0, reference, capture, out_root, seconds,
                sampler=None):
    """Solve back to back until the next solve would end past ``seconds``.

    With a calibration ``sampler``, each solve's time excludes the kernel
    samples taken during it, and ``info["kernel_s"]`` is their mean.
    """
    outcomes = []
    started = time.perf_counter()
    while True:
        out_dir = os.path.join(out_root, f"solve{len(outcomes)}")
        if sampler is not None:
            sampler.reset()
        outcome = workloads.solve(case, s0, out_dir, reference, capture,
                                  time.perf_counter)
        if sampler is not None and sampler.samples:
            outcome.solve_s -= sampler.paused
            outcome.info["kernel_s"] = statistics.fmean(sampler.samples)
        outcomes.append(outcome)
        shutil.rmtree(out_dir, ignore_errors=True)
        typical = statistics.median(o.solve_s for o in outcomes)
        if time.perf_counter() - started + typical > seconds:
            return outcomes


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 is the acceptance scenario")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="measurement window of the closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One process, one thread: the BLAS pools stay at one thread unless the
    # caller says otherwise (the values in effect are recorded in env).
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    if not os.path.isfile(os.path.join(SRC, "lubrisim", "__init__.py")):
        print(f"error: no lubrisim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import lubrisim
    if not os.path.abspath(lubrisim.__file__).startswith(SRC + os.sep):
        print(f"error: lubrisim imported from {lubrisim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import logging
    logging.getLogger("lubrisim").setLevel(logging.ERROR)
    import workloads

    case, s0 = workloads.setup(args.workload, args.seed)
    reference = workloads.load_reference(case)
    env = environment(args.workload, args.seed, case.variant)
    out_root = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    capture = workloads.RunCapture()
    try:
        if args.trace:
            metrics, outcomes = traced_run(workloads, case, s0, reference,
                                           capture, out_root, args)
        else:
            metrics, outcomes = untraced_run(workloads, case, s0, reference,
                                             capture, out_root, args)
    finally:
        capture.close()
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_root))
        except OSError:
            pass
    env["os_threads"] = os_threads()

    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.failures)
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    print("env " + json.dumps(env, sort_keys=True))
    for o in outcomes:
        for reason in o.failures:
            print(f"FAILED {args.workload}: {reason}")
    if args.workload == "drop-fig2":
        info = outcomes[-1].info
        if "surfactant_drift_final" in info:
            print(f"{args.workload} criterion-4 surfactant drift (informational, "
                  f"bound 1e-5): final {info['surfactant_drift_final']:.3e}, "
                  f"max {info['surfactant_drift_max']:.3e}")
    if args.workload == "slowmode-periodic":
        info = outcomes[-1].info
        if "rate" in info:
            print(f"{args.workload} slow-mode rate {info['rate']:.9e} against "
                  f"lambda_slow {-info['lambda_slow']:.9e}")
    print(f"{args.workload} solve times (s): "
          + " ".join(f"{o.solve_s:.4f}" for o in outcomes))
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value} {units.get(name) or UNREPORTED[name]}")
    metrics = {name: metrics[name] for name in units}
    print(f"{args.workload} runs_failed {failed / attempted:.6g} 1 "
          f"({failed} of {attempted} solves)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def untraced_run(workloads, case, s0, reference, capture, out_root, args):
    import calibration

    setup = measure_setup(args.workload, args.seed)
    sampler = calibration.Sampler()
    try:
        outcomes = closed_loop(workloads, case, s0, reference, capture,
                               out_root, args.seconds, sampler)
    finally:
        sampler.close()
    errors = [o.solution_err for o in outcomes if math.isfinite(o.solution_err)]
    norm = [o.solve_s / o.info["kernel_s"] for o in outcomes
            if "kernel_s" in o.info]
    metrics = {
        "solve_norm": statistics.median(norm) if norm else None,
        "solve_s": statistics.median(o.solve_s for o in outcomes),
        "kernel_ms": statistics.median(o.info.get("kernel_s", math.nan)
                                       for o in outcomes) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solution_err": max(errors) if errors else None,
    }
    return metrics, outcomes


def traced_run(workloads, case, s0, reference, capture, out_root, args):
    """Per-layer metrics: an untraced pass, then one traced solve.

    The first pass runs closed loop for half the window and wraps only
    ``advance`` (one span per step), for the step times and the untraced
    solve time.  The traced solve wraps every layer;
    its spans are written to .bench_trace/<workload>.npz.
    """
    import tracing

    config = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        workloads.setup(args.workload, args.seed)
        config.append(time.perf_counter() - started)

    light = tracing.Tracer().install(tracing.STEPS_ONLY)
    try:
        plain = closed_loop(workloads, case, s0, reference, capture,
                            os.path.join(out_root, "plain"), args.seconds / 2)
    finally:
        light.close()
    full = tracing.Tracer().install(tracing.FULL)
    try:
        traced = workloads.solve(case, s0, os.path.join(out_root, "traced"),
                                 reference, capture, time.perf_counter)
    finally:
        full.close()
    spans = full.spans()
    trace_path = os.path.join(ROOT, ".bench_trace", f"{args.workload}.npz")
    spans.save(trace_path)
    print(f"{args.workload} trace of {spans.name.size} spans written to "
          f"{os.path.relpath(trace_path, ROOT)}")

    steps = light.spans()
    step_seconds = steps.dur[steps.named("timestepper.advance")]
    plain_s = statistics.median(o.solve_s for o in plain)
    metrics = tracing.step_metrics(step_seconds, len(step_seconds) // len(plain))
    metrics.update(tracing.layer_metrics(spans, case.scenario.grid.n_nodes))
    metrics["cli.output_bytes"] = traced.info.get("output_bytes", 0)
    metrics["cli.config_ms"] = statistics.median(config) * 1e3
    metrics["trace.overhead_share"] = (traced.solve_s - plain_s) / plain_s
    return metrics, plain + [traced]


if __name__ == "__main__":
    sys.exit(main())
