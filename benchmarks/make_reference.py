"""Generate the stored references behind the ``solution_err`` metric.

    python3 benchmarks/make_reference.py                     # both workloads
    python3 benchmarks/make_reference.py --workload drop-fig2

For every seed variant of drop-fig2 and corrugation-n769 the workload's own
step sequence (dt, shortened to land on each snapshot) is integrated again
with every step split into M backward-Euler substeps, each solved by
Newton iterations until the residual meets a tight tolerance.  This runs twice,
with M and 2M substeps; the 2M run is stored.  First-order time error
makes |u_M - u_2M| an estimate of the stored run's own error, and the
script refuses to write unless that estimate is at most a tenth of the
workload's error against it.  Space is not refined: the reference shares
the workload's grid, so solution_err measures time-stepping and Newton
error only.

Output: reference/<workload>.npz (times_vI, eta_vI, gamma_vI per variant)
and reference/<workload>.json (substeps, tolerances and the halving check).
slowmode-periodic needs no stored data: its reference is the closed-form
lambda_slow from lubrisim.stability.dispersion.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from lubrisim import StepConfig, advance, run_simulation  # noqa: E402

import workloads  # noqa: E402

# Substeps per workload step for the coarser of the two reference runs, and
# the Newton residual tolerance (max-norm).  At N = 769 round-off alone
# leaves a residual of ~2e-9, so the tolerance there is looser.
SETTINGS = {
    "drop-fig2": {"substeps": 32, "newton_tol": 1e-10},
    "corrugation-n769": {"substeps": 8, "newton_tol": 1e-8},
}
NEWTON_ITERS = 12
REQUIRED_RATIO = 0.1


def step_sequence(case) -> list:
    """The (dt, lands_on_snapshot) steps run_simulation takes to the last
    snapshot."""
    sc = case.scenario
    dt = sc.step.dt
    pending = workloads.expected_snapshots(case)[1:]
    tol = 1e-9 * max(1.0, dt)
    steps = []
    t = 0.0
    while pending:
        h = min(dt, pending[0] - t)
        t += h
        landed = abs(t - pending[0]) <= tol
        if landed:
            t = pending.pop(0)
        steps.append((h, landed))
    return steps


def integrate(case, s0, substeps: int, newton_tol: float):
    """Snapshot states (including t = 0) with each workload step subdivided."""
    sc = case.scenario
    state = s0
    out = [s0]
    worst = 0.0
    for h, landed in step_sequence(case):
        cfg = StepConfig(dt=h / substeps, newton_iters=NEWTON_ITERS,
                         newton_tol=newton_tol)
        for _ in range(substeps):
            state, report = advance(state, cfg, sc.variant, sc.params, sc.grid)
            worst = max(worst, report.residual_norm_after)
            if not report.residual_norm_after <= newton_tol:
                raise RuntimeError(
                    f"Newton did not converge: residual "
                    f"{report.residual_norm_after:.3e} > {newton_tol:g}")
        if landed:
            out.append(state)
    return out, worst


def linf(states_a, states_b) -> float:
    return float(max(max(np.max(np.abs(a.eta - b.eta)),
                         np.max(np.abs(a.gamma - b.gamma)))
                     for a, b in zip(states_a, states_b)))


def make(workload: str) -> None:
    settings = SETTINGS[workload]
    arrays = {}
    variants = []
    for v in range(workloads.STORED_VARIANTS[workload]):
        started = time.perf_counter()
        case, s0 = workloads.setup(workload, v)
        sc = case.scenario
        times = workloads.expected_snapshots(case)
        m = settings["substeps"]
        coarse, res_c = integrate(case, s0, m, settings["newton_tol"])
        fine, res_f = integrate(case, s0, 2 * m, settings["newton_tol"])
        run = run_simulation(s0, times[-1], times[1:], sc.step, sc.variant,
                             sc.params, sc.grid)
        work = [snap.state for snap in run.snapshots]
        ref_err = linf(coarse, fine)
        work_err = linf(work, fine)
        record = {
            "variant": v,
            "snapshot_times": times,
            "substeps": [m, 2 * m],
            "stored_substeps": 2 * m,
            "newton_tol": settings["newton_tol"],
            "max_newton_residual": max(res_c, res_f),
            "reference_err_estimate": ref_err,
            "workload_err": work_err,
            "ratio": ref_err / work_err,
            "seconds": round(time.perf_counter() - started, 1),
        }
        print(json.dumps(record), flush=True)
        if not ref_err <= REQUIRED_RATIO * work_err:
            raise SystemExit(
                f"{workload} variant {v}: reference error estimate {ref_err:.3e} "
                f"is not 10x below the workload error {work_err:.3e}")
        arrays[f"times_v{v}"] = np.array(times)
        arrays[f"eta_v{v}"] = np.array([s.eta for s in fine])
        arrays[f"gamma_v{v}"] = np.array([s.gamma for s in fine])
        variants.append(record)
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    np.savez_compressed(workloads.reference_path(workload), **arrays)
    meta_path = os.path.join(workloads.REFERENCE_DIR, f"{workload}.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "variants": variants}, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SETTINGS),
                        action="append", help="default: all")
    args = parser.parse_args(argv)
    for workload in args.workload or sorted(SETTINGS):
        make(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
