"""The three benchmark workloads: scenarios, solves and output gates.

Every workload reaches the solver through the public API only:

  drop-fig2          lubrisim.cli.cmd_simulate on the fig2 preset to t = 1e5
  corrugation-n769   lubrisim.cli.cmd_simulate on fig4 refined to N = 769
  slowmode-periodic  lubrisim.timestepper.advance, 50 steps (criterion 3)

Module attributes are looked up at call time (``cli.cmd_simulate``,
``timestepper.advance``) so that the tracer in ``tracing.py`` can wrap them.

Seeds.  Seed 0 reproduces the acceptance scenario of each workload.  Other
seeds pick a variant whose discrete solution differs but whose solver work
and error size do not: the drop is moved by a whole number of grid nodes,
the corrugation changes sign, and the periodic slow mode takes a random
phase and amplitude.  The stored references in ``reference/`` cover every
drop and corrugation variant; the slow mode's reference is closed form.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from lubrisim import cli, stability, timestepper

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

FILM_DRIFT_GATE = 1e-10
SLOW_RATE_GATE = 0.02

DROP_SHIFTS = (0, 4, -4, 8)       # drop centre offset in grid nodes, per variant
CORRUGATION_SIGNS = (1.0, -1.0)   # corrugation amplitude sign, per variant

SLOW_K = 0.2
SLOW_DS = 1e-4
SLOW_EPS = 1e-6
SLOW_STEPS = 50


@dataclass(frozen=True)
class Case:
    """One workload instance: the scenario plus what its solve needs."""

    workload: str
    variant: int
    scenario: cli.Scenario
    t_end: float | None = None   # cmd_simulate t_end; None for the slow mode
    phase: float = 0.0           # slow mode only


@dataclass
class Outcome:
    """Result of one closed-loop solve."""

    solve_s: float
    solution_err: float
    failures: list
    info: dict


# Variants with a stored reference; the slow mode's variants need none.
STORED_VARIANTS = {"drop-fig2": len(DROP_SHIFTS),
                   "corrugation-n769": len(CORRUGATION_SIGNS)}


def build_case(workload: str, seed: int) -> Case:
    """Scenario and variant for a workload seed, built through lubrisim.cli."""
    variant = seed % STORED_VARIANTS.get(workload, 1)
    if workload == "drop-fig2":
        sc = cli.preset("fig2")
        centre = sc.grid.length / 2.0 + DROP_SHIFTS[variant] * sc.grid.dx
        sc = dataclasses.replace(
            sc, initial=dataclasses.replace(sc.initial, drop_center=centre))
        return Case(workload, variant, sc, t_end=1e5)
    if workload == "corrugation-n769":
        sc = cli.preset("fig4")
        sc = dataclasses.replace(
            sc,
            grid=dataclasses.replace(sc.grid, n_nodes=769),
            initial=dataclasses.replace(
                sc.initial,
                corrugation_amplitude=CORRUGATION_SIGNS[variant]
                * sc.initial.corrugation_amplitude))
        return Case(workload, variant, sc, t_end=None)
    if workload == "slowmode-periodic":
        if seed == 0:
            phase, eps = 0.0, SLOW_EPS
        else:
            rng = np.random.default_rng(seed)
            phase = float(rng.uniform(0.0, 2.0 * math.pi))
            eps = SLOW_EPS * float(rng.uniform(0.5, 2.0))
        n = 129
        length = 2.0 * math.pi / SLOW_K
        x = np.linspace(0.0, length, n)
        mode = np.cos(SLOW_K * x + phase)
        ratio = stability.dispersion(SLOW_K, SLOW_DS).amp_ratio_slow
        sc = cli.scenario_from_dict({
            "name": "slowmode-periodic",
            "grid": {"n_nodes": n, "length": length, "boundary": "periodic"},
            "initial": {"kind": "custom",
                        "eta": (1.0 + eps * mode).tolist(),
                        "gamma": (1.0 + eps * ratio * mode).tolist()},
            "params": {"bond": 0.0, "hamaker": 0.0, "inv_peclet": SLOW_DS,
                       "tension_slope": 1.0},
            "step": {"dt": 1.0},
            "snapshot_times": [],
        }, source="slowmode-periodic")
        return Case(workload, variant, sc, phase=phase)
    raise ValueError(f"unknown workload {workload!r}")


def setup(workload: str, seed: int):
    """What a user pays before the first step: the scenario and initial State."""
    case = build_case(workload, seed)
    return case, cli.build_initial_state(case.scenario)


# --- reference data -----------------------------------------------------------

def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.npz")


def load_reference(case: Case):
    """(times, eta, gamma) of the stored reference for this case, or None."""
    if case.workload == "slowmode-periodic":
        return None
    with np.load(reference_path(case.workload)) as data:
        v = case.variant
        return (data[f"times_v{v}"], data[f"eta_v{v}"], data[f"gamma_v{v}"])


# --- output checks -------------------------------------------------------------

def trapezoid(values: np.ndarray, dx: float) -> float:
    return float(dx * (values.sum() - 0.5 * (values[0] + values[-1])))


def csv_name(t: float) -> str:
    return f"t{t:g}.csv"


def expected_snapshots(case: Case) -> list:
    sc = case.scenario
    end = case.t_end if case.t_end is not None else max(sc.snapshot_times)
    return [0.0] + [t for t in sc.snapshot_times if 0.0 < t <= end]


def read_profile(path: str):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2]


def check_cli_output(case: Case, out_dir: str, rc: int, summary, reference):
    """Gate a cmd_simulate run; returns (failures, solution_err, info).

    Failures: a non-zero exit code, a missing snapshot CSV or report.txt, a
    recorded solver failure, or a film-mass drift of 1e-10 or more.  The
    drift is measured here from the CSVs (trapezoid rule, independent of
    the program's own integrator) and also taken from the run summary,
    which covers every step including the unwritten final state.
    """
    failures = []
    if rc != 0:
        failures.append(f"exit code {rc}")
    if not os.path.isfile(os.path.join(out_dir, "report.txt")):
        failures.append("report.txt missing")
    profiles = {}
    for t in expected_snapshots(case):
        path = os.path.join(out_dir, csv_name(t))
        if not os.path.isfile(path):
            failures.append(f"{csv_name(t)} missing")
            continue
        profiles[t] = read_profile(path)
    if summary is None:
        failures.append("no run summary")
    elif summary.failure:
        failures.append(f"solver failure: {summary.failure}")

    drift = 0.0 if summary is None else float(summary.max_film_mass_drift)
    if 0.0 in profiles:
        x, eta0, _ = profiles[0.0]
        dx = float(x[1] - x[0])
        mass0 = trapezoid(eta0, dx)
        for x, eta, _ in profiles.values():
            drift = max(drift, abs(trapezoid(eta, dx) - mass0) / abs(mass0))
    if not drift < FILM_DRIFT_GATE:
        failures.append(f"film-mass drift {drift:.3e} >= {FILM_DRIFT_GATE:g}")

    err = math.nan
    if reference is not None:
        times, eta_ref, gamma_ref = reference
        errs = []
        for i, t in enumerate(times):
            if float(t) not in profiles:
                continue
            _, eta, gamma = profiles[float(t)]
            errs.append(max(np.max(np.abs(eta - eta_ref[i])),
                            np.max(np.abs(gamma - gamma_ref[i]))))
        if len(errs) == len(times):
            err = float(max(errs))
    if not math.isfinite(err):
        failures.append("solution error not measurable")

    info = {"film_drift_max": drift}
    if summary is not None:
        info["surfactant_drift_final"] = float(summary.final_surfactant_mass_drift)
        info["surfactant_drift_max"] = float(summary.max_surfactant_mass_drift)
    return failures, err, info


def slow_amplitude(case: Case, eta: np.ndarray, gamma: np.ndarray) -> float:
    """Slow-eigenvector amplitude of the cos(kx + phase) content of a state.

    The discrete projection uses trapezoid weights, which on the periodic
    grid (duplicated endpoint) are exact for a whole number of periods.
    Left eigenvector: the eigenvector matrix [[1, 1], [r_slow, r_fast]] of
    the closed-form mode shapes, inverted.
    """
    grid = case.scenario.grid
    w = np.full(grid.n_nodes, grid.dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    mode = np.cos(SLOW_K * grid.x + case.phase)
    norm = w @ (mode * mode)
    a = (w @ ((eta - 1.0) * mode)) / norm
    b = (w @ ((gamma - 1.0) * mode)) / norm
    d = stability.dispersion(SLOW_K, SLOW_DS)
    return (d.amp_ratio_fast * a - b) / (d.amp_ratio_fast - d.amp_ratio_slow)


def check_slow_mode(case: Case, s0, s_end, steps: int):
    """Gate the periodic run: decay rate within 2% of closed-form lambda_slow."""
    dt = case.scenario.step.dt
    lam = stability.dispersion(SLOW_K, SLOW_DS).lambda_slow
    a0 = slow_amplitude(case, s0.eta, s0.gamma)
    a1 = slow_amplitude(case, s_end.eta, s_end.gamma)
    if not a1 / a0 > 0.0:
        return [f"slow-mode amplitude ratio {a1 / a0:.3e} is not positive"], \
            math.nan, {}
    rate = -math.log(a1 / a0) / (steps * dt)
    err = abs(rate + lam) / abs(lam)
    failures = []
    if not err <= SLOW_RATE_GATE:
        failures.append(f"slow-mode rate error {err:.3e} > {SLOW_RATE_GATE:g}")
    return failures, err, {"rate": rate, "lambda_slow": lam}


# --- one closed-loop solve -------------------------------------------------------

class RunCapture:
    """Keeps the SimulationResult that cmd_simulate discards.

    Wraps ``lubrisim.cli.run_simulation`` for the lifetime of the object;
    one extra Python call per solve.
    """

    def __init__(self):
        self.result = None
        self._inner = cli.run_simulation

        def capture(*args, **kwargs):
            self.result = self._inner(*args, **kwargs)
            return self.result

        cli.run_simulation = capture

    def close(self):
        cli.run_simulation = self._inner


def solve(case: Case, s0, out_dir: str, reference, capture: RunCapture,
          clock) -> Outcome:
    """Run the workload once from the initial State; time it and gate it."""
    if case.workload == "slowmode-periodic":
        sc = case.scenario
        started = clock()
        state = s0
        try:
            for _ in range(SLOW_STEPS):
                state, _ = timestepper.advance(state, sc.step, sc.variant,
                                               sc.params, sc.grid)
        except (ValueError, np.linalg.LinAlgError) as exc:
            return Outcome(clock() - started, math.nan,
                           [f"{type(exc).__name__}: {exc}"], {})
        elapsed = clock() - started
        failures, err, info = check_slow_mode(case, s0, state, SLOW_STEPS)
        return Outcome(elapsed, err, failures, info)

    capture.result = None
    started = clock()
    rc = cli.cmd_simulate(case.scenario, out_dir, t_end=case.t_end)
    elapsed = clock() - started
    summary = capture.result.summary if capture.result is not None else None
    failures, err, info = check_cli_output(case, out_dir, rc, summary, reference)
    info["output_bytes"] = sum(
        os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
    return Outcome(elapsed, err, failures, info)
