"""Self-test of the benchmark's output gates: corrupted results count as failed.

    python3 -m pytest benchmarks/test_gates.py -q

Each test runs a short drop-fig2 solve (to t = 10, two steps) through the
same ``workloads.solve`` path the benchmark times, corrupts one thing, and
checks that the solve comes back with a failure, which run.py counts in
``failed`` and so in runs_failed.
"""

import dataclasses
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from lubrisim import State, cli, stability  # noqa: E402

import workloads  # noqa: E402


@pytest.fixture
def short_drop():
    case, s0 = workloads.setup("drop-fig2", 0)
    return dataclasses.replace(case, t_end=10.0), s0


def run(case, s0, out_dir, corrupt=None, reference=None):
    """One gated solve; ``corrupt(out_dir)`` edits the output before the gates."""
    real = cli.cmd_simulate

    def simulate(*args, **kwargs):
        rc = real(*args, **kwargs)
        return rc if corrupt is None else corrupt(str(out_dir), rc)

    if reference is None:
        reference = self_reference(case, s0, out_dir)
    capture = workloads.RunCapture()
    cli.cmd_simulate = simulate
    try:
        return workloads.solve(case, s0, str(out_dir), reference, capture,
                               lambda: 0.0)
    finally:
        cli.cmd_simulate = real
        capture.close()


def self_reference(case, s0, out_dir):
    """The run's own snapshots as reference, so an intact run has error 0."""
    clean = out_dir.parent / "clean"
    cli.cmd_simulate(case.scenario, str(clean), t_end=case.t_end)
    times = workloads.expected_snapshots(case)
    profiles = [workloads.read_profile(str(clean / workloads.csv_name(t)))
                for t in times]
    return (np.array(times), np.array([p[1] for p in profiles]),
            np.array([p[2] for p in profiles]))


def test_intact_run_passes(short_drop, tmp_path):
    outcome = run(*short_drop, tmp_path / "out")
    assert outcome.failures == []
    assert outcome.solution_err == 0.0


def test_shifted_film_mass_fails(short_drop, tmp_path):
    def shift(out_dir, rc):
        path = os.path.join(out_dir, "t10.csv")
        x, eta, gamma = workloads.read_profile(path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,eta,gamma\n")
            for row in zip(x, eta + 1e-6, gamma):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        return rc

    outcome = run(*short_drop, tmp_path / "out", shift)
    assert any("film-mass drift" in f for f in outcome.failures)


def test_missing_snapshot_fails(short_drop, tmp_path):
    def drop_snapshot(out_dir, rc):
        os.remove(os.path.join(out_dir, "t1.csv"))
        return rc

    outcome = run(*short_drop, tmp_path / "out", drop_snapshot)
    assert "t1.csv missing" in outcome.failures


def test_missing_report_fails(short_drop, tmp_path):
    def drop_report(out_dir, rc):
        os.remove(os.path.join(out_dir, "report.txt"))
        return rc

    outcome = run(*short_drop, tmp_path / "out", drop_report)
    assert "report.txt missing" in outcome.failures


def test_nonzero_exit_fails(short_drop, tmp_path):
    outcome = run(*short_drop, tmp_path / "out", lambda out_dir, rc: 3)
    assert "exit code 3" in outcome.failures


def test_wrong_reference_is_measured(short_drop, tmp_path):
    case, s0 = short_drop
    times, eta, gamma = self_reference(case, s0, tmp_path / "ref")
    outcome = run(case, s0, tmp_path / "out",
                  reference=(times, eta, gamma + 1e-3))
    assert outcome.failures == []
    assert outcome.solution_err == pytest.approx(1e-3, rel=1e-6)


@pytest.mark.parametrize("rate_scale, fails", [(1.0, False), (1.05, True)])
def test_slow_mode_rate_gate(rate_scale, fails):
    case, s0 = workloads.setup("slowmode-periodic", 0)
    lam = stability.dispersion(workloads.SLOW_K, workloads.SLOW_DS).lambda_slow
    decay = math.exp(rate_scale * lam * workloads.SLOW_STEPS)
    s_end = State(1.0 + decay * (s0.eta - 1.0), 1.0 + decay * (s0.gamma - 1.0))
    failures, err, _ = workloads.check_slow_mode(case, s0, s_end,
                                                 workloads.SLOW_STEPS)
    assert bool(failures) is fails
    assert err == pytest.approx(rate_scale - 1.0, abs=1e-6)


def test_slow_mode_sign_flip_fails():
    case, s0 = workloads.setup("slowmode-periodic", 0)
    s_end = State(2.0 - s0.eta, 2.0 - s0.gamma)
    failures, err, _ = workloads.check_slow_mode(case, s0, s_end,
                                                 workloads.SLOW_STEPS)
    assert failures and math.isnan(err)
