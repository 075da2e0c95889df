"""The benchmark harness in benchmarks/ still reads the solver right.

The harness is imported, not changed: its tracer counts rhs calls and
Jacobians per step, its calibration sampler times a kernel between
``advance`` steps, and its periodic workload hands ``advance`` states
built through the CLI.  Its probe count, the rhs calls under
``jacobian_fd`` minus one, cannot see probes stacked with the state in one
call, so the stacked shape is recorded here instead.
"""

import importlib.util
import pathlib
import sys
import time

import pytest

from lubrisim import cli, timestepper

from conftest import record_attempts, record_rhs_shapes

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


def load(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load("tracing")


@pytest.fixture(scope="module")
def workloads():
    return load("workloads")


def traced_simulate(tracing, scenario, out, **kwargs):
    """cmd_simulate under the full trace: its layer metrics and run summary."""
    results = []
    real = cli.run_simulation

    def capture(*args):
        results.append(real(*args))
        return results[-1]

    cli.run_simulation = capture
    tracer = tracing.Tracer().install(tracing.FULL)
    try:
        assert cli.cmd_simulate(scenario, out, **kwargs) == 0
    finally:
        tracer.close()
        cli.run_simulation = real
    return tracing.layer_metrics(tracer.spans(), scenario.grid.n_nodes), results[0].summary


def test_traced_probe_count(tracing, tmp_path, monkeypatch):
    # the fig2 drop to t = 100: one rhs call at s0, outside every attempt,
    # then every attempt is one advance span with one rhs call at its
    # predictor, stacked over the probes exactly where it refreshes the
    # band, and one more where it lands on a snapshot
    sc = cli.preset("fig2")
    shapes = record_rhs_shapes(monkeypatch)
    recorded = record_attempts(monkeypatch)
    metrics, summary = traced_simulate(tracing, sc, str(tmp_path), t_end=100.0)
    checks = [a["check"] for a in recorded if not a["raised"]]  # took a residual after
    n = sc.grid.n_nodes
    attempts = summary.steps + summary.rejected_steps
    stacked = (timestepper._probe_pattern(n, False).n_probes + 1, n)
    assert shapes[:2] == [(n,), stacked] and sum(checks) >= 3  # t = 1, 10 and 100
    assert shapes.count(stacked) == summary.jacobian_refreshes
    assert shapes.count((n,)) == 1 + attempts - summary.jacobian_refreshes + sum(checks)
    assert metrics["timestepper.steps"] == attempts
    assert metrics["timestepper.rhs_calls_per_step"] == (len(shapes) - 1) / attempts


def test_traced_reuse_run(tracing, tmp_path, monkeypatch):
    # fig4 (N = 97) to t = 300: the band is held across steps, and every
    # rhs call, stacked or single-row, but the one at s0 is inside an
    # attempt's span
    sc = cli.preset("fig4")
    shapes = record_rhs_shapes(monkeypatch)
    recorded = record_attempts(monkeypatch)
    metrics, summary = traced_simulate(tracing, sc, str(tmp_path))
    checks = [a["check"] for a in recorded if not a["raised"]]
    attempts = summary.steps + summary.rejected_steps
    assert summary.failure is None and summary.steps < 150
    assert summary.jacobian_refreshes < 0.25 * attempts
    assert metrics["timestepper.steps"] == attempts
    assert metrics["models.rhs_calls"] == len(shapes) == 1 + attempts + sum(checks)


def test_traced_slow_mode_loop(tracing, workloads, tmp_path, monkeypatch):
    # the benchmark's own advance loop, fully traced, passes its gate and
    # yields every per-layer metric
    case, s0 = workloads.setup("slowmode-periodic", 0)
    shapes = record_rhs_shapes(monkeypatch)
    tracer = tracing.Tracer().install(tracing.FULL)
    try:
        outcome = workloads.solve(case, s0, str(tmp_path), None, None,
                                  time.perf_counter)
    finally:
        tracer.close()
    assert outcome.failures == []
    steps = workloads.SLOW_STEPS
    metrics = tracing.layer_metrics(tracer.spans(), case.scenario.grid.n_nodes)
    assert metrics["timestepper.steps"] == steps
    assert metrics["timestepper.rhs_calls_per_step"] == (steps + 1) / steps
    assert shapes == [(15, 129)] * (steps + 1)  # 14 probes on the ring


@pytest.mark.parametrize("seed", range(21))
def test_slow_mode_seeds_are_exact_twins(workloads, seed):
    case, s0 = workloads.setup("slowmode-periodic", seed)
    sc = case.scenario
    s1, _ = timestepper.advance(s0, sc.step, sc.variant, sc.params, sc.grid)
    assert s1.eta[-1] == s1.eta[0] and s1.gamma[-1] == s1.gamma[0]


def test_calibration_sampler_sees_every_workload_path(workloads, tmp_path):
    # benchmarks/calibration.Sampler times its kernel only inside
    # timestepper.advance: a workload that stopped calling advance through
    # the module would leave solve_norm without samples
    calibration = load("calibration")
    original = timestepper.advance
    sampler = calibration.Sampler()
    try:
        assert timestepper.advance is not original
        assert cli.cmd_simulate(cli.preset("fig2"), str(tmp_path), t_end=100.0) == 0
        assert sampler.samples and sampler.paused > 0.0
        sampler.reset()
        case, state = workloads.setup("slowmode-periodic", 0)
        sc = case.scenario
        for _ in range(2):
            state, _ = timestepper.advance(state, sc.step, sc.variant, sc.params, sc.grid)
        assert sampler.samples and sampler.paused > 0.0
    finally:
        sampler.close()
    assert timestepper.advance is original
