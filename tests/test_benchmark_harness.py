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

from conftest import record_rhs_shapes

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


def test_traced_probe_count(tracing, tmp_path, monkeypatch):
    # three steps of the fig2 drop (t = 1, 10, 100), each with a new dt: a
    # step's start is stacked over its probes, and its new state, whose
    # next dt the step does not know, is evaluated alone
    sc = cli.preset("fig2")
    shapes = record_rhs_shapes(monkeypatch)
    tracer = tracing.Tracer().install(tracing.FULL)
    try:
        assert cli.cmd_simulate(sc, str(tmp_path), t_end=100.0) == 0
    finally:
        tracer.close()
    metrics = tracing.layer_metrics(tracer.spans(), sc.grid.n_nodes)
    n = sc.grid.n_nodes
    assert shapes == [(timestepper._probe_pattern(n, False).n_probes + 1, n), (n,)] * 3
    assert metrics["timestepper.steps"] == 3
    assert metrics["timestepper.newton_iters"] == 1.0
    assert metrics["timestepper.rhs_calls_per_step"] == 2.0


def test_traced_reuse_run(tracing, tmp_path):
    # fig4 (N = 97) to t = 300: a fresh Jacobian every JAC_MAX_AGE steps,
    # and every rhs call, stacked or single-row, inside a step's span
    sc = cli.preset("fig4")
    tracer = tracing.Tracer().install(tracing.FULL)
    try:
        assert cli.cmd_simulate(sc, str(tmp_path)) == 0
    finally:
        tracer.close()
    metrics = tracing.layer_metrics(tracer.spans(), sc.grid.n_nodes)
    steps = metrics["timestepper.steps"]
    assert steps == 300
    assert metrics["timestepper.rhs_calls_per_step"] == (steps + 1) / steps
    assert metrics["timestepper.newton_iters"] == 1 / timestepper.JAC_MAX_AGE


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
