"""The benchmark harness in benchmarks/ still reads the solver right.

The harness is imported, not changed: its tracer counts Jacobian probes as
the rhs calls under ``jacobian_fd`` minus one, and its periodic workload
hands ``advance`` states built through the CLI.
"""

import importlib.util
import pathlib
import sys

import pytest

from lubrisim import cli, timestepper

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


def test_traced_probe_count(tracing, tmp_path):
    # three steps of the fig2 drop (t = 1, 10, 100): every jacobian_fd makes
    # its base and its batch call, so each probe covers all 2N columns
    sc = cli.preset("fig2")
    tracer = tracing.Tracer().install(tracing.FULL)
    try:
        assert cli.cmd_simulate(sc, str(tmp_path), t_end=100.0) == 0
    finally:
        tracer.close()
    metrics = tracing.layer_metrics(tracer.spans(), sc.grid.n_nodes)
    assert metrics["timestepper.steps"] == 3
    assert metrics["timestepper.columns_per_rhs"] == 2 * sc.grid.n_nodes
    assert metrics["timestepper.rhs_calls_per_step"] == 3.0  # one a cache hit


@pytest.mark.parametrize("seed", range(21))
def test_slow_mode_seeds_are_exact_twins(workloads, seed):
    case, s0 = workloads.setup("slowmode-periodic", seed)
    sc = case.scenario
    s1, _ = timestepper.advance(s0, sc.step, sc.variant, sc.params, sc.grid)
    assert s1.eta[-1] == s1.eta[0] and s1.gamma[-1] == s1.gamma[0]
