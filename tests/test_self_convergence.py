"""Self-convergence of the full solver: fixed steps, every step's Newton
solve converged, so what remains is the discretisation's own error.

Each gate compares runs refined by halves: the differences between
successive runs fall by 2**p for a method of order p, and p is read off
their ratio (Roache, Verification and Validation in Computational Science
and Engineering, 1998).
"""

import dataclasses

import numpy as np

from lubrisim import StepConfig, run_simulation
from lubrisim.cli import build_initial_state, preset

CONVERGED = dict(newton_iters=10, newton_tol=1e-11)


def final_state(scenario, dt, t_end):
    """The state at t_end, after checking that every step converged."""
    times = tuple(dt * np.arange(1, round(t_end / dt) + 1))
    res = run_simulation(build_initial_state(scenario), t_end, times,
                         StepConfig(dt=dt, **CONVERGED), scenario.variant,
                         scenario.params, scenario.grid)
    assert res.summary.failure is None
    assert len(res.snapshots) == len(times) + 1
    assert max(snap.report.residual_norm_after for snap in res.snapshots) <= 1e-11
    return res.snapshots[-1].state


def orders(states, stride):
    """Observed orders of eta and gamma from successive differences, taken
    on the nodes the runs share (every stride[i]-th node of run i)."""
    diffs = np.array([[np.max(np.abs(getattr(a, f)[::sa] - getattr(b, f)[::sb]))
                       for f in ("eta", "gamma")]
                      for a, b, sa, sb in zip(states, states[1:], stride, stride[1:])])
    return np.log2(diffs[:-1] / diffs[1:])


def test_space_order_is_two():
    # fig4 to t = 300 at dt = 1 on N = 49 / 97 / 193: the order is 2.00
    # for both fields
    fig4 = preset("fig4")
    sizes = (49, 97, 193)
    states = [final_state(dataclasses.replace(
        fig4, grid=dataclasses.replace(fig4.grid, n_nodes=n)), 1.0, 300.0)
        for n in sizes]
    got = orders(states, [(n - 1) // (sizes[0] - 1) for n in sizes])
    np.testing.assert_allclose(got, 2.0, atol=0.1)


def test_time_order_is_one():
    # the fig2 drop to t = 1000 at N = 97, dt = 100 / 50 / 25 / 12.5:
    # backward Euler's first order (1.07 / 0.93 in eta, 1.16 / 1.09 in gamma)
    fig2 = preset("fig2")
    states = [final_state(fig2, dt, 1000.0) for dt in (100.0, 50.0, 25.0, 12.5)]
    got = orders(states, [1] * 4)
    np.testing.assert_allclose(got, 1.0, atol=0.2)
