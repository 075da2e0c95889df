"""Self-convergence of the full solver.

The fixed-step gates march backward Euler (``advance``) with every step's
Newton solve converged, so what remains is the discretisation's own error.
Each compares runs refined by halves: the differences between successive
runs fall by 2**p for a method of order p, and p is read off their ratio
(Roache, Verification and Validation in Computational Science and
Engineering, 1998).  The error-controlled ``run_simulation`` is gated on
its tolerance instead: its error falls with ``timestepper.RTOL``.
"""

import dataclasses

import numpy as np

from lubrisim import StepConfig, advance, run_simulation, timestepper
from lubrisim.cli import build_initial_state, preset

CONVERGED = dict(newton_iters=10, newton_tol=1e-11)


def final_state(scenario, dt, t_end):
    """The state at t_end by backward-Euler steps of dt, after checking that
    every step converged."""
    state = build_initial_state(scenario)
    cfg = StepConfig(dt=dt, **CONVERGED)
    worst = 0.0
    for _ in range(round(t_end / dt)):
        state, report = advance(state, cfg, scenario.variant, scenario.params,
                                scenario.grid)
        worst = max(worst, report.residual_norm_after)
    assert worst <= 1e-11, f"N = {scenario.grid.n_nodes}, dt = {dt}: residual {worst:.3g}"
    return state


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


def test_run_error_falls_with_rtol(monkeypatch):
    # the fig2 drop to t = 100 (snapshots 1, 10, 100) against a run at
    # RTOL = 1e-9: the error falls at least 2.5 times per decade of RTOL
    # (2.81e-3 / 1.58e-4 / 4.98e-5 at RTOL = 1e-4 / 1e-5 / 1e-6)
    fig2 = preset("fig2")
    s0 = build_initial_state(fig2)

    def snapshots(rtol):
        monkeypatch.setattr(timestepper, "RTOL", rtol)
        res = run_simulation(s0, 100.0, (1.0, 10.0, 100.0), fig2.step, fig2.variant,
                             fig2.params, fig2.grid)
        assert res.summary.failure is None
        return [snap.state for snap in res.snapshots]

    ref = snapshots(1e-9)
    errors = [max(max(np.max(np.abs(a.eta - b.eta)), np.max(np.abs(a.gamma - b.gamma)))
                  for a, b in zip(snapshots(rtol), ref, strict=True))
              for rtol in (1e-4, 1e-5, 1e-6)]
    assert errors[0] < 5e-3
    assert errors[0] >= 2.5 * errors[1] and errors[1] >= 2.5 * errors[2], errors
