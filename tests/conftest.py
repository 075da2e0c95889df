import glob
import math
import os

import numpy as np
import pytest

from lubrisim import BoundaryKind, Grid, State, timestepper


def smooth_state(grid: Grid, seed: int = 0, eta_amp: float = 0.15,
                 gamma_amp: float = 0.3, n_modes: int = 4) -> State:
    """Random smooth state compatible with the grid's boundary kind.

    No-flux grids get cosine modes (even extension exact at the walls);
    periodic grids get full Fourier modes of the fundamental period.
    """
    rng = np.random.default_rng(seed)
    x = grid.x
    L = grid.length
    eta = np.ones(grid.n_nodes)
    gamma = np.ones(grid.n_nodes)
    for m in range(1, n_modes + 1):
        ae, ag = rng.uniform(-1, 1, 2) / m
        if grid.boundary is BoundaryKind.NO_FLUX_SYMMETRIC:
            eta = eta + eta_amp * ae * np.cos(m * np.pi * x / L)
            gamma = gamma + gamma_amp * ag * np.cos(m * np.pi * x / L)
        else:
            pe, pg = rng.uniform(0, 2 * np.pi, 2)
            eta = eta + eta_amp * ae * np.cos(2 * np.pi * m * x / L + pe)
            gamma = gamma + gamma_amp * ag * np.cos(2 * np.pi * m * x / L + pg)
    if grid.boundary is BoundaryKind.PERIODIC:
        eta[-1] = eta[0]
        gamma[-1] = gamma[0]
    return State(eta, gamma)


def record_rhs_shapes(monkeypatch) -> list:
    """The field shape of every rhs call the timestepper makes, in order.
    Patch before installing a tracer, whose close restores this recorder."""
    shapes = []
    real = timestepper.rhs

    def recording_rhs(variant, state, params, grid):
        shapes.append(state.eta.shape)
        return real(variant, state, params, grid)

    monkeypatch.setattr(timestepper, "rhs", recording_rhs)
    return shapes


def record_attempts(monkeypatch) -> list:
    """One dict per step attempt run_simulation makes, as advance forwards
    it to ``timestepper._attempt``: its start time t0, step h and order,
    whether it lands on a snapshot and so checks its Newton error, its end
    state and report (None when it raised), whether it refreshed the held
    band, the exception it raised (None) and its error estimate (inf when
    it raised)."""
    attempts = []
    real = timestepper._attempt

    def recording(state, cfg, variant, params, grid, held):
        attempt = {"t0": state.t, "h": cfg.dt, "order": held.order, "check": held.check,
                   "state": None, "report": None, "raised": None}
        attempts.append(attempt)
        refreshes = held.refreshes
        try:
            attempt["state"], attempt["report"] = real(state, cfg, variant, params, grid, held)
            return attempt["state"], attempt["report"]
        except Exception as exc:
            attempt["raised"] = type(exc).__name__
            raise
        finally:
            attempt["refreshed"] = held.refreshes > refreshes
            attempt["err"] = math.inf if attempt["raised"] else held.err

    monkeypatch.setattr(timestepper, "_attempt", recording)
    return attempts


# numpy's bundled OpenBLAS with 64-bit LAPACK, where timestepper takes its
# banded LU from; looked up here, not through timestepper, so that a loader
# falling back to scipy.linalg where the library exists fails the tests
needs_numpy_openblas = pytest.mark.skipif(
    not glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs",
                               "libscipy_openblas64_*.so")),
    reason="numpy bundles no scipy-openblas64 library")


# values a 17-digit CSV must carry exactly: negatives, a subnormal, huge, nan
CSV_HARD_VALUES = (-1.0 / 3.0, -0.0, 5e-324, 1e300, -2.5e-300, float("nan"), 0.1)


@pytest.fixture
def noflux_grid():
    return Grid(65, 10.0, BoundaryKind.NO_FLUX_SYMMETRIC)


@pytest.fixture
def periodic_grid():
    return Grid(65, 10.0, BoundaryKind.PERIODIC)
