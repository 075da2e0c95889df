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


# values a 17-digit CSV must carry exactly: negatives, a subnormal, huge, nan
CSV_HARD_VALUES = (-1.0 / 3.0, -0.0, 5e-324, 1e300, -2.5e-300, float("nan"), 0.1)


@pytest.fixture
def noflux_grid():
    return Grid(65, 10.0, BoundaryKind.NO_FLUX_SYMMETRIC)


@pytest.fixture
def periodic_grid():
    return Grid(65, 10.0, BoundaryKind.PERIODIC)
