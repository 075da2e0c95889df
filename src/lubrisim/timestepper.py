"""Implicit time stepping: backward Euler solved by Newton iterations.

The unknowns are interleaved per node, u = (eta_0, gamma_0, eta_1,
gamma_1, ...), over the m distinct nodes: all N of a symmetric grid, N-1
of a periodic one, whose node N-1 is node 0 again and takes node 0's
update bit for bit.  The residual of one step is

    r(u_new) = (u_new - u_old) / dt - rhs(u_new).

The Jacobian dr/du is assembled by coloured finite differences (Curtis,
Powell & Reid, IMA J. Appl. Math. 13, 1974), coloured per field (Coleman
& More, SIAM J. Numer. Anal. 20, 1983): an eta column reaches
STENCIL_REACH = 3 nodes per side, a gamma column GAMMA_REACH = 2, and
columns of one field more than twice its reach apart never feed the same
row, so they are perturbed together.  Node j takes colour j mod
(2*reach + 1) on symmetric grids, 7 + 5 = 12 probes; the periodic ring is
cut into floor(m / (2*reach + 1)) near-equal blocks, the fewest colours it
allows.  All probes are stacked into one batched rhs evaluation next to
the base one, so an assembly costs two rhs calls on either boundary kind.
The base rhs is the previous step's closing residual's, which ``rhs``
remembers, so a one-iteration step evaluates rhs twice, not three times.

Both boundary kinds store dr/du banded and solve it with one banded LU
(LAPACK gbtrf/gbtrs); symmetric grids have scalar half-bandwidth
2*STENCIL_REACH + 1 = 7.  Periodic grids number their nodes in the folded
order 0, N-2, 1, N-3, ... (bandwidth reduction after Cuthill & McKee,
Proc. ACM Nat. Conf. 1969), which keeps cyclic neighbours at most 6
positions apart: half-bandwidth 13, or less on grids too small for it.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import blas, lapack

from .core import (
    BoundaryKind,
    Grid,
    ModelVariant,
    Params,
    PositivityError,
    State,
)
from .discretization import film_mass, surfactant_mass
from .models import Rhs, rhs

STENCIL_REACH = 3  # node reach of one eta column (outer divergence of
                   # fluxes containing third derivatives: 1 + 2 nodes)
GAMMA_REACH = 2    # node reach of one gamma column: gamma enters the fluxes
                   # only through gamma, gamma_x and the halo tension


@dataclass(frozen=True)
class StepConfig:
    """Backward-Euler step controls.

    newton_tol is only consulted when newton_iters > 1 (the default single
    Newton step is applied unconditionally).  fd_epsilon scales the
    finite-difference perturbation as fd_epsilon * max(1, |value|).
    """

    dt: float
    newton_iters: int = 1
    newton_tol: float = 1e-10
    fd_epsilon: float = 1e-7

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.newton_iters < 1:
            raise ValueError(f"newton_iters must be >= 1, got {self.newton_iters}")
        if not self.newton_tol > 0:
            raise ValueError(f"newton_tol must be positive, got {self.newton_tol}")
        if not self.fd_epsilon > 0:
            raise ValueError(f"fd_epsilon must be positive, got {self.fd_epsilon}")


@dataclass(frozen=True)
class StepReport:
    residual_norm_before: float
    residual_norm_after: float
    newton_iters_used: int
    film_mass_drift: float
    surfactant_mass_drift: float


ZERO_REPORT = StepReport(0.0, 0.0, 0, 0.0, 0.0)


def _interleave(eta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(..., N) field pairs to (..., 2N) interleaved unknowns."""
    return np.stack((eta, gamma), axis=-1).reshape(*eta.shape[:-1], -1)


def residual(s_new: State, s_old: State, cfg: StepConfig, variant: ModelVariant,
             params: Params, grid: Grid) -> np.ndarray:
    """Backward-Euler residual, interleaved per node (eta then gamma)."""
    if s_new.n_nodes != s_old.n_nodes:
        raise ValueError("states do not share a grid")
    r = rhs(variant, s_new, params, grid)
    return _interleave(
        (s_new.eta - s_old.eta) / cfg.dt - r.deta_dt,
        (s_new.gamma - s_old.gamma) / cfg.dt - r.dgamma_dt,
    )


def _banded_matvec(ab: np.ndarray, hb: int, x: np.ndarray) -> np.ndarray:
    """y = A @ x for A stored in band layout ab[hb + i - j, j]."""
    n = x.size
    m = max(n, 2 * hb + 1)  # the gbmv wrapper wants m >= 2 * hb + 1
    if m > n:  # tiny grids: pad with zero columns
        ab, x = np.pad(ab, ((0, 0), (0, m - n))), np.pad(x, (0, m - n))
    return blas.dgbmv(m, m, hb, hb, 1.0, ab, x)[:n]


@dataclass
class FdJacobian:
    """Jacobian of the step residual, banded in a bandwidth-reducing order.

    Row and column p of the stored matrix belong to unknown order[p], an
    index of the interleaved node vector; ``banded`` holds it in LAPACK
    band layout, banded[hb + p - q, q] with hb = half_bandwidth.  Node
    vectors are read through ``order`` and written back through
    ``gather``, the band position of each entry (node 0's for periodic
    node N-1).  ``base`` is the rhs at the state the Jacobian was taken at.
    """

    half_bandwidth: int
    banded: np.ndarray
    order: np.ndarray
    gather: np.ndarray
    base: Rhs

    @property
    def n(self) -> int:
        return self.order.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return _banded_matvec(self.banded, self.half_bandwidth,
                              x[self.order])[self.gather]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Banded LU solve with one step of iterative refinement.

        Refinement keeps the exact per-step mass conservation identity of
        the flux-form divergence intact even when an ill-conditioned first
        step produces a large Newton update.
        """
        hb = self.half_bandwidth
        lu = np.zeros((3 * hb + 1, self.n), order="F")  # gbtrf's fill rows
        lu[hb:] = self.banded
        lu, piv, info = lapack.dgbtrf(lu, hb, hb, overwrite_ab=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"singular Jacobian (gbtrf info {info})")
        bp = b[self.order]
        xp, _ = lapack.dgbtrs(lu, hb, hb, bp, piv)
        fix, _ = lapack.dgbtrs(lu, hb, hb,
                               _banded_matvec(self.banded, hb, xp) - bp, piv)
        xp -= fix
        if not np.isfinite(xp).all():
            raise np.linalg.LinAlgError("non-finite solution of the Jacobian")
        return xp[self.gather]

    def to_dense(self) -> np.ndarray:
        hb = self.half_bandwidth
        p = np.arange(self.n)
        band_row = hb + p[:, None] - p
        dense = np.empty((self.n, self.n))
        dense[np.ix_(self.order, self.order)] = np.where(
            np.abs(band_row - hb) <= hb, self.banded[np.clip(band_row, 0, 2 * hb), p], 0.0)
        return dense


@dataclass(frozen=True)
class _ProbePattern:
    """Per-field colourings of the m unknown nodes and their flat indices.

    Probes and rhs differences are (field, probe, node) arrays, holding the
    (field, node) bumps at flat indices ``bump`` (node N-1 with periodic
    node 0).  Jacobian entry i is the difference at src[i], a row below m;
    it lands at dest[i] of the column-major band, whose position p holds
    unknown order[p], bumped by eps.flat[eps_at[p]].
    """

    color: np.ndarray
    gamma_color: np.ndarray
    n_probes: int
    bump: np.ndarray
    src: np.ndarray
    dest: np.ndarray
    eps_at: np.ndarray
    order: np.ndarray
    gather: np.ndarray
    half_bandwidth: int


@functools.lru_cache(maxsize=8)
def _probe_pattern(n_nodes: int, periodic: bool) -> _ProbePattern:
    m = n_nodes - 1 if periodic else n_nodes  # periodic node N-1 is node 0 again
    node = np.arange(m)
    # Same-colour nodes lie more than twice the field's reach apart, so no row
    # sees two bumps of one probe: blocks coloured 0, 1, ..., of 2*reach + 1
    # nodes on a line, floor(m / (2*reach + 1)) near-equal ones around a ring
    colors = np.empty((2, m), dtype=int)
    for color, reach in zip(colors, (STENCIL_REACH, GAMMA_REACH)):
        span = 2 * reach + 1
        blocks = max(m // span, 1)
        start = np.arange(blocks) * m // blocks if periodic else np.arange(0, m, span)
        color[:] = node - np.repeat(start, np.diff(start, append=m))
    probe = colors + [[0], [colors[0].max() + 1]]
    n_probes = int(probe.max()) + 1
    grid_node = np.arange(n_nodes)  # node N-1 takes node 0's probe
    bump = ((np.arange(2)[:, None] * n_probes + probe[:, grid_node % m]) * n_nodes
            + grid_node).ravel()

    # entries: each row node within the column field's reach, both row fields
    src, cols = [], []
    for fld, reach in enumerate((STENCIL_REACH, GAMMA_REACH)):
        near = node[:, None] + np.arange(-reach, reach + 1)
        if periodic:
            near %= m
        inside = (near >= 0) & (near < m)
        rnode, cnode = near[inside], np.nonzero(inside)[0]
        for row_fld in (0, 1):
            src.append((row_fld * n_probes + probe[fld, cnode]) * n_nodes + rnode)
            cols.append(2 * cnode + fld)

    # band order: folded 0, m-1, 1, m-2, ... on periodic grids, near the wrap
    node = _interleave(node, node[::-1])[:m] if periodic else node
    order = _interleave(2 * node, 2 * node + 1)
    position = np.argsort(order)
    src = np.concatenate(src)
    prow = position[2 * (src % n_nodes) + src // (n_probes * n_nodes)]
    pcol = position[np.concatenate(cols)]
    hb = int(np.abs(prow - pcol).max())
    dest = (hb + prow - pcol) + (2 * hb + 1) * pcol
    eps_at = order % 2 * n_nodes + order // 2
    gather = position[np.arange(2 * n_nodes) % (2 * m)]
    for arr in (colors, bump, src, dest, eps_at, order, gather):
        arr.setflags(write=False)
    return _ProbePattern(*colors, n_probes, bump, src, dest, eps_at, order, gather, hb)


def jacobian_fd(state: State, cfg: StepConfig, variant: ModelVariant,
                params: Params, grid: Grid) -> FdJacobian:
    """Coloured finite-difference Jacobian of the step residual.

    Exactly two rhs calls: the base state, then every colour probe of both
    fields stacked into one batch.  The base rhs is kept on the result.
    """
    pat = _probe_pattern(grid.n_nodes, grid.boundary is BoundaryKind.PERIODIC)

    base = rhs(variant, state, params, grid)
    fields = np.stack((state.eta, state.gamma))
    eps = cfg.fd_epsilon * np.maximum(1.0, np.abs(fields))
    probes = np.repeat(fields[:, None, :], pat.n_probes, axis=1)
    probes.reshape(-1)[pat.bump] += eps.reshape(-1)
    batch = State(probes[0], probes[1], state.t)
    del probes  # the batch holds its own copy
    pert = rhs(variant, batch, params, grid)
    diff = np.empty((2, *pert.deta_dt.shape))
    np.subtract(pert.deta_dt, base.deta_dt, out=diff[0])
    np.subtract(pert.dgamma_dt, base.dgamma_dt, out=diff[1])

    hb = pat.half_bandwidth
    ab = np.zeros((2 * hb + 1) * pat.order.size)
    ab[pat.dest] = diff.take(pat.src)
    ab = ab.reshape(2 * hb + 1, -1, order="F")
    ab /= -eps.take(pat.eps_at)  # one bump size per band column
    ab[hb] += 1.0 / cfg.dt
    return FdJacobian(hb, ab, pat.order, pat.gather, base)


def advance(state: State, cfg: StepConfig, variant: ModelVariant,
            params: Params, grid: Grid) -> tuple[State, StepReport]:
    """One backward-Euler step via cfg.newton_iters Newton updates."""
    if grid.boundary is BoundaryKind.PERIODIC:  # node N-1 is node 0 again
        for name, f in (("eta", state.eta), ("gamma", state.gamma)):
            if (gap := f[-1] - f[0]) != 0.0:  # exact: finite x - y is 0 only if x == y
                raise ValueError(f"periodic {name}[N-1] - {name}[0] is {gap:.3e}, not 0")
    film_before = film_mass(state, grid)
    surf_before = surfactant_mass(state, grid)
    t_new = state.t + cfg.dt

    current = state
    jac = jacobian_fd(current, cfg, variant, params, grid)
    # (current - state) / dt is exactly 0, so the first residual is -rhs
    r = -_interleave(jac.base.deta_dt, jac.base.dgamma_dt)
    norm_before = float(np.max(np.abs(r)))
    iters_used = 0
    for it in range(cfg.newton_iters):
        if it > 0:
            jac = jacobian_fd(current, cfg, variant, params, grid)
        du = jac.solve(-r)
        # State and the residual's rhs reject a film that breached the floor
        current = State(current.eta + du[0::2], current.gamma + du[1::2], t_new)
        r = residual(current, state, cfg, variant, params, grid)
        iters_used += 1
        if cfg.newton_iters > 1 and np.max(np.abs(r)) <= cfg.newton_tol:
            break

    film_after = film_mass(current, grid)
    surf_after = surfactant_mass(current, grid)
    report = StepReport(
        residual_norm_before=norm_before,
        residual_norm_after=float(np.max(np.abs(r))),
        newton_iters_used=iters_used,
        film_mass_drift=(film_after - film_before) / max(abs(film_before), 1e-300),
        surfactant_mass_drift=(surf_after - surf_before) / max(abs(surf_before), 1e-300),
    )
    return current, report


@dataclass(frozen=True)
class Snapshot:
    time: float
    state: State
    report: StepReport


@dataclass
class RunSummary:
    steps: int = 0
    final_time: float = 0.0
    max_film_mass_drift: float = 0.0
    max_surfactant_mass_drift: float = 0.0
    final_film_mass_drift: float = 0.0
    final_surfactant_mass_drift: float = 0.0
    wall_time: float = 0.0
    failure: str | None = None


@dataclass
class SimulationResult:
    snapshots: list[Snapshot] = field(default_factory=list)
    summary: RunSummary = field(default_factory=RunSummary)


def run_simulation(s0: State, t_end: float, snapshot_times, cfg: StepConfig,
                   variant: ModelVariant, params: Params,
                   grid: Grid) -> SimulationResult:
    """March from t=0 to t_end, recording the requested snapshot times.

    When dt does not divide a snapshot time the preceding step is shortened
    to land on it exactly.  On a solver failure (positivity breach or a
    singular linear solve) the partial results gathered so far are returned
    with the failure recorded in the summary.
    """
    if t_end < 0:
        raise ValueError(f"t_end must be >= 0, got {t_end}")
    targets = [float(st) for st in snapshot_times]
    if targets != sorted(targets):
        raise ValueError("snapshot_times must be sorted ascending")
    if any(st < 0 or st > t_end for st in targets):
        raise ValueError("snapshot times must lie in [0, t_end]")

    started = time.perf_counter()
    result = SimulationResult()
    result.snapshots.append(Snapshot(0.0, s0, ZERO_REPORT))
    pending = sorted({st for st in targets if st > 0.0})

    film0 = film_mass(s0, grid)
    surf0 = surfactant_mass(s0, grid)
    summary = result.summary
    tol = 1e-9 * max(1.0, cfg.dt)

    t = 0.0
    state = s0
    while t < t_end - tol:
        target = pending[0] if pending else t_end
        dt_step = min(cfg.dt, target - t)
        try:
            state, report = advance(state, replace(cfg, dt=dt_step),
                                    variant, params, grid)
        except (PositivityError, np.linalg.LinAlgError) as exc:
            summary.failure = f"{type(exc).__name__}: {exc}"
            break
        summary.steps += 1
        t += dt_step
        if abs(t - target) <= tol:
            t = target
        if state.t != t:  # snapped to the target, or s0.t was not 0
            state = State(state.eta, state.gamma, t)
        film_drift = abs(film_mass(state, grid) - film0) / abs(film0)
        surf_drift = abs(surfactant_mass(state, grid) - surf0) / abs(surf0)
        summary.max_film_mass_drift = max(summary.max_film_mass_drift, film_drift)
        summary.max_surfactant_mass_drift = max(
            summary.max_surfactant_mass_drift, surf_drift)
        summary.final_film_mass_drift = film_drift
        summary.final_surfactant_mass_drift = surf_drift
        if pending and t == pending[0]:
            result.snapshots.append(Snapshot(t, state, report))
            pending.pop(0)

    summary.final_time = t
    summary.wall_time = time.perf_counter() - started
    return result
