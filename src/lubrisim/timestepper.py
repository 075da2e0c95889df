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
allows.  Each Newton update evaluates its new state in one rhs call, which
gives the residual and, stacked over the state's probes where a fresh
Jacobian certainly follows, that Jacobian; ``_linearised``'s cache hands
it to the next update or standalone ``advance``, ``_Held`` to a run's next
step, so a k-iteration step costs k rhs calls, on either boundary kind.

``advance`` takes a fresh Jacobian for each update.  ``run_simulation``
holds its last one factorised in ``_Held``, with the step's end state and
closing rhs, whose negation is the next step's first residual (u_new =
u_old opens a step), and solves a later step's first update with gbtrs
alone: linearly implicit Euler stays first order with an approximate
Jacobian (Steihaug & Wolfbrandt, Math. Comp. 33, 1979).  A held step's
work is one rhs call, one gbtrs and the two masses of its end state.  The
hold refreshes on a run's first step, when dt changes (landing steps too,
with one more stacked call at the step's start), after JAC_MAX_AGE steps,
and to retry once a held step that raised PositivityError or LinAlgError
or did not contract: as stiff integrators keep a Jacobian only while
Newton contracts, and a contraction factor of 1 or more means divergence
(Hairer & Wanner, Solving ODEs II, IV.8; ode15s, Shampine & Reichelt, SIAM
J. Sci. Comput. 18, 1997), a held step is rejected when its update leaves
a residual above both newton_tol and the residual it started from.  Its
results move past round-off.

Both boundary kinds store dr/du banded and solve it with one banded LU
(LAPACK gbtrf/gbtrs); symmetric grids have scalar half-bandwidth
2*STENCIL_REACH + 1 = 7.  Periodic grids number their nodes in the folded
order 0, N-2, 1, N-3, ... (bandwidth reduction after Cuthill & McKee,
Proc. ACM Nat. Conf. 1969), which keeps cyclic neighbours at most 6
positions apart: half-bandwidth 13, or less on grids too small for it.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import lapack

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
                   # only through gamma, gamma_x and the nodal tension
FD_EPSILON = 1e-7  # a probe bumps a value by FD_EPSILON * max(1, |value|)
JAC_MAX_AGE = 30   # most steps one factorised Jacobian serves in run_simulation:
                   # older ones still contract but cost accuracy (fig4, N = 769)


@dataclass(frozen=True)
class StepConfig:
    """Backward-Euler step controls.

    At most newton_iters Newton updates per step; the iteration stops early
    once the residual max-norm is <= newton_tol.
    """

    dt: float
    newton_iters: int = 1
    newton_tol: float = 1e-10

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        iters = self.newton_iters  # a bool is an Integral, but no count
        if isinstance(iters, bool) or not isinstance(iters, numbers.Integral) or iters < 1:
            raise ValueError(f"newton_iters must be an integer >= 1, got {iters!r}")
        if not 0 < self.newton_tol < math.inf:
            raise ValueError(f"newton_tol must be positive and finite, got {self.newton_tol}")


@dataclass(frozen=True)
class StepReport:
    """One step's Newton residuals and updates, and the film and surfactant
    mass of the state it ends in (a run's t = 0 snapshot: of s0, no updates)."""

    residual_norm_before: float
    residual_norm_after: float
    newton_iters_used: int
    film_mass: float
    surfactant_mass: float


def _interleave(eta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(..., N) field pairs to (..., 2N) interleaved unknowns, of their dtype."""
    out = np.empty((*eta.shape[:-1], 2 * eta.shape[-1]), np.result_type(eta, gamma))
    out[..., 0::2], out[..., 1::2] = eta, gamma
    return out


def residual(s_new: State, s_old: State, cfg: StepConfig, variant: ModelVariant,
             params: Params, grid: Grid) -> np.ndarray:
    """Backward-Euler residual, interleaved per node (eta then gamma)."""
    if s_new.n_nodes != s_old.n_nodes:
        raise ValueError("states do not share a grid")
    return _residual(s_new, s_old, cfg, rhs(variant, s_new, params, grid))


def _residual(s_new: State, s_old: State, cfg: StepConfig, r: Rhs) -> np.ndarray:
    return _interleave(
        (s_new.eta - s_old.eta) / cfg.dt - r.deta_dt,
        (s_new.gamma - s_old.gamma) / cfg.dt - r.dgamma_dt,
    )


@dataclass
class FdJacobian:
    """Jacobian of the step residual, banded in a bandwidth-reducing order.

    Row and column p of the stored matrix belong to unknown order[p] of its
    ``pattern``, an index of the interleaved node vector; ``banded`` holds
    -d rhs/du (read-only) in LAPACK band layout, banded[hb + p - q, q] with
    hb = pattern.half_bandwidth, and ``shift`` = 1/dt is added on its
    diagonal.  Node vectors are read through order and written back through
    gather, the band position of each entry (node 0's for periodic node
    N-1).  ``base`` is the rhs at the state the Jacobian was taken at.
    """

    pattern: _ProbePattern
    banded: np.ndarray
    base: Rhs
    shift: float

    @property
    def n(self) -> int:
        return self.pattern.order.size

    @functools.cached_property
    def _lu(self) -> tuple[np.ndarray, np.ndarray]:
        """gbtrf's banded LU and pivots, made by the first solve and kept."""
        hb = self.pattern.half_bandwidth
        lu = np.zeros((3 * hb + 1, self.n), order="F")  # gbtrf's fill rows
        lu[hb:] = self.banded
        lu[2 * hb] += self.shift
        lu, piv, info = lapack.dgbtrf(lu, hb, hb, overwrite_ab=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"singular Jacobian (gbtrf info {info})")
        return lu, piv

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Banded LU solve with partial pivoting, which is backward stable."""
        hb = self.pattern.half_bandwidth
        lu, piv = self._lu
        xp, _ = lapack.dgbtrs(lu, hb, hb, b[self.pattern.order], piv)
        if not np.isfinite(xp).all():
            raise np.linalg.LinAlgError("non-finite solution of the Jacobian")
        return xp[self.pattern.gather]

    def to_dense(self) -> np.ndarray:
        hb, order = self.pattern.half_bandwidth, self.pattern.order
        p = np.arange(self.n)
        band_row = hb + p[:, None] - p
        dense = np.empty((self.n, self.n))
        dense[np.ix_(order, order)] = np.where(
            np.abs(band_row - hb) <= hb, self.banded[np.clip(band_row, 0, 2 * hb), p], 0.0)
        dense[np.diag_indices(self.n)] += self.shift
        return dense


@dataclass(frozen=True)
class _ProbePattern:
    """Per-field colourings of the m unknown nodes and their flat indices.

    The state and its probes are a (field, 1 + probe, node) stack holding
    the (field, node) bumps at flat indices ``bump`` (node N-1 with periodic
    node 0); rhs differences from the state are (field, probe, node) arrays.
    Jacobian entry i is the difference at src[i], a row below m;
    it lands at dest[i] of the column-major band, whose position p holds
    interleaved unknown order[p].
    """

    color: np.ndarray
    gamma_color: np.ndarray
    n_probes: int
    bump: np.ndarray
    src: np.ndarray
    dest: np.ndarray
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
    bump = ((np.arange(2)[:, None] * (n_probes + 1) + 1 + probe[:, grid_node % m])
            * n_nodes + grid_node).ravel()

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
    gather = position[np.arange(2 * n_nodes) % (2 * m)]
    for arr in (colors, bump, src, dest, order, gather):
        arr.setflags(write=False)
    return _ProbePattern(*colors, n_probes, bump, src, dest, order, gather, hb)


@functools.lru_cache(maxsize=1)  # a residual's state is the next Jacobian's
def _linearised(variant: ModelVariant, state: State, params: Params,
                grid: Grid) -> FdJacobian:
    """``jacobian_fd`` at state without its 1/dt shift: -d rhs/du and rhs,
    from one rhs call on the state stacked over its colour probes."""
    pat = _probe_pattern(grid.n_nodes, grid.boundary is BoundaryKind.PERIODIC)
    fields = np.stack((state.eta, state.gamma))
    eps = FD_EPSILON * np.maximum(1.0, np.abs(fields))
    stack = np.repeat(fields[:, None, :], pat.n_probes + 1, axis=1)
    stack.reshape(-1)[pat.bump] += eps.reshape(-1)
    batch = State(stack[0], stack[1], state.t)
    del stack  # the batch holds its own copy
    out = rhs(variant, batch, params, grid)
    diff = np.empty((2, pat.n_probes, grid.n_nodes))
    np.subtract(out.deta_dt[1:], out.deta_dt[0], out=diff[0])
    np.subtract(out.dgamma_dt[1:], out.dgamma_dt[0], out=diff[1])

    hb = pat.half_bandwidth
    ab = np.zeros((2 * hb + 1) * pat.order.size)
    ab[pat.dest] = diff.take(pat.src)
    ab = ab.reshape(2 * hb + 1, -1, order="F")
    ab /= -_interleave(*eps)[pat.order]  # one bump size per band column
    ab.setflags(write=False)
    return FdJacobian(pat, ab, Rhs(out.deta_dt[0], out.dgamma_dt[0]), 0.0)


def jacobian_fd(state: State, cfg: StepConfig, variant: ModelVariant,
                params: Params, grid: Grid) -> FdJacobian:
    """Coloured finite-difference Jacobian of the step residual, with the rhs
    at state as its base: one rhs call on the state stacked over every
    colour probe of both fields, none if that state was the last one."""
    return replace(_linearised(variant, state, params, grid), shift=1.0 / cfg.dt)


@dataclass
class _Held:
    """The factorised Jacobian a step hands on, for ``left`` more of the
    ``serves`` steps it serves from a refresh (None once none is left), and
    the ``end`` state of the last step with its ``closing`` rhs."""

    serves: int = 1
    jac: FdJacobian | None = None
    left: int = 0
    end: State | None = None
    closing: Rhs | None = None


def _drift(after: float, before: float) -> float:
    """Relative change of a mass, or the plain change from a zero mass."""
    change = after - before
    return change / abs(before) if before else change


def advance(state: State, cfg: StepConfig, variant: ModelVariant,
            params: Params, grid: Grid, *, _held: _Held | None = None
            ) -> tuple[State, StepReport]:
    """One backward-Euler step via at most cfg.newton_iters Newton updates,
    each with a fresh Jacobian, unless run_simulation's ``_held`` one serves
    the first; the closing rhs call is stacked over the probes only when a
    fresh Jacobian certainly follows: a later update, or the last step a
    hold serves, which every call without ``_held`` is.  A held step that
    fails, or whose first update leaves a residual above both newton_tol
    and the residual it started from, is retried once with a fresh
    Jacobian."""
    if grid.boundary is BoundaryKind.PERIODIC:  # node N-1 is node 0 again
        for name, f in (("eta", state.eta), ("gamma", state.gamma)):
            if (gap := f[-1] - f[0]) != 0.0:  # exact: finite x - y is 0 only if x == y
                raise ValueError(f"periodic {name}[N-1] - {name}[0] is {gap:.3e}, not 0")
    held = _Held() if _held is None else _held
    reuse = held.jac is not None and held.jac.shift == 1.0 / cfg.dt
    if reuse:
        jac = held.jac
        base = held.closing if held.end is state else rhs(variant, state, params, grid)
    else:
        held.jac = None  # a stale LU is freed before the stacked rhs call
        # the stacked call stays outside jacobian_fd: benchmarks/tracing.py divides
        # by (rhs calls under jacobian_fd) - (jacobian_fd calls), which it would zero
        base = _linearised(variant, state, params, grid).base
        jac = jacobian_fd(state, cfg, variant, params, grid)
        held.left = held.serves
    held.left -= 1
    held.jac = jac if held.left else None  # kept only where a later step may reuse it

    t_new = state.t + cfg.dt
    current = state
    r = -_interleave(base.deta_dt, base.dgamma_dt)  # the residual at u_new = u_old
    norm_before = float(np.abs(r).max())
    try:
        for it in range(cfg.newton_iters):
            if it:
                jac = jacobian_fd(current, cfg, variant, params, grid)
            du = jac.solve(-r)
            del jac  # an LU nobody holds is freed before the stacked rhs call
            # State rejects a film that breached the floor, before any rhs call
            current = State(current.eta + du[0::2], current.gamma + du[1::2], t_new)
            if held.jac is None or it + 1 < cfg.newton_iters:
                base = _linearised(variant, current, params, grid).base
            else:
                base = rhs(variant, current, params, grid)
            r = _residual(current, state, cfg, base)
            norm_after = float(np.abs(r).max())
            if reuse and not it and norm_after > max(cfg.newton_tol, norm_before):
                raise np.linalg.LinAlgError("the held Jacobian did not contract")
            if norm_after <= cfg.newton_tol:
                break
    except (PositivityError, np.linalg.LinAlgError):
        if not reuse:
            raise
        held.jac = None  # retry once, with a fresh Jacobian
        return advance(state, cfg, variant, params, grid, _held=held)

    held.end, held.closing = current, base
    return current, StepReport(norm_before, norm_after, it + 1,
                               film_mass(current, grid), surfactant_mass(current, grid))


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
    """March from t=0 to t_end, recording the requested snapshot times and,
    when t_end > 0, the state at t_end as the last snapshot.

    Each step takes cfg.dt, shortened to land exactly on the next snapshot
    time (a step ending within 1e-9 * cfg.dt of it, or a few ulps, lands on
    it), and shares a held factorised Jacobian (see ``advance``).  On a
    solver failure (positivity breach or a singular linear solve) with a
    fresh Jacobian the partial results gathered so far are returned with
    the failure recorded in the summary.
    """
    if not 0.0 <= t_end < np.inf:
        raise ValueError(f"t_end must be finite and >= 0, got {t_end}")
    targets = [float(st) for st in snapshot_times]
    if targets != sorted(targets) or not all(0.0 <= st <= t_end for st in targets):
        raise ValueError(f"snapshot_times must ascend in [0, t_end], got {targets}")

    started = time.perf_counter()
    result = SimulationResult()
    film0, surf0 = film_mass(s0, grid), surfactant_mass(s0, grid)
    result.snapshots.append(Snapshot(0.0, s0, StepReport(0.0, 0.0, 0, film0, surf0)))
    pending = sorted({st for st in (*targets, t_end) if st > 0.0})
    summary = result.summary
    tol = max(1e-9 * cfg.dt, 4.0 * math.ulp(t_end))  # a few ulps where the step is tiny

    t, state, held = 0.0, s0, _Held(JAC_MAX_AGE)
    while pending:
        target = pending[0]
        dt_step = min(cfg.dt, target - t)
        try:
            step_cfg = cfg if dt_step == cfg.dt else replace(cfg, dt=dt_step)
            state, report = advance(state, step_cfg, variant, params, grid, _held=held)
        except (PositivityError, np.linalg.LinAlgError) as exc:
            summary.failure = f"{type(exc).__name__}: {exc}"
            break
        summary.steps += 1
        t = target if abs(t + dt_step - target) <= tol else t + dt_step
        if state.t != t:  # snapped to the target, or s0.t was not 0
            state = State(state.eta, state.gamma, t)
        film_drift = abs(_drift(report.film_mass, film0))
        surf_drift = abs(_drift(report.surfactant_mass, surf0))
        summary.max_film_mass_drift = max(summary.max_film_mass_drift, film_drift)
        summary.max_surfactant_mass_drift = max(
            summary.max_surfactant_mass_drift, surf_drift)
        summary.final_film_mass_drift = film_drift
        summary.final_surfactant_mass_drift = surf_drift
        if t == target:
            result.snapshots.append(Snapshot(t, state, report))
            pending.pop(0)

    summary.final_time = t
    summary.wall_time = time.perf_counter() - started
    return result
