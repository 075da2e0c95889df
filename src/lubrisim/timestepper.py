"""Implicit time stepping: backward Euler and variable-order NDF, solved by
Newton iterations.

The unknowns are interleaved per node, u = (eta_0, gamma_0, eta_1,
gamma_1, ...), over the m distinct nodes: all N of a symmetric grid, N-1
of a periodic one, whose node N-1 is node 0 again and takes node 0's
update bit for bit.  A backward-Euler step solves
r(u_new) = (u_new - u_old) / dt - rhs(u_new) = 0.

The Jacobian dr/du is assembled by coloured finite differences (Curtis,
Powell & Reid, IMA J. Appl. Math. 13, 1974), coloured per field (Coleman
& More, SIAM J. Numer. Anal. 20, 1983): columns of one field more than
twice its reach apart (STENCIL_REACH = 3 nodes for eta, GAMMA_REACH = 2
for gamma) never feed the same row and are perturbed together: node j
takes colour j mod (2*reach + 1) on symmetric grids, 7 + 5 = 12 probes,
and the periodic ring is cut into floor(m / (2*reach + 1)) near-equal
blocks.  One rhs call on a state stacked over its probes gives the
Jacobian and the residual there; ``_linearised``'s cache hands both on.

``advance`` alone is backward Euler over cfg.dt, each Newton update on a
fresh Jacobian.  ``run_simulation`` picks its own steps h and orders k <=
MAX_ORDER, each attempt an ``advance`` whose ``_Held`` carrier makes it an
NDFk step (Shampine & Reichelt, SIAM J. Sci. Comput. 18, 1997) on the
backward differences D_j of the accepted solution at spacing h (Byrne &
Hindmarsh, ACM TOMS 1, 1975): backward Euler over h / alpha_k from pred -
psi, Newton opening at pred = D_0 + ... + D_k on the held band (a new LU
when h or k moves).  ERRC_k (u - pred) estimates the error, in an RMS norm
scaled by RTOL * (1 + |u|).  An attempt costs one rhs call (stacked over
the probes to refresh the band), one gbtrs and its end's masses, and one
more rhs call and gbtrs to check its Newton error on a snapshot.

Both boundary kinds store dr/du banded and solve it with one banded LU
(LAPACK gbtrf/gbtrs): half-bandwidth 2*STENCIL_REACH + 1 = 7 on symmetric
grids, and 13 (less on tiny grids) on periodic ones, numbered in the folded
order 0, N-2, 1, N-3, ... (after Cuthill & McKee, Proc. ACM Nat. Conf.
1969) to keep cyclic neighbours at most 6 positions apart.
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
RTOL = 1e-6        # run_simulation's error tolerance, relative to 1 + |u|
MAX_ORDER = 4      # run_simulation's highest NDF order (fig2 and fig4 never pick 5)
KAPPA = np.array([0.0, -0.1850, -1 / 9, -0.0823, -0.0415])  # NDF kappa_k, per order k
_GAMMA = np.r_[0.0, np.cumsum(1.0 / np.arange(1, MAX_ORDER + 1))]  # 1 + 1/2 + ... + 1/k
_ALPHA, _ERRC = (1.0 - KAPPA) * _GAMMA, KAPPA * _GAMMA + 1.0 / np.arange(1, MAX_ORDER + 2)


@dataclass(frozen=True)
class StepConfig:
    """Step controls: ``advance``'s step dt, also ``run_simulation``'s first
    trial step; at most newton_iters Newton updates per step, stopping early
    once the residual max-norm is <= newton_tol."""

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
    mass of the state it ends in (a run's t = 0 snapshot: of s0, no updates);
    residual_norm_after is nan where a run evaluates none after an update."""

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
    return -_negated_residual(s_new, s_old.fields, cfg.dt, rhs(variant, s_new, params, grid))


def _negated_residual(s_new: State, old, dt: float, r: Rhs) -> np.ndarray:
    """-residual of backward Euler from the (eta, gamma) pair ``old``, exactly:
    a - b is -(b - a) in IEEE arithmetic, but for a zero's sign."""
    return _interleave(r.deta_dt - (s_new.eta - old[0]) / dt,
                       r.dgamma_dt - (s_new.gamma - old[1]) / dt)


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
        lu = np.empty((3 * hb + 1, self.n), order="F")  # rows < hb: fill-in gbtrf sets
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
    node 0); rhs differences from the state are a flat (field, probe, node)
    buffer ending in one zero slot.  Slot i of the column-major band, whose
    position p holds interleaved unknown order[p], is that buffer's entry
    src[i]: a difference at a row below m, or the zero slot.
    """

    color: np.ndarray
    gamma_color: np.ndarray
    n_probes: int
    bump: np.ndarray
    src: np.ndarray
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
    band = np.full((2 * hb + 1) * order.size, 2 * n_probes * n_nodes)  # the zero slot
    band[(hb + prow - pcol) + (2 * hb + 1) * pcol] = src
    gather = position[np.arange(2 * n_nodes) % (2 * m)]
    for arr in (colors, bump, band, order, gather):
        arr.setflags(write=False)
    return _ProbePattern(*colors, n_probes, bump, band, order, gather, hb)


@functools.lru_cache(maxsize=1)  # a residual's state is the next Jacobian's
def _linearised(variant: ModelVariant, state: State, params: Params,
                grid: Grid) -> FdJacobian:
    """``jacobian_fd`` at state without its 1/dt shift: -d rhs/du and rhs,
    from one rhs call on the state stacked over its colour probes."""
    pat = _probe_pattern(grid.n_nodes, grid.boundary is BoundaryKind.PERIODIC)
    eps = FD_EPSILON * np.maximum(1.0, np.abs(state.fields))
    stack = np.repeat(state.fields[:, None, :], pat.n_probes + 1, axis=1)
    stack.reshape(-1)[pat.bump] += eps.reshape(-1)
    batch = State(stack[0], stack[1], state.t)
    del stack  # the batch holds its own copy
    out = rhs(variant, batch, params, grid)
    diff = np.empty(2 * pat.n_probes * grid.n_nodes + 1)  # and the zero slot
    diff[-1] = 0.0
    d = diff[:-1].reshape(2, pat.n_probes, grid.n_nodes)
    np.subtract(out.deta_dt[1:], out.deta_dt[0], out=d[0])
    np.subtract(out.dgamma_dt[1:], out.dgamma_dt[0], out=d[1])

    hb = pat.half_bandwidth
    ab = diff.take(pat.src).reshape(2 * hb + 1, -1, order="F")
    ab /= -_interleave(*eps)[pat.order]  # one bump size per band column
    ab.setflags(write=False)
    return FdJacobian(pat, ab, Rhs(out.deta_dt[0], out.dgamma_dt[0]), 0.0)


def jacobian_fd(state: State, cfg: StepConfig, variant: ModelVariant,
                params: Params, grid: Grid) -> FdJacobian:
    """Coloured finite-difference Jacobian of the step residual, with the rhs
    at state as its base: one rhs call on the state stacked over every
    colour probe of both fields, none if that state was the last one."""
    lin = _linearised(variant, state, params, grid)
    return FdJacobian(lin.pattern, lin.banded, lin.base, 1.0 / cfg.dt)


def _rms(e: np.ndarray, u: np.ndarray) -> float:
    return float(np.linalg.norm(e / (RTOL * (1.0 + np.abs(u))))) / math.sqrt(e.size)


@dataclass
class _Held:
    """run_simulation's carrier through ``advance``: the accepted solution's
    backward differences D (MAX_ORDER + 3, stacked fields, node) at spacing h,
    the order and the steps accepted at both; the held band (None: take one at
    the next predictor), whether it predates the step, the refresh and LU
    counts; whether the attempt lands on a snapshot; its error, pred and u."""

    D: np.ndarray
    h: float
    order: int = 1
    equal: int = 0
    band: FdJacobian | None = None
    stale: bool = False
    refreshes: int = 0
    factorisations: int = 0
    check: bool = False
    err: float = math.inf
    pred: np.ndarray | None = None
    u: np.ndarray | None = None

    def start(self, h: float):
        """c = h / alpha_k, pred and psi = sum_j gamma_j D_j / alpha_k, D first
        rescaled to spacing h by R U: the same interpolant's differences."""
        k, a, D = self.order, _ALPHA[self.order], self.D[:self.order + 1]
        if h != self.h:
            i, m = np.arange(1, k + 1), np.zeros((2, k + 1, k + 1))
            m[:, 0], f = 1.0, np.array([h / self.h, 1.0])[:, None, None]  # R's and U's
            m[:, 1:, 1:] = (i[:, None] - 1 - f * i) / i[:, None]
            r, u = np.cumprod(m, axis=1)
            D[:] = ((r @ u).T @ D.reshape(k + 1, -1)).reshape(D.shape)
            self.h, self.equal = h, 0
        self.pred = D.sum(axis=0)
        return h / a, self.pred, np.einsum("j,j...", _GAMMA[1:k + 1], D[1:]) / a

    def accept(self) -> float:
        """Fold the attempt's u - pred into D; the step factor: 1 until order
        + 1 steps are accepted at h, then that of the best of orders k, k +- 1."""
        k, D = self.order, self.D
        change = self.u - self.pred
        D[k + 2], D[k + 1] = change - D[k + 1], change
        for i in range(k, -1, -1):
            D[i] += D[i + 1]
        self.equal += 1
        if self.equal <= k:
            return 1.0
        err = {j: self.err if j == k else _rms(_ERRC[j] * D[j + 1], D[0])  # k wins ties
               for j in (k, k - 1, k + 1) if 0 < j <= MAX_ORDER}
        rate = {j: e ** (-1.0 / (j + 1)) if e else math.inf for j, e in err.items()}
        if (best := max(rate, key=rate.get)) != k:
            self.order, self.equal = best, 0
        return min(2.0, 0.9 * rate[best])


def _drift(after: float, before: float) -> float:
    """Relative change of a mass, or the plain change from a zero mass."""
    change = after - before
    return change / abs(before) if before else change


def advance(state: State, cfg: StepConfig, variant: ModelVariant,
            params: Params, grid: Grid, *, _held: _Held | None = None
            ) -> tuple[State, StepReport]:
    """One step of cfg.dt via at most cfg.newton_iters Newton updates: alone,
    backward Euler, each update on a fresh Jacobian; with run_simulation's
    ``_held``, an NDF attempt on its band, refreshed at the predictor if it
    holds none, leaving in ``_held`` its error estimate: ERRC_k (u - pred),
    or the Newton update J^-1 r at the residual taken after the last update
    (always if ``_held.check``) if larger."""
    if grid.boundary is BoundaryKind.PERIODIC:  # node N-1 is node 0 again
        for name, f in (("eta", state.eta), ("gamma", state.gamma)):
            if (gap := f[-1] - f[0]) != 0.0:  # exact: finite x - y is 0 only if x == y
                raise ValueError(f"periodic {name}[N-1] - {name}[0] is {gap:.3e}, not 0")
    held, t_new, dt, current = _held, state.t + cfg.dt, cfg.dt, state
    old = state.fields  # the (eta, gamma) the step starts from
    if held is None:
        # the stacked call stays outside jacobian_fd: benchmarks/tracing.py divides
        # by (rhs calls under jacobian_fd) - (jacobian_fd calls), which it would zero
        base = _linearised(variant, state, params, grid).base
        jac = jacobian_fd(state, cfg, variant, params, grid)
    else:
        dt, pred, psi = held.start(cfg.dt)
        old, current = pred - psi, State(*pred, t_new)  # a predictor below the floor raises
        if (jac := held.band) is None:
            base = _linearised(variant, current, params, grid).base
            held.band = jacobian_fd(current, replace(cfg, dt=dt), variant, params, grid)
            held.stale, held.refreshes = False, held.refreshes + 1
        else:
            base = rhs(variant, current, params, grid)
            held.band = jac if jac.shift == 1.0 / dt else replace(jac, shift=1.0 / dt)
        held.factorisations += held.band is not jac  # a new LU at its first solve
        jac = held.band

    neg_r = (_interleave(base.deta_dt, base.dgamma_dt) if held is None  # -r at u_new = u_old
             else _negated_residual(current, old, dt, base))
    norm_before = float(np.abs(neg_r).max())
    for it in range(cfg.newton_iters):
        if it and held is None:
            jac = jacobian_fd(current, cfg, variant, params, grid)
        du, norm_after = jac.solve(neg_r), math.nan  # nan: no residual after du
        # State rejects a film that breached the floor, before any rhs call
        current = State(current.eta + du[0::2], current.gamma + du[1::2], t_new)
        if held is None:
            base = _linearised(variant, current, params, grid).base
        elif it + 1 < cfg.newton_iters or held.check:
            base = rhs(variant, current, params, grid)
        else:
            break
        neg_r = _negated_residual(current, old, dt, base)
        norm_after = float(np.abs(neg_r).max())
        if norm_after <= cfg.newton_tol:
            break

    if held is not None:
        u = held.u = current.fields
        newton = () if math.isnan(norm_after) else (jac.solve(neg_r).reshape(-1, 2).T,)
        held.err = max(_rms(e, u) for e in (_ERRC[held.order] * (u - pred), *newton))
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
    rejected_steps: int = 0
    jacobian_refreshes: int = 0
    factorisations: int = 0
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

    Each step h, first cfg.dt, is attempted through ``advance`` at order k,
    first 1 from the line along s0's rhs, half the way to the next snapshot
    time if under 2h off, the rest (h if equal to rounding) if at most h
    off, landing on it and checking its Newton error.  err <= 1 accepts it;
    after k + 1 steps at one h and k, k moves to the best of k, k +- 1 (the
    longest step) and h to h * min(2, 0.9 * err**(-1/(k+1))) at it, or
    stays, keeping the LU, if that factor is in [1, 1.2).  A rejection,
    PositivityError or LinAlgError retries on a fresh band if its own
    predates the step, else on h * max(0.2, 0.9 * err**(-1/(k+1))), h / 5
    if it raised.  Below 10 ulps of the target time h ends the run,
    returning the partial results with the failure in the summary."""
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

    t, state, h, held = 0.0, s0, cfg.dt, _Held(np.zeros((MAX_ORDER + 3, 2, s0.n_nodes)), cfg.dt)
    f0 = rhs(variant, s0, params, grid)  # the first predictor: s0 + h f0
    held.D[:2] = s0.fields, (h * f0.deta_dt, h * f0.dgamma_dt)
    while pending:
        target = pending[0]  # under 2h off, half the way: no sliver lands on it
        left, slack = target - t, 4.0 * math.ulp(target)  # slack: the rounding of t
        held.check = left <= h + slack  # a landing sets t to the target
        step = h if abs(left - h) <= slack else min(h, left if held.check else 0.5 * left)
        cfg = cfg if step == cfg.dt else replace(cfg, dt=step)  # rebuilt as the step changes
        try:
            new, report = advance(state, cfg, variant, params, grid, _held=held)
        except (PositivityError, np.linalg.LinAlgError) as exc:
            new, held.err, why = None, math.inf, f"{type(exc).__name__}: {exc}"
        if held.err > 1.0:
            summary.rejected_steps += 1
            if held.stale:
                held.band, held.stale = None, False  # freed before the stacked rhs call
            elif (h := step * max(0.2, 0.9 * held.err ** (-1.0 / (held.order + 1)))
                  ) < 10.0 * math.ulp(target):
                why = why if new is None else f"error estimate {held.err:.3e}"
                summary.failure = f"{why}; step {h:.3e} underflowed at t = {t:.17g}"
                break
            continue

        summary.steps += 1
        t = target if held.check else t + step
        state = new if new.t == t else State(new.eta, new.gamma, t)  # s0.t need not be 0
        factor, held.stale = held.accept(), True
        h = step if 1.0 <= factor < 1.2 else step * factor
        summary.final_film_mass_drift = film = abs(_drift(report.film_mass, film0))
        summary.final_surfactant_mass_drift = surf = abs(_drift(report.surfactant_mass, surf0))
        summary.max_film_mass_drift = max(summary.max_film_mass_drift, film)
        summary.max_surfactant_mass_drift = max(summary.max_surfactant_mass_drift, surf)
        if held.check:
            result.snapshots.append(Snapshot(t, state, report))
            pending.pop(0)

    summary.final_time = t
    summary.jacobian_refreshes, summary.factorisations = held.refreshes, held.factorisations
    summary.wall_time = time.perf_counter() - started
    return result
