"""Right-hand sides (d eta/dt, d gamma/dt) of the three evolution models.

Each displayed term group of the comprehensive model is one addressable
unit so that individual physical effects can be switched off at runtime:

  marangoni            surface-tension-gradient driven fluxes
  capillary            curvature-pressure fluxes, eta^p (tension*eta_xx)_x
  gravity_tangential   B sin(theta) groups (down-slope drainage)
  gravity_normal       B cos(theta) groups (hydrostatic levelling)
  van_der_waals        H groups (disjoining pressure W = H/eta^3)
  inertia_cross_HRB    H*R*B cross groups (inertia / gravity / vdW coupling)
  diffusion            surface diffusion of surfactant, scaled by inv_peclet

Each group is written in flux form: a nodal eta flux, a nodal gamma flux
and its non-divergence gamma terms as a pointwise source (surface diffusion
keeps its inner derivative there).  The gravity, van der Waals and HRB
groups are the rows of one table, CORRECTIONS; LOW_ORDER is each gravity
and van der Waals flux row cut to its group's leading column, and de Wit is
the low-order model minus DE_WIT_DELETES.  ``rhs`` sums the fluxes of all
groups and takes one (linear, row-by-row) ``div_flux`` of the stacked (eta
flux, gamma flux) pair, so the eta equation stays conservative to
round-off; ``rhs_breakdown`` takes the divergence per group.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import TERM_GROUPS, Grid, ModelVariant, Params, State, surface_tension
from .discretization import Ghosted, stencil_ops

# The diffusion term is always present (its toggle only selects the
# slope-corrected form), so its contribution is named after the term.
BREAKDOWN_GROUPS = tuple("diffusion" if g == "geometric_diffusion" else g
                         for g in TERM_GROUPS)

DE_WIT_DELETES = frozenset({"gravity_tangential", "gravity_normal", "geometric_diffusion"})


@dataclass(frozen=True)
class Rhs:
    deta_dt: np.ndarray
    dgamma_dt: np.ndarray


@dataclass(frozen=True)
class TermBreakdown:
    """Per-term-group contributions; their sum reproduces ``rhs`` exactly."""

    contributions: dict

    def total(self) -> Rhs:
        de = sum(c.deta_dt for c in self.contributions.values())
        dg = sum(c.dgamma_dt for c in self.contributions.values())
        return Rhs(de, dg)


# A table row (group, part, prefactor, multiplier, coefs) adds multiplier *
# prefactor * (coefs . BASIS) to one part of one group; BASIS holds slope
# monomials in x1, x2, x3 = eta_x, eta_xx, eta_xxx, and theta is the incline.
BASIS = ("1", "x1", "x1^2", "x1^3", "eta x2", "eta x1 x2", "eta^2 x3", "eta^2 x2^2", "x1^4")
MULTIPLIERS = ("B sin", "B cos", "H", "HRB cos", "HRB sin")
ETA_FLUX, GAMMA_FLUX, SOURCE = range(3)
# each prefactor _groups makes: (left, right), their quotient if its name has "/"
PREFACTORS = {"gamma eta^2": ("gamma eta", "eta"), "1/eta": ("1", "eta"),
              "gamma/eta^2": ("gamma", "eta^2"), "gamma/eta^3": ("gamma", "eta^3"),
              "gamma_x eta^2": ("gamma_x", "eta^2"), "gamma_x/eta^2": ("gamma_x", "eta^2")}

CORRECTIONS = tuple((group, *row) for group, rows in {
    "gravity_tangential": (
        (ETA_FLUX, "eta^3", "B sin", (-1/3, 0, -7/3, 0, -1, 0, 0, 0, 0)),
        (GAMMA_FLUX, "gamma eta^2", "B sin", (-1/2, 0, -17/4, 0, -5/3, 0, 0, 0, 0)),
        (SOURCE, "gamma eta", "B sin", (0, 0, 0, 3/2, 0, 0, 0, 0, 0)),
        (SOURCE, "gamma_x eta^2", "B sin", (0, 0, -1/4, 0, 0, 0, 0, 0, 0))),
    "gravity_normal": (
        (ETA_FLUX, "eta^3", "B cos", (0, 1/3, 0, 7/3, 0, 4, 0.6, 0, 0)),
        (GAMMA_FLUX, "gamma eta^2", "B cos", (0, 1/2, 0, 4, 0, 20/3, 1, 0, 0)),
        (SOURCE, "gamma eta", "B cos", (0, 0, 0, 0, 0, 0, 0, 1/3, -1)),
        (SOURCE, "gamma_x eta^2", "B cos", (0, 0, 0, 1/2, 0, 1/3, 0, 0, 0))),
    "van_der_waals": (
        (ETA_FLUX, "1/eta", "H", (0, -1, 0, -7, 0, 9.6, -1.8, 0, 0)),
        (GAMMA_FLUX, "gamma/eta^2", "H", (0, -3/2, 0, -32/3, 0, 16, -3, 0, 0)),
        (SOURCE, "gamma/eta^3", "H", (0, 0, 0, 0, 0, 0, 0, -1, -1/3)),
        (SOURCE, "gamma_x/eta^2", "H", (0, 0, 0, 7/6, 0, -1, 0, 0, 0))),
    "inertia_cross_HRB": (
        (ETA_FLUX, "eta^2", "HRB cos", (0, 0, 0, -4/105, 0, 44/105, 4/15, 0, 0)),
        (ETA_FLUX, "eta^2", "HRB sin", (0, 0, 32/105, 0, -10/21, 0, 0, 0, 0)),
        (GAMMA_FLUX, "gamma eta", "HRB cos", (0, 0, 0, -0.05, 0, 0.65, 5/12, 0, 0)),
        (GAMMA_FLUX, "gamma eta", "HRB sin", (0, 0, 7/15, 0, -89/120, 0, 0, 0, 0))),
}.items() for row in rows)

# The low-order model: each group's leading slope order, no source or HRB row
LEADING = {"gravity_tangential": "1", "gravity_normal": "x1", "van_der_waals": "x1"}
LOW_ORDER = tuple((g, part, pre, m, tuple(c if b == LEADING[g] else 0
                                          for b, c in zip(BASIS, coefs)))
                  for g, part, pre, m, coefs in CORRECTIONS if g in LEADING and part != SOURCE)


@functools.lru_cache(maxsize=64)
def _plan(full: bool, on: frozenset, multipliers: tuple):
    """The switched-on table rows with nonzero multipliers, the BASIS names
    they read and their weights (multiplier * coefs) on those names."""
    values = dict(zip(MULTIPLIERS, multipliers))
    rows = tuple(r for r in (CORRECTIONS if full else LOW_ORDER)
                 if r[0] in on and values[r[3]] != 0.0)
    weights = np.reshape([values[m] * np.array(c, dtype=float) for *_, m, c in rows],
                         (len(rows), len(BASIS)))
    read = weights.any(axis=0)
    weights = weights[:, read]
    weights.flags.writeable = False  # shared by every call with this key
    return rows, tuple(b for b, r in zip(BASIS, read) if r), weights


def _groups(variant: ModelVariant, state: State, params: Params, grid: Grid):
    """Yield (name, eta flux, gamma flux, gamma source) per switched-on group.

    None stands for an absent part; every other part is a fresh array, or
    a row of one, that the caller may add into.  A batched state (fields of
    shape (..., n_nodes)) yields parts of the same shape, each row
    bit-identical to evaluating that row alone.  A state of the wrong
    length fails in the first stencil with ValueError.
    """
    ops = stencil_ops(grid)
    eta, gam = state.eta, state.gamma

    on = params.toggles - DE_WIT_DELETES if variant is ModelVariant.DE_WIT else params.toggles
    A = params.tension_slope
    sin_t, cos_t = math.sin(params.incline), math.cos(params.incline)
    hrb = params.hamaker * params.reynolds * params.bond
    rows, reads, weights = _plan(
        variant is ModelVariant.FULL_CM, on,
        (params.bond * sin_t, params.bond * cos_t, params.hamaker, hrb * cos_t, hrb * sin_t))
    ds = params.inv_peclet
    geometric = ds != 0.0 and "geometric_diffusion" in on

    ghost = ops.ghosted(state.fields)  # one gather and one d1 for both fields
    ghost_eta, ghost_gam = map(Ghosted, ghost.padded)
    etx, gmx = ops.d1(ghost)
    e2 = eta * eta
    e3 = e2 * eta
    ge = gam * eta
    # eta_xx, eta_x^2 and eta*eta_xx only where a group or a read column uses them
    curved = not {"eta x2", "eta x1 x2", "eta^2 x2^2"}.isdisjoint(reads)

    # Marangoni: the tension 1 + A*(1 - gamma) has slope -A*gamma_x
    if "marangoni" in on and A != 0.0:
        agx = A * gmx
        yield "marangoni", 0.5 * e2 * agx, ge * agx, None

    etxx = ops.d2(ghost_eta) if "capillary" in on or curved else None

    # Capillary: the product tension * eta_xx reflects evenly at symmetric
    # walls (wraps on rings), so its d1 is exactly 0 at a wall node
    if "capillary" in on:
        curv = ops.d1(surface_tension(gam, A) * etxx)
        yield "capillary", (-1.0 / 3.0) * e3 * curv, -0.5 * ge * eta * curv, None

    # Surface diffusion of surfactant (x1s = eta_x^2 serves the corrections too)
    x1s = etx * etx if geometric or not {"x1^2", "x1^3", "x1^4"}.isdisjoint(reads) else None
    if ds != 0.0:
        if geometric:
            slope2 = 1.0 + x1s
            source = ds / np.sqrt(slope2) * ops.div_flux(gmx / slope2)
        else:
            source = ds * ops.d2(ghost_gam)
        yield "diffusion", None, None, source
    if not reads:
        return

    # The corrections: the basis columns the rows read, contracted with their
    # weights in numpy's own loop (no BLAS: a batch row keeps its single-row
    # bits), each row then times its prefactor
    ex2 = eta * etxx if curved else None
    etxxx = ops.d3(ghost_eta) if "eta^2 x3" in reads else None
    column = {  # name: the two factors whose product it is
        "1": (1.0, 1.0), "x1": (etx, 1.0), "x1^2": (x1s, 1.0), "x1^3": (x1s, etx),
        "eta x2": (ex2, 1.0), "eta x1 x2": (ex2, etx), "eta^2 x3": (e2, etxxx),
        "eta^2 x2^2": (ex2, ex2), "x1^4": (x1s, x1s)}
    buf = np.empty((len(reads) + len(rows), *eta.shape))  # one block: less heap growth
    basis, mixed = buf[:len(reads)], buf[len(reads):]
    for name, row in zip(reads, basis):
        np.multiply(*column[name], out=row)
    # fewer live arrays: a lower peak on large batches
    del column, ghost, ghost_eta, ghost_gam, etxx, etx, x1s, ex2, etxxx
    np.einsum("tk,k...->t...", weights, basis, out=mixed)
    made = {"1": 1.0, "eta": eta, "gamma": gam, "gamma_x": gmx,
            "eta^2": e2, "eta^3": e3, "gamma eta": ge}  # each prefactor made once
    parts = {row[0]: [None, None, None] for row in rows}  # in table order
    for (group, part, pre, _, _), term in zip(rows, mixed):
        if pre not in made:
            left, right = PREFACTORS[pre]
            made[pre] = (np.divide if "/" in pre else np.multiply)(made[left], made[right])
        term *= made[pre]
        p = parts[group]  # the first row of a part takes the sum
        p[part] = term if p[part] is None else np.add(p[part], term, out=p[part])
    for group, p in parts.items():
        yield (group, *p)


def rhs(variant: ModelVariant, state: State, params: Params, grid: Grid) -> Rhs:
    """Evaluate the selected model's right-hand side on the grid: the parts
    of all groups are summed, then one ``div_flux`` takes both fluxes.
    ``state`` may be a batch of shape (..., n_nodes); see ``State``.  The
    arrays are read-only, so rows of a batch can be shared as views."""
    totals = [None, None, None]
    for _, *parts in _groups(variant, state, params, grid):
        for i, part in enumerate(parts):
            if part is not None:  # parts are fresh: the first of each kind takes the sum
                totals[i] = part if totals[i] is None else np.add(totals[i], part, out=totals[i])
    eta_flux, gamma_flux, source = (np.zeros(state.eta.shape) if t is None else t
                                    for t in totals)
    div = stencil_ops(grid).div_flux(np.array((eta_flux, gamma_flux)))
    div[1] += source
    div.flags.writeable = False
    return Rhs(*div)


def rhs_breakdown(variant: ModelVariant, state: State, params: Params,
                  grid: Grid) -> TermBreakdown:
    """As ``rhs`` but reporting each term group's contribution separately;
    switched-off groups contribute zeros."""
    ops = stencil_ops(grid)
    zero = np.zeros(state.eta.shape)
    contributions = {name: Rhs(zero.copy(), zero.copy()) for name in BREAKDOWN_GROUPS}
    for name, *parts in _groups(variant, state, params, grid):
        eta_flux, gamma_flux, source = (zero if p is None else p for p in parts)
        contributions[name] = Rhs(ops.div_flux(eta_flux),
                                  ops.div_flux(gamma_flux) + source)
    return TermBreakdown(contributions)
