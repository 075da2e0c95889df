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

The low-order model keeps the leading flux of each gravity/vdW group and
no HRB group; the de Wit baseline is the low-order model minus
DE_WIT_DELETES: both gravity groups and the diffusion slope correction.

Each group is written in flux form: a nodal eta flux, a nodal gamma flux
and its non-divergence gamma terms as a pointwise source (surface diffusion
keeps its inner derivative there), factored over products shared between
groups, each computed only when a switched-on group reads it.  ``div_flux``
is linear and works row by row, so ``rhs`` sums the fluxes of all groups
and makes one ``div_flux`` call on the stacked (eta flux, gamma flux) pair,
keeping the eta equation conservative to round-off; ``rhs_breakdown`` takes
the divergence per group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TERM_GROUPS, Grid, ModelVariant, Params, State, surface_tension
from .discretization import stencil_ops

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


def _groups(variant: ModelVariant, state: State, params: Params, grid: Grid):
    """Yield (name, eta flux, gamma flux, gamma source) per switched-on group.

    None stands for an absent part; every other part is a fresh array that
    the caller may add into.  A batched state (fields of shape
    (..., n_nodes)) yields parts of the same shape, each row bit-identical
    to evaluating that row alone.  A state of the wrong length fails in the
    first stencil with ValueError.
    """
    ops = stencil_ops(grid)
    eta, gam = state.eta, state.gamma

    on = params.toggles - DE_WIT_DELETES if variant is ModelVariant.DE_WIT else params.toggles
    A = params.tension_slope
    sin_t, cos_t = math.sin(params.incline), math.cos(params.incline)
    bs, bc = params.bond * sin_t, params.bond * cos_t
    hm = params.hamaker
    hrb = hm * params.reynolds * params.bond
    hs, hc = hrb * sin_t, hrb * cos_t
    ds = params.inv_peclet

    full = variant is ModelVariant.FULL_CM
    tangential = "gravity_tangential" in on and bs != 0.0
    normal = "gravity_normal" in on and bc != 0.0
    vdw = "van_der_waals" in on and hm != 0.0
    cross = "inertia_cross_HRB" in on and full and hrb != 0.0
    geometric = ds != 0.0 and "geometric_diffusion" in on

    ghost_eta, ghost_gam = ops.ghosted(eta), ops.ghosted(gam)  # one gather each
    etx, gmx = ops.d1(ghost_eta), ops.d1(ghost_gam)
    e2 = eta * eta
    e3 = e2 * eta
    ge = gam * eta

    # Marangoni: the tension 1 + A*(1 - gamma) has slope -A*gamma_x
    if "marangoni" in on and A != 0.0:
        agx = A * gmx
        yield "marangoni", 0.5 * e2 * agx, ge * agx, None

    corrections = full and (tangential or normal or vdw or cross)
    if "capillary" in on or corrections:  # eta_xx on nodes -1..N; d2 is its interior
        etxx_h = ops.halo_d2(ghost_eta)
        etxx = etxx_h[..., 1:-1]

    # Capillary: the inner (tension * eta_xx)_x needs a one-node halo.
    if "capillary" in on:
        tension_h = surface_tension(ops.halo(ghost_gam), A)
        curv = ops.d1_center(tension_h * etxx_h)
        yield "capillary", (-1.0 / 3.0) * e3 * curv, -0.5 * ge * eta * curv, None

    # Surface diffusion of surfactant (x1s = eta_x^2 serves the corrections too)
    if geometric or corrections:
        x1s = etx * etx
    if ds != 0.0:
        if geometric:
            slope2 = 1.0 + x1s
            source = ds / np.sqrt(slope2) * ops.div_flux(gmx / slope2)
        else:
            source = ds * ops.d2(ghost_gam)
        yield "diffusion", None, None, source

    # Products shared by the corrections below (x1, x2, x3 = eta_x, eta_xx,
    # eta_xxx), each computed only when a switched-on group reads it
    if full and (normal or vdw or cross):
        etxxx = ops.d3(ghost_eta)
        x1c = x1s * etx
        x12 = etx * etxx
        ex12 = eta * x12
        e2x3 = e2 * etxxx
    if tangential or normal:
        ge2 = ge * eta
    del ghost_eta, ghost_gam  # fewer live arrays: a lower peak on large batches

    # Gravity, tangential component (absent from the de Wit baseline)
    if tangential:
        if full:
            yield ("gravity_tangential",
                   -bs * e3 * (1.0 / 3.0 + (7.0 / 3.0) * x1s + eta * etxx),
                   -bs * ge2 * (0.5 + (5.0 / 3.0) * eta * etxx + (17.0 / 4.0) * x1s),
                   bs * x1s * (1.5 * ge * etx - 0.25 * gmx * e2))
        else:
            yield "gravity_tangential", (-bs / 3.0) * e3, (-bs / 2.0) * ge2, None

    # Gravity, normal component
    if normal:
        if full:
            yield ("gravity_normal",
                   bc * e3 * (etx / 3.0 + 0.6 * e2x3 + 4.0 * ex12 + (7.0 / 3.0) * x1c),
                   bc * ge2 * (0.5 * etx + 4.0 * x1c + (20.0 / 3.0) * ex12 + e2x3),
                   bc * (ge * (e2 * etxx * etxx / 3.0 - x1s * x1s)
                         + gmx * e2 * (0.5 * x1c + ex12 / 3.0)))
        else:
            yield "gravity_normal", (bc / 3.0) * e3 * etx, (bc / 2.0) * ge2 * etx, None

    # Van der Waals disjoining forces
    if vdw:
        if full:
            yield ("van_der_waals",
                   hm * (9.6 * x12 - 1.8 * eta * etxxx - (etx + 7.0 * x1c) / eta),
                   hm * gam * ((16.0 * x12 - (1.5 * etx + (32.0 / 3.0) * x1c) / eta) / eta
                               - 3.0 * etxxx),
                   hm / eta * (gmx * ((7.0 / 6.0) * x1c / eta - x12)
                               - gam * (x1s * x1s / (3.0 * e2) + etxx * etxx)))
        else:
            yield "van_der_waals", -hm * (etx / eta), (-1.5 * hm) * gam * etx / e2, None

    # Inertia / gravity / vdW cross terms (comprehensive model only); a
    # horizontal substrate has no sin(theta) part
    if cross:
        eta_flux = hc * ((44.0 / 105.0) * ex12 + (4.0 / 15.0) * e2x3
                         - (4.0 / 105.0) * x1c)
        gamma_flux = hc * (0.65 * ex12 + (5.0 / 12.0) * e2x3 - 0.05 * x1c)
        if hs != 0.0:
            ex2 = eta * etxx
            eta_flux += hs * ((32.0 / 105.0) * x1s - (10.0 / 21.0) * ex2)
            gamma_flux += hs * ((7.0 / 15.0) * x1s - (89.0 / 120.0) * ex2)
        yield "inertia_cross_HRB", e2 * eta_flux, ge * gamma_flux, None


def rhs(variant: ModelVariant, state: State, params: Params, grid: Grid) -> Rhs:
    """Evaluate the selected model's right-hand side on the grid: the parts
    of all groups are summed, then one ``div_flux`` takes both fluxes.
    ``state`` may be a batch of shape (..., n_nodes); see ``State``.  The
    arrays are read-only, so rows of a batch can be shared as views."""
    totals = [None, None, None]
    for group in _groups(variant, state, params, grid):
        for i, part in enumerate(group[1:]):
            if part is not None:  # parts are fresh: the first of each kind takes the sum
                totals[i] = part if totals[i] is None else np.add(totals[i], part, out=totals[i])
    eta_flux, gamma_flux, source = (np.zeros(state.eta.shape) if t is None else t
                                    for t in totals)
    div = stencil_ops(grid).div_flux(np.array((eta_flux, gamma_flux)))
    out = Rhs(div[0], div[1] + source)
    out.deta_dt.flags.writeable = out.dgamma_dt.flags.writeable = False
    return out


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
