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

The low-order model keeps only the leading flux of each gravity/vdW group;
the de Wit baseline additionally drops the gravity and HRB groups entirely
and always uses the plain (uncorrected) diffusion form.

Each group is written in flux form: a nodal eta flux, a nodal gamma flux
and its non-divergence gamma terms as a pointwise source (surface diffusion
keeps its inner derivative there).  ``div_flux`` is linear, so ``rhs`` sums
the fluxes of all groups and takes one divergence per field, which keeps
the eta equation conservative to round-off; ``rhs_breakdown`` takes the
divergence per group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ETA_FLOOR, Grid, ModelVariant, Params, PositivityError, State
from .discretization import stencil_ops

BREAKDOWN_GROUPS = (
    "marangoni",
    "capillary",
    "gravity_tangential",
    "gravity_normal",
    "van_der_waals",
    "inertia_cross_HRB",
    "diffusion",
)


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

    None stands for an absent part.  A batched state (fields of shape
    (..., n_nodes)) yields parts of the same shape, each row bit-identical
    to evaluating that row alone.  A state of the wrong length fails in the
    first stencil with ValueError.
    """
    if not (state.eta >= ETA_FLOOR).all():
        raise PositivityError.at_minimum(state.eta)
    ops = stencil_ops(grid)
    eta = state.eta
    gam = state.gamma

    on = params.toggles
    A = params.tension_slope
    theta = params.incline
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    bs = params.bond * sin_t
    bc = params.bond * cos_t
    hm = params.hamaker
    hrb = hm * params.reynolds * params.bond
    ds = params.inv_peclet

    full = variant is ModelVariant.FULL_CM
    dewit = variant is ModelVariant.DE_WIT

    etx = ops.d1(eta)
    etxx = ops.d2(eta)
    etxxx = ops.d3(eta)
    gmx = ops.d1(gam)
    tension_x = -A * gmx  # d/dx of 1 + A*(1 - gamma)
    e2 = eta * eta
    e3 = e2 * eta
    etx2 = etx * etx
    etx3 = etx2 * etx

    # Marangoni
    if "marangoni" in on and A != 0.0:
        yield "marangoni", -0.5 * e2 * tension_x, -gam * eta * tension_x, None

    # Capillary: the inner (tension * eta_xx)_x needs a one-node halo.
    if "capillary" in on:
        tension_h = 1.0 + A * (1.0 - ops.halo(gam))
        curv = ops.d1_center(tension_h * ops.halo_d2(eta))
        yield "capillary", -(1.0 / 3.0) * e3 * curv, -0.5 * gam * e2 * curv, None

    # Gravity, tangential component (absent from the de Wit baseline)
    if "gravity_tangential" in on and not dewit and bs != 0.0:
        if full:
            yield (
                "gravity_tangential",
                -bs * (e3 / 3.0 + (7.0 / 3.0) * e3 * etx2 + e3 * eta * etxx),
                bs * (
                    -0.5 * gam * e2
                    - (5.0 / 3.0) * gam * e3 * etxx
                    - (17.0 / 4.0) * gam * e2 * etx2
                ),
                bs * (1.5 * gam * eta * etx3 - 0.25 * gmx * e2 * etx2),
            )
        else:
            yield "gravity_tangential", -(bs / 3.0) * e3, -(bs / 2.0) * gam * e2, None

    # Gravity, normal component
    if "gravity_normal" in on and not dewit and bc != 0.0:
        if full:
            yield (
                "gravity_normal",
                bc * (
                    e3 * etx / 3.0
                    + 0.6 * e3 * e2 * etxxx
                    + 4.0 * e3 * eta * etx * etxx
                    + (7.0 / 3.0) * e3 * etx3
                ),
                bc * (
                    0.5 * gam * e2 * etx
                    + 4.0 * gam * e2 * etx3
                    + (20.0 / 3.0) * gam * e3 * etx * etxx
                    + gam * e3 * eta * etxxx
                ),
                bc * (
                    -gam * eta * etx2 * etx2
                    + gam * e3 * etxx * etxx / 3.0
                    + 0.5 * gmx * e2 * etx3
                    + gmx * e3 * etx * etxx / 3.0
                ),
            )
        else:
            yield ("gravity_normal", (bc / 3.0) * e3 * etx,
                   (bc / 2.0) * gam * e2 * etx, None)

    # Van der Waals disjoining forces
    if "van_der_waals" in on and hm != 0.0:
        if full:
            yield (
                "van_der_waals",
                hm * (
                    -etx / eta
                    + 9.6 * etx * etxx
                    - 1.8 * eta * etxxx
                    - 7.0 * etx3 / eta
                ),
                hm * (
                    -1.5 * gam * etx / e2
                    - (32.0 / 3.0) * gam * etx3 / e2
                    + 16.0 * gam * etx * etxx / eta
                    - 3.0 * gam * etxxx
                ),
                hm * (
                    -gam * etx2 * etx2 / (3.0 * e3)
                    - gam * etxx * etxx / eta
                    + (7.0 / 6.0) * gmx * etx3 / e2
                    - gmx * etx * etxx / eta
                ),
            )
        else:
            yield "van_der_waals", -hm * (etx / eta), -1.5 * hm * (gam * etx / e2), None

    # Inertia / gravity / vdW cross terms (comprehensive model only)
    if "inertia_cross_HRB" in on and full and hrb != 0.0:
        yield (
            "inertia_cross_HRB",
            hrb * (
                sin_t * ((32.0 / 105.0) * e2 * etx2 - (10.0 / 21.0) * e3 * etxx)
                + cos_t * (
                    (44.0 / 105.0) * e3 * etx * etxx
                    + (4.0 / 15.0) * e3 * eta * etxxx
                    - (4.0 / 105.0) * e2 * etx3
                )
            ),
            hrb * (
                sin_t * (
                    -(89.0 / 120.0) * gam * e2 * etxx
                    + (7.0 / 15.0) * gam * eta * etx2
                )
                + cos_t * (
                    0.65 * gam * e2 * etx * etxx
                    + (5.0 / 12.0) * gam * e3 * etxxx
                    - 0.05 * gam * eta * etx3
                )
            ),
            None,
        )

    # Surface diffusion of surfactant
    if ds != 0.0:
        if dewit or "geometric_diffusion" not in on:
            source = ds * ops.d2(gam)
        else:
            slope2 = 1.0 + etx2
            source = ds / np.sqrt(slope2) * ops.div_flux(gmx / slope2)
        yield "diffusion", None, None, source


def rhs(variant: ModelVariant, state: State, params: Params, grid: Grid) -> Rhs:
    """Evaluate the selected model's right-hand side on the grid: the parts
    of all groups are summed, then each field takes a single ``div_flux``.
    ``state`` may be a batch of shape (..., n_nodes); see ``State``."""
    totals = [np.zeros(state.eta.shape) for _ in range(3)]
    for _, *parts in _groups(variant, state, params, grid):
        for total, part in zip(totals, parts):
            if part is not None:
                total += part
    eta_flux, gamma_flux, source = totals
    ops = stencil_ops(grid)
    return Rhs(ops.div_flux(eta_flux), ops.div_flux(gamma_flux) + source)


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
