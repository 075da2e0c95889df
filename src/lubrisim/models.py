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

Every d/dx(...) flux group is evaluated through ``div_flux`` with products
formed pointwise at the nodes first, so the eta equation is conservative
to round-off.  The non-divergence gamma groups are evaluated pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ETA_FLOOR, Grid, ModelVariant, Params, PositivityError, State
from .discretization import StencilOps

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


def _validate(state: State, grid: Grid) -> None:
    if state.n_nodes != grid.n_nodes:
        raise ValueError(
            f"state has {state.n_nodes} nodes but grid has {grid.n_nodes}"
        )
    if not (state.eta >= ETA_FLOOR).all():
        raise PositivityError.at_minimum(state.eta)


def _groups(variant: ModelVariant, state: State, params: Params, grid: Grid):
    """Yield (group name, deta contribution, dgamma contribution).

    A batched state (fields of shape (..., n_nodes)) yields contributions of
    the same shape, each row bit-identical to evaluating that row alone.
    """
    _validate(state, grid)
    ops = StencilOps(grid)
    eta = state.eta
    gam = state.gamma
    zero = np.zeros(eta.shape)

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
        de = -0.5 * ops.div_flux(e2 * tension_x)
        dg = -ops.div_flux(gam * eta * tension_x)
    else:
        de, dg = zero, zero
    yield "marangoni", de, dg

    # Capillary: the inner (tension * eta_xx)_x needs a one-node halo.
    if "capillary" in on:
        tension_h = 1.0 + A * (1.0 - ops.halo(gam))
        curv = ops.d1_center(tension_h * ops.halo_d2(eta))
        de = -(1.0 / 3.0) * ops.div_flux(e3 * curv)
        dg = -0.5 * ops.div_flux(gam * e2 * curv)
    else:
        de, dg = zero, zero
    yield "capillary", de, dg

    # Gravity, tangential component (absent from the de Wit baseline)
    if "gravity_tangential" in on and not dewit and bs != 0.0:
        if full:
            de = -bs * ops.div_flux(
                e3 / 3.0 + (7.0 / 3.0) * e3 * etx2 + e3 * eta * etxx
            )
            dg = bs * (
                ops.div_flux(
                    -0.5 * gam * e2
                    - (5.0 / 3.0) * gam * e3 * etxx
                    - (17.0 / 4.0) * gam * e2 * etx2
                )
                + 1.5 * gam * eta * etx3
                - 0.25 * gmx * e2 * etx2
            )
        else:
            de = -(bs / 3.0) * ops.div_flux(e3)
            dg = -(bs / 2.0) * ops.div_flux(gam * e2)
    else:
        de, dg = zero, zero
    yield "gravity_tangential", de, dg

    # Gravity, normal component
    if "gravity_normal" in on and not dewit and bc != 0.0:
        if full:
            de = bc * ops.div_flux(
                e3 * etx / 3.0
                + 0.6 * e3 * e2 * etxxx
                + 4.0 * e3 * eta * etx * etxx
                + (7.0 / 3.0) * e3 * etx3
            )
            dg = bc * (
                ops.div_flux(
                    0.5 * gam * e2 * etx
                    + 4.0 * gam * e2 * etx3
                    + (20.0 / 3.0) * gam * e3 * etx * etxx
                    + gam * e3 * eta * etxxx
                )
                - gam * eta * etx2 * etx2
                + gam * e3 * etxx * etxx / 3.0
                + 0.5 * gmx * e2 * etx3
                + gmx * e3 * etx * etxx / 3.0
            )
        else:
            de = (bc / 3.0) * ops.div_flux(e3 * etx)
            dg = (bc / 2.0) * ops.div_flux(gam * e2 * etx)
    else:
        de, dg = zero, zero
    yield "gravity_normal", de, dg

    # Van der Waals disjoining forces
    if "van_der_waals" in on and hm != 0.0:
        if full:
            de = hm * ops.div_flux(
                -etx / eta
                + 9.6 * etx * etxx
                - 1.8 * eta * etxxx
                - 7.0 * etx3 / eta
            )
            dg = hm * (
                ops.div_flux(
                    -1.5 * gam * etx / e2
                    - (32.0 / 3.0) * gam * etx3 / e2
                    + 16.0 * gam * etx * etxx / eta
                    - 3.0 * gam * etxxx
                )
                - gam * etx2 * etx2 / (3.0 * e3)
                - gam * etxx * etxx / eta
                + (7.0 / 6.0) * gmx * etx3 / e2
                - gmx * etx * etxx / eta
            )
        else:
            de = -hm * ops.div_flux(etx / eta)
            dg = -1.5 * hm * ops.div_flux(gam * etx / e2)
    else:
        de, dg = zero, zero
    yield "van_der_waals", de, dg

    # Inertia / gravity / vdW cross terms (comprehensive model only)
    if "inertia_cross_HRB" in on and full and hrb != 0.0:
        de = hrb * (
            sin_t * ops.div_flux(
                (32.0 / 105.0) * e2 * etx2 - (10.0 / 21.0) * e3 * etxx
            )
            + cos_t * ops.div_flux(
                (44.0 / 105.0) * e3 * etx * etxx
                + (4.0 / 15.0) * e3 * eta * etxxx
                - (4.0 / 105.0) * e2 * etx3
            )
        )
        dg = hrb * (
            sin_t * ops.div_flux(
                -(89.0 / 120.0) * gam * e2 * etxx + (7.0 / 15.0) * gam * eta * etx2
            )
            + cos_t * ops.div_flux(
                0.65 * gam * e2 * etx * etxx
                + (5.0 / 12.0) * gam * e3 * etxxx
                - 0.05 * gam * eta * etx3
            )
        )
    else:
        de, dg = zero, zero
    yield "inertia_cross_HRB", de, dg

    # Surface diffusion of surfactant
    if ds != 0.0:
        if dewit or "geometric_diffusion" not in on:
            dg = ds * ops.d2(gam)
        else:
            slope2 = 1.0 + etx2
            dg = ds / np.sqrt(slope2) * ops.div_flux(gmx / slope2)
    else:
        dg = zero
    yield "diffusion", zero, dg


def rhs(variant: ModelVariant, state: State, params: Params, grid: Grid) -> Rhs:
    """Evaluate the selected model's right-hand side on the grid.

    ``state`` may be a batch of shape (..., n_nodes); see ``State``.
    """
    de = np.zeros(state.eta.shape)
    dg = np.zeros(state.eta.shape)
    for _, de_part, dg_part in _groups(variant, state, params, grid):
        de = de + de_part
        dg = dg + dg_part
    return Rhs(de, dg)


def rhs_breakdown(variant: ModelVariant, state: State, params: Params,
                  grid: Grid) -> TermBreakdown:
    """As ``rhs`` but reporting each term group's contribution separately."""
    contributions = {
        name: Rhs(de, dg) for name, de, dg in _groups(variant, state, params, grid)
    }
    return TermBreakdown(contributions)
