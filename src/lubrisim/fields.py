"""Reconstruction of the fluid fields u, v, p from (eta, gamma).

The velocity and pressure are low-degree polynomials in the stretched
normal coordinate zeta = y/eta (zeta = 1 is the free surface), with
x-dependent coefficients built from eta, gamma and their derivatives.
Each term belongs to one of the runtime term groups, so reconstruction
honours the same toggles as the evolution models.  The reconstruction is
diagnostic only; it never feeds back into time stepping.

Note on the down-slope velocity: the leading tangential-gravity term is
implemented with the zeta - zeta^2/2 profile shared by every other
leading term.  Only that profile integrates to the eta^3/3 drainage flux
of the thickness equation, so the linear-in-zeta variant that sometimes
appears in transcriptions of this series is treated as a slip of the pen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ETA_FLOOR,
    Grid,
    Params,
    PositivityError,
    State,
    surface_tension,
    write_csv,
)
from .discretization import stencil_ops

__all__ = ["FieldGrid", "reconstruct", "depth_flux", "write_fields_csv"]

# zeta-profiles shared by several terms, as {power: coefficient}
_PARABOLIC = {1: 1.0, 2: -0.5}


@dataclass(frozen=True)
class FieldGrid:
    """Fields sampled on the tensor grid of nodes times zeta levels."""

    x: np.ndarray           # (n_nodes,)
    zeta: np.ndarray        # (n_levels,)
    u: np.ndarray           # (n_levels, n_nodes)
    v: np.ndarray
    p: np.ndarray


def _series(state: State, params: Params, grid: Grid):
    """Term tables for u, v, p: lists of (coefficient array, zeta poly)."""
    if not (state.eta >= ETA_FLOOR).all():
        raise PositivityError.at_minimum(state.eta)

    ops = stencil_ops(grid)
    eta = state.eta
    gam = state.gamma
    etx = ops.d1(eta)
    etxx = ops.d2(eta)
    etxxx = ops.d3(eta)
    A = params.tension_slope
    tension = surface_tension(gam, A)
    tension_x = -A * ops.d1(gam)
    tension_xx = -A * ops.d2(gam)
    theta = params.incline
    bs = params.bond * math.sin(theta)
    bc = params.bond * math.cos(theta)
    hm = params.hamaker
    on = params.toggles

    u_terms = []
    v_terms = []
    p_terms = []

    if "gravity_tangential" in on:
        u_terms.append((bs * eta**2, _PARABOLIC))
        u_terms.append((bs * eta**3 * etxx, {1: 2.5, 2: -0.5, 3: -1.0 / 3.0}))
        v_terms.append((-bs * eta**2 * etx, {2: 0.5}))
        v_terms.append((-bs * eta**2 * etx**3, {2: 2.5}))
        v_terms.append((-bs * eta**3 * etx * etxx, {2: 7.5, 3: -0.5}))
        v_terms.append((-bs * eta**4 * etxxx, {2: 1.25, 3: -1.0 / 6.0, 4: -1.0 / 12.0}))
        p_terms.append((-bs * eta * etx, {0: 1.0, 1: 1.0}))
        p_terms.append((-bs * eta * etx**3, {0: 9.0, 1: 5.0}))
        p_terms.append((-bs * eta**2 * etx * etxx, {0: 13.5, 1: 15.0, 2: -1.5}))

    if "van_der_waals" in on:
        u_terms.append((hm * etx / eta**2, {1: 3.0, 2: -1.5}))
        v_terms.append((hm * etx**2 / eta**2, {2: 4.5, 3: -2.0}))
        v_terms.append((-hm * etxx / eta, {2: 1.5, 3: -0.5}))
        p_terms.append((hm * etx**2 / eta**3, {0: 3.0, 1: 9.0, 2: -6.0}))
        p_terms.append((-hm * etxx / eta**2, {0: 1.5, 1: 3.0, 2: -1.5}))

    if "gravity_normal" in on:
        u_terms.append((-bc * eta**2 * etx, _PARABOLIC))
        v_terms.append((bc * eta**2 * etx**2, {2: 0.5}))
        v_terms.append((bc * eta**3 * etxx, {2: 0.5, 3: -1.0 / 6.0}))
        p_terms.append((bc * eta, {0: 1.0, 1: -1.0}))
        p_terms.append((bc * eta * etx**2, {0: 1.0, 1: 1.0}))
        p_terms.append((bc * eta**2 * etxx, {0: 0.5, 1: 1.0, 2: -0.5}))

    if "capillary" in on:
        u_terms.append((tension * eta**2 * etxxx, _PARABOLIC))
        p_terms.append((-tension * etxx, {0: 1.0}))

    if "marangoni" in on:
        u_terms.append((eta * tension_x, {1: 1.0}))
        v_terms.append((-eta**2 * tension_xx, {2: 0.5}))
        p_terms.append((-A * (1.0 - gam) * etxx, {0: 1.0}))
        p_terms.append((-2.0 * etx * tension_x, {0: 1.0}))
        p_terms.append((-eta * tension_xx, {0: 1.0, 1: 1.0}))

    return u_terms, v_terms, p_terms


def _poly_at(poly: dict, zeta: float) -> float:
    return sum(c * zeta**p for p, c in poly.items())


def reconstruct(state: State, params: Params, grid: Grid,
                zeta_levels) -> FieldGrid:
    """Sample u, v, p at every node for each requested zeta in [0, 1]."""
    zeta = np.asarray(list(zeta_levels), dtype=float)
    if zeta.size == 0:
        raise ValueError("zeta_levels must not be empty")
    if np.any((zeta < 0.0) | (zeta > 1.0)):
        raise ValueError("zeta levels must lie in [0, 1]")
    u_terms, v_terms, p_terms = _series(state, params, grid)
    n = grid.n_nodes
    shape = (zeta.size, n)
    u = np.zeros(shape)
    v = np.zeros(shape)
    p = np.zeros(shape)
    for m, z in enumerate(zeta):
        for coef, poly in u_terms:
            u[m] += coef * _poly_at(poly, z)
        for coef, poly in v_terms:
            v[m] += coef * _poly_at(poly, z)
        for coef, poly in p_terms:
            p[m] += coef * _poly_at(poly, z)
    return FieldGrid(x=grid.x, zeta=zeta, u=u, v=v, p=p)


def depth_flux(state: State, params: Params, grid: Grid) -> np.ndarray:
    """Depth-integrated lateral flux Q(x) = integral_0^1 u * eta dzeta.

    The u series is polynomial in zeta, so the quadrature is exact.
    """
    u_terms, _, _ = _series(state, params, grid)
    q = np.zeros(grid.n_nodes)
    for coef, poly in u_terms:
        weight = sum(c / (power + 1.0) for power, c in poly.items())
        q += coef * weight
    return q * state.eta


def write_fields_csv(fg: FieldGrid, path) -> None:
    """CSV export with columns x, zeta, u, v, p (x-major order)."""
    x, zeta = np.meshgrid(fg.x, fg.zeta, indexing="ij")
    write_csv(path, "x,zeta,u,v,p", np.column_stack(
        [a.ravel() for a in (x, zeta, fg.u.T, fg.v.T, fg.p.T)]))
