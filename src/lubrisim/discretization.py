"""Centred second-order spatial operators with ghost-node boundary closure.

Two ghost layers back every stencil.  For symmetric (no-flux) walls the
fields are reflected evenly, which makes d1 vanish exactly at the wall
nodes but d3 only to round-off: its sum (p[+2] - 2p[+1]) + 2p[-1] - p[-2]
leaves up to 1.8e-15 on random smooth O(1) fields.  Periodic grids carry a
duplicated endpoint (node 0 and node N-1 are the same point) and wrap.

``div_flux`` is the conservative outer derivative used for every flux
group of the evolution equations.  On periodic grids a flux wraps like a
field, so div_flux is d1.  On symmetric grids its ghost rule for a flux
array F is F[-1] = 2*F[0] - F[1] (antisymmetric about the boundary value).
Either way the trapezoidal grid sum of div_flux(F) telescopes exactly to
F[N-1] - F[0]: zero for wall-vanishing fluxes and for periodic fluxes,
while a constant F still differentiates to exactly zero everywhere.
"""

from __future__ import annotations

import functools
import typing

import numpy as np

from .core import BoundaryKind, Grid, State


class Ghosted(typing.NamedTuple):
    """A field (or stack) with its ghost nodes gathered, from
    ``StencilOps.ghosted``: the stencil methods take it in place of the
    field, so several stencils of one field share one gather."""

    padded: np.ndarray


class StencilOps:
    """Derivative and integral operators bound to one grid.

    Every operator acts on the last axis, so a stack of fields of shape
    (..., n_nodes) is differentiated row by row in one call, with results
    bit-identical to the per-row evaluation.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.dx = grid.dx
        n = grid.n_nodes
        if grid.boundary is BoundaryKind.NO_FLUX_SYMMETRIC:
            left, right = [2, 1], [n - 2, n - 3]
        else:
            left, right = [n - 3, n - 2], [1, 2]
        # gather index of the padded array: two ghost nodes per side
        self._pad_index = np.concatenate((left, np.arange(n), right))

    def _check(self, f, n_extra: int = 0) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        n = self.grid.n_nodes + n_extra
        if f.ndim == 0 or f.shape[-1] != n:
            raise ValueError(f"expected trailing length {n}, got shape {f.shape}")
        return f

    def ghosted(self, f) -> Ghosted:
        """f extended by two ghost nodes per side (trailing length n_nodes + 4)."""
        return Ghosted(self._pad(f))

    def _pad(self, f) -> np.ndarray:
        return f.padded if isinstance(f, Ghosted) else self._check(f)[..., self._pad_index]

    # Field derivatives at the nodes, trailing length n_nodes.

    def d1(self, f) -> np.ndarray:
        p = self._pad(f)
        return (p[..., 3:-1] - p[..., 1:-3]) / (2.0 * self.dx)

    def d2(self, f) -> np.ndarray:
        p = self._pad(f)
        return (p[..., 3:-1] - 2.0 * p[..., 2:-2] + p[..., 1:-3]) / self.dx**2

    def d3(self, f) -> np.ndarray:
        p = self._pad(f)
        return (p[..., 4:] - 2.0 * p[..., 3:-1] + 2.0 * p[..., 1:-3]
                - p[..., :-4]) / (2.0 * self.dx**3)

    # Halo variants: values and derivatives on nodes -1..N (length n_nodes + 2).

    def halo(self, f) -> np.ndarray:
        return self._pad(f)[..., 1:-1]

    def halo_d1(self, f) -> np.ndarray:
        p = self._pad(f)
        return (p[..., 2:] - p[..., :-2]) / (2.0 * self.dx)

    def halo_d2(self, f) -> np.ndarray:
        p = self._pad(f)
        return (p[..., 2:] - 2.0 * p[..., 1:-1] + p[..., :-2]) / self.dx**2

    def d1_center(self, fh) -> np.ndarray:
        """Centred derivative of a halo array; result lives on the nodes."""
        fh = self._check(fh, n_extra=2)
        return (fh[..., 2:] - fh[..., :-2]) / (2.0 * self.dx)

    def div_flux(self, flux) -> np.ndarray:
        """Conservative d/dx of a nodal flux array (see module docstring)."""
        if self.grid.boundary is BoundaryKind.PERIODIC:
            return self.d1(flux)  # a periodic flux wraps like a field
        flux = self._check(flux)
        left = 2.0 * flux[..., :1] - flux[..., 1:2]
        right = 2.0 * flux[..., -1:] - flux[..., -2:-1]
        ext = np.concatenate((left, flux, right), axis=-1)
        return (ext[..., 2:] - ext[..., :-2]) / (2.0 * self.dx)

    def integrate(self, f):
        """Trapezoidal integral over the domain (per row of a stack)."""
        f = self._check(f)
        return self.dx * (f.sum(axis=-1) - 0.5 * (f[..., 0] + f[..., -1]))


# The operators of a grid, built once per (frozen, hashable) Grid.
stencil_ops = functools.lru_cache(maxsize=16)(StencilOps)


def film_mass(state: State, grid: Grid) -> float:
    """Total film volume: trapezoidal integral of eta."""
    return stencil_ops(grid).integrate(state.eta)


def surfactant_mass(state: State, grid: Grid) -> float:
    """Total surfactant: integral of gamma * sqrt(1 + eta_x^2).

    The root factor converts concentration per unit of free surface into
    concentration per unit of substrate.
    """
    ops = stencil_ops(grid)
    slope = ops.d1(state.eta)
    return ops.integrate(state.gamma * np.sqrt(1.0 + slope**2))
