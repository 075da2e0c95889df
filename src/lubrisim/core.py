"""Shared data model: nondimensional parameters, grid, state; the CSV format.

Naming convention used throughout the package: ``eta`` is the film
thickness, ``gamma`` is the surfactant concentration on the free surface,
and arrays of the (concentration dependent) surface tension are always
called ``tension`` to avoid the clash between the two conventional gammas.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

# Term groups of the evolution equations that can be switched on and off at
# runtime.  ``geometric_diffusion`` is special: it selects the slope-corrected
# form of the surfactant diffusion term; switching it off falls back to the
# plain second-derivative form (the diffusion term itself is always present,
# scaled by ``inv_peclet``).
TERM_GROUPS = (
    "marangoni",
    "capillary",
    "gravity_tangential",
    "gravity_normal",
    "van_der_waals",
    "inertia_cross_HRB",
    "geometric_diffusion",
)
ALL_TOGGLES = frozenset(TERM_GROUPS)

# Film thickness floor, a State invariant: below it the 1/eta van der Waals
# terms are meaningless, so no State holds a thinner node and rhs and
# reconstruct evaluate every State they are given.
ETA_FLOOR = 1e-8

STANDARD_GRAVITY_CGS = 981.0

# Bond number used by the built-in presets.  The defining formula
# rho*g*H^2/gamma0 applied to the same preset fluid with g = 981 cm/s^2 gives
# ~3.27e-9 instead; the presets keep the smaller conventional value while
# nondimensionalize() always returns the formula value, so both are visible.
PRESET_BOND_NUMBER = 3.0e-11


class PositivityError(ValueError):
    """Film thickness at some node lies below ETA_FLOOR.  Raised where a
    State is built, so a Newton update that thins the film past the floor
    stops its step there."""

    def __init__(self, node: int, value: float):
        super().__init__(
            f"film thickness {value:.6e} at node {node} violates the "
            f"positivity floor {ETA_FLOOR:.0e}"
        )
        self.node = node
        self.value = value

    @classmethod
    def at_minimum(cls, eta: np.ndarray) -> "PositivityError":
        """The error for the thinnest node of eta, or of any row of a stack."""
        flat = int(np.argmin(eta))
        return cls(flat % eta.shape[-1], float(eta.flat[flat]))


class ModelVariant(enum.Enum):
    """Which evolution model supplies the right-hand side."""

    FULL_CM = "full"
    LOW_ORDER_CM = "loworder"
    DE_WIT = "dewit"


class BoundaryKind(enum.Enum):
    NO_FLUX_SYMMETRIC = "no_flux_symmetric"
    PERIODIC = "periodic"


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class Params:
    """Nondimensional constants plus the term-group switches.

    reynolds, bond, hamaker and inv_peclet are the usual R, B, H and
    delta_s groups; tension_slope is the coefficient A of the linear
    surface-tension law 1 + A*(1 - gamma); incline is the substrate angle
    in radians (0 = horizontal).
    """

    reynolds: float = 3.0
    bond: float = PRESET_BOND_NUMBER
    hamaker: float = 1e-3
    inv_peclet: float = 1.0 / 300.0
    tension_slope: float = 1.0
    incline: float = 0.0
    toggles: frozenset[str] = ALL_TOGGLES

    def __post_init__(self):
        for name in ("reynolds", "bond", "hamaker", "inv_peclet",
                     "tension_slope", "incline"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.inv_peclet < 0:
            raise ValueError(f"inv_peclet must be >= 0, got {self.inv_peclet}")
        toggles = frozenset(self.toggles)
        unknown = toggles - set(TERM_GROUPS)
        if unknown:
            raise ValueError(f"unknown term-group toggles: {sorted(unknown)}")
        object.__setattr__(self, "toggles", toggles)


@dataclass(frozen=True)
class Grid:
    """Uniform vertex-centred 1-D mesh with endpoints on the boundary."""

    n_nodes: int
    length: float
    boundary: BoundaryKind = BoundaryKind.NO_FLUX_SYMMETRIC

    def __post_init__(self):
        if int(self.n_nodes) != self.n_nodes or self.n_nodes < 5:
            raise ValueError(f"n_nodes must be an integer >= 5, got {self.n_nodes}")
        object.__setattr__(self, "n_nodes", int(self.n_nodes))
        length = _require_finite("length", self.length)
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        object.__setattr__(self, "length", length)
        if not isinstance(self.boundary, BoundaryKind):
            object.__setattr__(self, "boundary", BoundaryKind(self.boundary))

    @property
    def dx(self) -> float:
        return self.length / (self.n_nodes - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.n_nodes)


def _nodal_array(name: str, values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim == 0:
        raise ValueError(f"{name} must be an array of nodal values, got a scalar")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class State:
    """Discrete (eta, gamma) fields at one time level.

    The fields are 1-D arrays over the nodes, or stacks of shape
    (..., n_nodes) holding a batch of states that share t; the stack form
    lets one ``rhs`` call evaluate many states and is validated once:
    finite, with every film thickness at least ETA_FLOOR, else
    PositivityError names the first thinnest node within its row.
    Immutable after construction: both fields are copied once into
    ``fields`` (2, ..., n_nodes), read-only, and eta and gamma are its row
    views, so states can be shared freely; a State hashes and compares by
    identity, keying the linearisation cache.
    """

    eta: np.ndarray
    gamma: np.ndarray
    t: float = 0.0
    fields: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        try:  # the fast path: one copy, one finiteness and one floor check
            fields = np.array((self.eta, self.gamma), dtype=float)
        except ValueError:  # unequal shapes, or no numbers
            fields = None
        if fields is None or fields.ndim < 2 or not np.isfinite(fields).all():
            # the per-field checks name the first fault
            eta, gamma = _nodal_array("eta", self.eta), _nodal_array("gamma", self.gamma)
            raise ValueError(f"eta and gamma must have equal shapes, "
                             f"got {eta.shape} vs {gamma.shape}")
        if not (fields[0] >= ETA_FLOOR).all():
            raise PositivityError.at_minimum(fields[0])
        fields.setflags(write=False)
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "eta", fields[0])
        object.__setattr__(self, "gamma", fields[1])
        object.__setattr__(self, "t", _require_finite("t", self.t))

    @property
    def n_nodes(self) -> int:
        return self.eta.shape[-1]


@dataclass(frozen=True)
class DimensionalInputs:
    """Dimensional fluid data (CGS or any coherent unit system)."""

    surface_tension: float        # force / length
    viscosity: float              # mass / (length * time)
    density: float                # mass / length^3
    surface_diffusivity: float    # length^2 / time
    film_thickness: float         # length
    hamaker_constant: float       # energy
    gravity: float = STANDARD_GRAVITY_CGS  # length / time^2

    def __post_init__(self):
        for name in ("surface_tension", "viscosity", "density",
                     "surface_diffusivity", "film_thickness",
                     "hamaker_constant", "gravity"):
            value = _require_finite(name, getattr(self, name))
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, value)


def reference_cgs_inputs() -> DimensionalInputs:
    """The reference CGS fluid used by the built-in presets."""
    return DimensionalInputs(
        surface_tension=30.0,
        viscosity=1e-2,
        density=1.0,
        surface_diffusivity=1e-4,
        film_thickness=1e-5,
        hamaker_constant=1e-12,
        gravity=STANDARD_GRAVITY_CGS,
    )


def nondimensionalize(dims: DimensionalInputs, *, tension_slope: float = 1.0,
                      incline: float = 0.0, toggles=ALL_TOGGLES) -> Params:
    """Map dimensional fluid data to the nondimensional groups.

    R  = gamma0 * rho * H / mu^2     (Reynolds)
    B  = rho * g * H^2 / gamma0      (Bond)
    H  = Ha * rho / (H * mu^2)       (Hamaker)
    ds = Ds * mu / (gamma0 * H)      (inverse Peclet)
    """
    g0 = dims.surface_tension
    mu = dims.viscosity
    rho = dims.density
    h = dims.film_thickness
    return Params(
        reynolds=g0 * rho * h / mu**2,
        bond=rho * dims.gravity * h**2 / g0,
        hamaker=dims.hamaker_constant * rho / (h * mu**2),
        inv_peclet=dims.surface_diffusivity * mu / (g0 * h),
        tension_slope=tension_slope,
        incline=incline,
        toggles=toggles,
    )


def surface_tension(gamma_field, tension_slope: float) -> np.ndarray:
    """Linear constitutive law: tension = 1 + A*(1 - gamma), elementwise."""
    gamma_field = np.asarray(gamma_field, dtype=float)
    return 1.0 + tension_slope * (1.0 - gamma_field)


def write_csv(path, header: str, rows) -> None:
    """A table of floats at 17 significant digits, so values survive the text;
    None is written as nan."""
    table = np.asarray(rows, dtype=float)
    line = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # one format call over Python floats, which format faster than numpy scalars
        fh.write(header + "\n" + line * len(table) % tuple(table.ravel().tolist()))
