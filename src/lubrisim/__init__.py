"""Contaminated thin-film lubrication solver.

Simulates the coupled evolution of film thickness and insoluble surfactant
concentration with three interchangeable models (a comprehensive
centre-manifold model, its low-order truncation, and the classical de Wit
baseline), plus linear stability analysis, fluid-field reconstruction and
conservation diagnostics.
"""

from .core import (
    ALL_TOGGLES,
    ETA_FLOOR,
    PRESET_BOND_NUMBER,
    TERM_GROUPS,
    BoundaryKind,
    DimensionalInputs,
    Grid,
    ModelVariant,
    Params,
    PositivityError,
    State,
    nondimensionalize,
    reference_cgs_inputs,
    surface_tension,
)
from .discretization import StencilOps, film_mass, surfactant_mass
from .fields import FieldGrid, depth_flux, reconstruct
from .models import Rhs, TermBreakdown, rhs, rhs_breakdown
from .stability import (
    DispersionResult,
    char_poly_coeffs,
    dispersion,
    dispersion_scan,
    mode_amplitude_ratio,
)
from .timestepper import (
    SimulationResult,
    StepConfig,
    StepReport,
    advance,
    jacobian_fd,
    residual,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_TOGGLES",
    "ETA_FLOOR",
    "PRESET_BOND_NUMBER",
    "TERM_GROUPS",
    "BoundaryKind",
    "DimensionalInputs",
    "DispersionResult",
    "FieldGrid",
    "Grid",
    "ModelVariant",
    "Params",
    "PositivityError",
    "Rhs",
    "SimulationResult",
    "State",
    "StencilOps",
    "StepConfig",
    "StepReport",
    "TermBreakdown",
    "advance",
    "char_poly_coeffs",
    "depth_flux",
    "dispersion",
    "dispersion_scan",
    "film_mass",
    "jacobian_fd",
    "mode_amplitude_ratio",
    "nondimensionalize",
    "reconstruct",
    "reference_cgs_inputs",
    "residual",
    "rhs",
    "rhs_breakdown",
    "run_simulation",
    "surface_tension",
    "surfactant_mass",
]
