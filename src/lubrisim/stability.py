"""Linear stability of the flat contaminated film.

Sinusoidal perturbations (eta, gamma) = (1, 1) + (a, b) exp(lambda*t + i*k*x)
of the comprehensive model with B = H = 0 satisfy

    (lambda + k^4/3) a = -(A k^2 / 2) b
    (lambda + ds k^2 + A k^2) b = -(k^4 / 2) a

giving the characteristic polynomial lambda^2 + c1*lambda + c0 with

    c1 = A k^2 + ds k^2 + k^4/3,   c0 = A k^6/12 + ds k^6/3.

Both coefficients are nonnegative for ds >= 0 (and A >= 0), so the film is
linearly stable at every wavenumber: one mode decays rapidly, the other --
corrugations locked to surfactant variations -- extremely slowly.

A = 1 is the conventional normalisation and the default everywhere.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import astuple, dataclass

from .core import write_csv

__all__ = [
    "DispersionResult",
    "char_poly_coeffs",
    "mode_amplitude_ratio",
    "dispersion",
    "dispersion_scan",
    "write_dispersion_csv",
]


@dataclass(frozen=True)
class DispersionResult:
    """Eigenvalue pair and mode-shape ratios b/a at one wavenumber.

    ``amp_ratio_*`` are None where undefined: at k = 0, and at tension_slope
    = 0 for the -delta_s k^2 mode (a = 0), so for both modes where
    delta_s k^2 = k^4/3.
    For a complex-conjugate pair (possible only for exotic tension slopes)
    the lambda fields hold the common real part.
    """

    k: float
    lambda_slow: float
    lambda_fast: float
    amp_ratio_slow: float | None
    amp_ratio_fast: float | None


def _check_inputs(k: float, delta_s: float,
                  tension_slope: float) -> tuple[float, float, float]:
    k, delta_s, tension_slope = float(k), float(delta_s), float(tension_slope)
    if not 0 <= k < math.inf:
        raise ValueError(f"wavenumber k must be finite and >= 0, got {k}")
    if not 0 <= delta_s < math.inf:
        raise ValueError(f"delta_s must be finite and >= 0, got {delta_s}")
    if not math.isfinite(tension_slope):
        raise ValueError(f"tension_slope must be finite, got {tension_slope}")
    return k, delta_s, tension_slope


def char_poly_coeffs(k: float, delta_s: float,
                     tension_slope: float = 1.0) -> tuple[float, float]:
    """Coefficients (c1, c0) of lambda^2 + c1*lambda + c0 = 0."""
    k, delta_s, A = _check_inputs(k, delta_s, tension_slope)
    c1 = A * k**2 + delta_s * k**2 + k**4 / 3.0
    c0 = A * k**6 / 12.0 + delta_s * k**6 / 3.0
    return c1, c0


def mode_amplitude_ratio(k: float, lam: float, tension_slope: float = 1.0) -> float:
    """Mode shape b/a = -(2 / (A k^2)) (lambda + k^4/3); undefined at k = 0."""
    if k == 0.0:
        raise ValueError("mode amplitude ratio is undefined at k = 0")
    if tension_slope == 0.0:
        raise ValueError("mode amplitude ratio is undefined for tension_slope = 0")
    return -(2.0 / (tension_slope * k**2)) * (lam + k**4 / 3.0)


def dispersion(k: float, delta_s: float,
               tension_slope: float = 1.0) -> DispersionResult:
    """Eigenvalues and mode shapes at one wavenumber.

    Roots are computed with the sign-aware quadratic formula
    (q = -(c1 + sign(c1) sqrt(disc))/2, roots q and c0/q) so the slow root
    does not suffer cancellation at small k.
    """
    c1, c0 = char_poly_coeffs(k, delta_s, tension_slope)
    if k == 0.0:
        return DispersionResult(0.0, 0.0, 0.0, None, None)
    disc = c1 * c1 - 4.0 * c0
    if disc >= 0.0:
        q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1)) if c1 != 0.0 \
            else -0.5 * math.sqrt(disc)
        r1 = q
        r2 = c0 / q if q != 0.0 else 0.0
        slow, fast = max(r1, r2), min(r1, r2)
    else:
        slow = fast = -0.5 * c1
    if tension_slope == 0.0:  # decoupled modes; b/a of -k^4/3 from the second row
        gap = delta_s * k**2 - k**4 / 3.0  # > 0: -k^4/3 is the slow mode
        ratio = -(k**4 / 2.0) / gap if gap else None
        return DispersionResult(k, slow, fast, ratio if gap > 0 else None,
                                ratio if gap < 0 else None)
    return DispersionResult(k, slow, fast, mode_amplitude_ratio(k, slow, tension_slope),
                            mode_amplitude_ratio(k, fast, tension_slope))


def dispersion_scan(k_min: float, k_max: float, n_points: int, delta_s: float,
                    tension_slope: float = 1.0) -> list[DispersionResult]:
    """Uniformly sampled dispersion curve on [k_min, k_max]."""
    if not 0 <= k_min < k_max < math.inf:
        raise ValueError(f"need 0 <= k_min < k_max < inf, got [{k_min}, {k_max}]")
    if not isinstance(n_points, numbers.Integral) or n_points < 2:
        raise ValueError(f"n_points must be an integer >= 2, got {n_points!r}")
    step = (k_max - k_min) / (n_points - 1)
    return [dispersion(k_min + i * step, delta_s, tension_slope)
            for i in range(n_points)]


def write_dispersion_csv(results, path) -> None:
    """Write a scan as CSV: k, lambda_slow, lambda_fast, ratio_slow, ratio_fast
    (an undefined ratio as nan)."""
    write_csv(path, "k,lambda_slow,lambda_fast,ratio_slow,ratio_fast",
              [astuple(r) for r in results])
