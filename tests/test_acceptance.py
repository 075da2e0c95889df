"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from lubrisim import (
    ALL_TOGGLES,
    TERM_GROUPS,
    BoundaryKind,
    Grid,
    ModelVariant,
    Params,
    State,
    StencilOps,
    StepConfig,
    advance,
    char_poly_coeffs,
    depth_flux,
    dispersion,
    nondimensionalize,
    reference_cgs_inputs,
    rhs,
    rhs_breakdown,
    run_simulation,
)
from lubrisim.cli import build_initial_state, preset

from conftest import smooth_state


def report(number, ok, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_flat_fixed_point():
    """Flat uniform state is an exact fixed point for every variant,
    incline and toggle subset; runtime < 1 s."""
    started = time.perf_counter()
    g = Grid(17, 5.0)
    s = State(np.ones(17), np.ones(17))
    worst = 0.0
    for subset_size in range(len(TERM_GROUPS) + 1):
        for subset in itertools.combinations(TERM_GROUPS, subset_size):
            for theta in (0.0, 0.7, np.pi / 2):
                p = Params(bond=0.4, hamaker=0.02, incline=theta,
                           toggles=frozenset(subset))
                for variant in ModelVariant:
                    r = rhs(variant, s, p, g)
                    worst = max(worst, np.max(np.abs(r.deta_dt)),
                                np.max(np.abs(r.dgamma_dt)))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-14 and elapsed < 1.0
    report(1, ok, f"max|RHS| = {worst:.2e} over 384 toggle/theta/variant "
                  f"combos x3 angles, runtime {elapsed:.2f}s")
    assert worst < 1e-14
    assert elapsed < 1.0


def test_criterion_2_dispersion_correctness():
    """Vieta identities at 1e-12 over 200 (k, ds) samples, stability of both
    branches, and the k=1, ds=0 spot eigenvalues."""
    ks = np.linspace(0.01, 2.0, 50)
    worst_sum = worst_prod = 0.0
    stable = True
    for ds in (0.0, 1e-4, 1.0 / 300.0, 1.0 / 3.0):
        for k in ks:
            d = dispersion(k, ds)
            c1, c0 = char_poly_coeffs(k, ds)
            worst_sum = max(worst_sum,
                            abs(d.lambda_slow + d.lambda_fast + c1) / c1)
            worst_prod = max(worst_prod,
                             abs(d.lambda_slow * d.lambda_fast - c0) / c0)
            stable = stable and d.lambda_slow <= 0 and d.lambda_fast <= 0
    # independent oracle: numpy root finder on lambda^2 + (4/3) lambda + 1/12
    oracle = np.sort(np.roots([1.0, 4.0 / 3.0, 1.0 / 12.0]))
    d1 = dispersion(1.0, 0.0)
    spot_err = max(abs(d1.lambda_fast - oracle[0]), abs(d1.lambda_slow - oracle[1]))
    ok = worst_sum < 1e-12 and worst_prod < 1e-12 and stable and spot_err < 1e-6
    report(2, ok, f"Vieta sum err {worst_sum:.1e}, product err {worst_prod:.1e}, "
                  f"all Re(lambda) <= 0: {stable}, spot err {spot_err:.1e} "
                  f"(oracle roots {oracle[1]:.8f}, {oracle[0]:.8f})")
    assert worst_sum < 1e-12
    assert worst_prod < 1e-12
    assert stable
    assert spot_err < 1e-6


def test_criterion_3_linearized_simulation_agreement():
    """Slow-eigenvector decay rate matches lambda_slow within 2 percent over
    50 implicit steps; runtime < 10 s."""
    started = time.perf_counter()
    k, ds, eps = 0.2, 1e-4, 1e-6
    grid = Grid(129, 2 * np.pi / k, BoundaryKind.PERIODIC)
    x = grid.x
    m = np.array([[-k**4 / 3, -k**2 / 2], [-k**4 / 2, -(1 + ds) * k**2]])
    evals, evecs = np.linalg.eig(m)
    order = np.argsort(evals)[::-1]
    lam_slow, lam_fast = evals[order]
    r_mat = evecs[:, order]
    left = np.linalg.inv(r_mat)
    r_slow = r_mat[:, 0] / r_mat[0, 0]

    dt = 1.0
    assert abs(lam_fast) * dt <= 0.05
    s = State(1 + eps * r_slow[0] * np.cos(k * x),
              1 + eps * r_slow[1] * np.cos(k * x))
    p = Params(bond=0.0, hamaker=0.0, inv_peclet=ds, tension_slope=1.0)
    w = np.full(grid.n_nodes, grid.dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    cosk = np.cos(k * x)
    norm = w @ (cosk * cosk)

    def slow_amplitude(state):
        a = (w @ ((state.eta - 1) * cosk)) / norm
        b = (w @ ((state.gamma - 1) * cosk)) / norm
        return (left @ np.array([a, b]))[0]

    a0 = slow_amplitude(s)
    for _ in range(50):
        s, _ = advance(s, StepConfig(dt=dt), ModelVariant.FULL_CM, p, grid)
    rate = -np.log(slow_amplitude(s) / a0) / (50 * dt)
    rel = abs(rate - (-lam_slow)) / abs(lam_slow)
    elapsed = time.perf_counter() - started
    ok = rel <= 0.02 and elapsed < 10.0
    report(3, ok, f"measured rate {rate:.6e} vs lambda_slow {-lam_slow:.6e} "
                  f"({rel:.2%} error), runtime {elapsed:.1f}s")
    assert rel <= 0.02
    assert elapsed < 10.0


def test_criterion_4_conservation():
    """Canonical drop scenario to t=1e5 (dt=100, N=97): film mass drift
    < 1e-10 and surfactant mass drift < 1e-5; runtime < 10 s.

    The film bound holds (flux-form divergence conserves to solver
    round-off).  The surfactant bound does not hold for this scenario.  At
    t = 1e5 the slope-weighted integral has drifted by +5.07e-5 (~5e-4
    transiently while the film is deformed), +3.89e-5 with a fresh Jacobian
    on every step.  The drift is not converged in dt: its signed value at
    t = 1e5 is -2.84e-5 / -1.38e-5 / -2.02e-6 / +5.07e-5 / +7.00e-5 at
    dt = 12.5 / 25 / 50 / 100 / 200 (fresh Jacobians: -4.05e-5 / -2.91e-5 /
    -5.39e-6 / +3.89e-5 / +5.50e-5), so the time-stepping error is as large
    as the drift.  The van der Waals group drives it: without it the drift
    is 1.3e-6.  The assertion is kept as specified.
    """
    started = time.perf_counter()
    sc = preset("fig2")
    s0 = build_initial_state(sc)
    res = run_simulation(s0, 1e5, sc.snapshot_times, sc.step, sc.variant,
                         sc.params, sc.grid)
    elapsed = time.perf_counter() - started
    film = res.summary.max_film_mass_drift
    surf_final = res.summary.final_surfactant_mass_drift
    surf_max = res.summary.max_surfactant_mass_drift
    ok = film < 1e-10 and surf_final < 1e-5 and elapsed < 10.0
    report(4, ok, f"{res.summary.steps} steps in {elapsed:.1f}s; film drift "
                  f"{film:.2e} (< 1e-10: {film < 1e-10}); surfactant drift "
                  f"final {surf_final:.2e}, max {surf_max:.2e} (< 1e-5: "
                  f"{surf_final < 1e-5}, not converged in dt)")
    assert res.summary.failure is None
    assert elapsed < 10.0
    assert film < 1e-10
    assert surf_final < 1e-5  # not met at dt = 100, kept as specified


def test_criterion_5_model_subset_identity():
    """Low-order model with plain diffusion and B=H=0 equals the de Wit
    right-hand side to 1e-13 relative on 100 random smooth states."""
    toggles = ALL_TOGGLES - {"geometric_diffusion"}
    p = Params(bond=0.0, hamaker=0.0, toggles=toggles)
    worst = 0.0
    for seed in range(100):
        grid = Grid(49, 12.0, BoundaryKind.NO_FLUX_SYMMETRIC if seed % 2
                    else BoundaryKind.PERIODIC)
        s = smooth_state(grid, seed=seed)
        r_low = rhs(ModelVariant.LOW_ORDER_CM, s, p, grid)
        r_dw = rhs(ModelVariant.DE_WIT, s, p, grid)
        scale = max(np.max(np.abs(r_dw.deta_dt)), np.max(np.abs(r_dw.dgamma_dt)))
        diff = max(np.max(np.abs(r_low.deta_dt - r_dw.deta_dt)),
                   np.max(np.abs(r_low.dgamma_dt - r_dw.dgamma_dt)))
        worst = max(worst, diff / scale)
    ok = worst <= 1e-13
    report(5, ok, f"max relative difference {worst:.2e} over 100 states")
    assert worst <= 1e-13


def test_criterion_6_model_difference_grows_as_peclet_drops():
    """Comprehensive-vs-deWit surfactant difference at t=10 decreases
    strictly across P = 3, 30, 300 on the drop scenario."""
    sc = preset("fig2")
    s0 = build_initial_state(sc)
    cfg = StepConfig(dt=0.5)
    linf_gamma = []
    for peclet in (3.0, 30.0, 300.0):
        params = dataclasses.replace(sc.params, inv_peclet=1.0 / peclet)
        finals = []
        for variant in (ModelVariant.FULL_CM, ModelVariant.DE_WIT):
            res = run_simulation(s0, 10.0, (10.0,), cfg, variant, params,
                                 sc.grid)
            assert res.summary.failure is None
            finals.append(res.snapshots[-1].state)
        linf_gamma.append(np.max(np.abs(finals[0].gamma - finals[1].gamma)))
    ok = linf_gamma[0] > linf_gamma[1] > linf_gamma[2]
    report(6, ok, "Linf(gamma difference) at P=3,30,300: "
                  + ", ".join(f"{v:.3e}" for v in linf_gamma))
    assert linf_gamma[0] > linf_gamma[1] > linf_gamma[2]


def test_criterion_7_corrugation_persistence():
    """Contaminated corrugations outlive clean ones by more than 2x at
    t=300, and surfactant accumulates in the troughs at early times."""
    sc = preset("fig4")
    s0 = build_initial_state(sc)
    res_cont = run_simulation(s0, 300.0, (15.0, 300.0), sc.step, sc.variant,
                              sc.params, sc.grid)
    clean_params = dataclasses.replace(sc.params, tension_slope=0.0)
    res_clean = run_simulation(s0, 300.0, (300.0,), sc.step, sc.variant,
                               clean_params, sc.grid)

    def amplitude(state):
        return 0.5 * (np.max(state.eta) - np.min(state.eta))

    amp_cont = amplitude(res_cont.snapshots[-1].state)
    amp_clean = amplitude(res_clean.snapshots[-1].state)
    ratio = amp_cont / amp_clean
    s15 = res_cont.snapshots[1].state
    corr = np.corrcoef(s15.gamma - 1.0, s15.eta - 1.0)[0, 1]
    ok = ratio > 2.0 and corr < 0.0
    report(7, ok, f"amplitude ratio contaminated/clean at t=300: {ratio:.1f} "
                  f"(> 2), corr(gamma-1, eta-1) at t=15: {corr:+.4f} (< 0)")
    assert ratio > 2.0
    assert corr < 0.0


def test_criterion_8_nondimensionalization():
    """Reference CGS inputs map to R=3, H=0.001, ds=1/300; the Bond number
    formula value is reported against the conventional 3e-11."""
    p = nondimensionalize(reference_cgs_inputs())
    ok = (abs(p.reynolds - 3.0) < 1e-13
          and abs(p.hamaker - 1e-3) < 1e-16
          and abs(p.inv_peclet - 1.0 / 300.0) < 1e-17)
    report(8, ok, f"R={p.reynolds!r}, H={p.hamaker!r}, ds={p.inv_peclet!r}; "
                  f"Bond formula value {p.bond:.4e} vs conventional 3e-11 "
                  f"(discrepancy factor {p.bond / 3e-11:.0f}x, see decisions log)")
    assert p.reynolds == pytest.approx(3.0, abs=1e-13)
    assert p.hamaker == pytest.approx(1e-3, abs=1e-16)
    assert p.inv_peclet == pytest.approx(1.0 / 300.0, abs=1e-17)
    assert p.bond == pytest.approx(3.27e-9, rel=1e-12)
    assert p.bond != pytest.approx(3e-11, rel=0.5)


def test_criterion_9_field_flux_consistency():
    """Depth-integrated velocity flux reproduces the marangoni and
    tangential-gravity thickness fluxes within 5 percent on a low-slope state."""
    k = 0.2
    grid = Grid(257, 2 * np.pi / k, BoundaryKind.PERIODIC)
    x = grid.x
    s = State(1 + 0.01 * np.cos(k * x), 1 + 0.01 * np.cos(k * x + 0.7))
    ops = StencilOps(grid)
    rel = {}
    for name, params in (
        ("marangoni", Params(bond=0.0, hamaker=0.0,
                             toggles=frozenset({"marangoni"}))),
        ("gravity_tangential", Params(bond=0.1, hamaker=0.0, incline=np.pi / 6,
                                      toggles=frozenset({"gravity_tangential"}))),
    ):
        got = -ops.div_flux(depth_flux(s, params, grid))
        ref = rhs_breakdown(ModelVariant.FULL_CM, s, params,
                            grid).contributions[name].deta_dt
        rel[name] = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
    ok = all(v <= 0.05 for v in rel.values())
    report(9, ok, "relative Linf mismatch: "
                  + ", ".join(f"{k_}={v:.2e}" for k_, v in rel.items()))
    for v in rel.values():
        assert v <= 0.05


def test_criterion_10_discretization_order():
    """d1, d2, d3 converge at second order on smooth periodic functions."""
    L = 10.0
    k = 2 * np.pi / L

    def f(x):
        return np.exp(np.sin(k * x))

    exact = {
        "d1": lambda x: k * np.cos(k * x) * f(x),
        "d2": lambda x: k**2 * (np.cos(k * x) ** 2 - np.sin(k * x)) * f(x),
        "d3": lambda x: k**3 * np.cos(k * x)
        * (np.cos(k * x) ** 2 - 3 * np.sin(k * x) - 1) * f(x),
    }
    min_order = np.inf
    detail = []
    for name, fn in exact.items():
        errs = []
        for n in (65, 129, 257, 513):
            g = Grid(n, L, BoundaryKind.PERIODIC)
            ops = StencilOps(g)
            errs.append(np.max(np.abs(getattr(ops, name)(f(g.x)) - fn(g.x))))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
        min_order = min(min_order, min(orders))
        detail.append(f"{name}: " + "/".join(f"{o:.2f}" for o in orders))
    ok = min_order >= 1.9
    report(10, ok, "observed orders " + "; ".join(detail))
    assert min_order >= 1.9
