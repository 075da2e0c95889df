import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lubrisim import (
    ALL_TOGGLES,
    TERM_GROUPS,
    BoundaryKind,
    Grid,
    ModelVariant,
    Params,
    PositivityError,
    State,
    rhs,
    rhs_breakdown,
)

from conftest import smooth_state

VARIANTS = list(ModelVariant)


def trapz_weights(grid):
    w = np.full(grid.n_nodes, grid.dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


class TestFixedPoint:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    def test_flat_uniform_state_is_exact_fixed_point(self, variant, boundary):
        g = Grid(33, 12.0, boundary)
        s = State(np.full(33, 0.8), np.full(33, 1.3))
        for theta in (0.0, 0.6, np.pi / 2, np.pi):
            p = Params(bond=0.5, hamaker=0.01, incline=theta)
            r = rhs(variant, s, p, g)
            assert np.max(np.abs(r.deta_dt)) == 0.0
            assert np.max(np.abs(r.dgamma_dt)) == 0.0

    def test_flat_state_all_toggle_subsets(self):
        g = Grid(17, 5.0)
        s = State(np.ones(17), np.ones(17))
        p_base = Params(bond=0.3, hamaker=0.02, incline=0.4)
        for r_count in range(len(TERM_GROUPS) + 1):
            for subset in itertools.combinations(TERM_GROUPS, r_count):
                p = Params(bond=0.3, hamaker=0.02, incline=0.4,
                           toggles=frozenset(subset))
                for variant in VARIANTS:
                    r = rhs(variant, s, p, g)
                    assert np.max(np.abs(r.deta_dt)) < 1e-14
                    assert np.max(np.abs(r.dgamma_dt)) < 1e-14


class TestPerturbationExamples:
    def test_gamma_sinusoid_linear_response(self):
        # eta=1, gamma = 1 + eps sin(kx), A=1, B=H=0:
        # deta_dt = -(eps k^2 / 2) sin(kx), dgamma_dt = -(1+ds) eps k^2 sin(kx)
        eps, k, ds = 1e-3, 1.0, 1e-4
        L = 2 * np.pi / k
        g = Grid(257, L, BoundaryKind.PERIODIC)
        x = g.x
        s = State(np.ones(g.n_nodes), 1 + eps * np.sin(k * x))
        p = Params(bond=0.0, hamaker=0.0, inv_peclet=ds, tension_slope=1.0)
        r = rhs(ModelVariant.FULL_CM, s, p, g)
        expect_eta = -(eps * k**2 / 2) * np.sin(k * x)
        expect_gamma = -(1 + ds) * eps * k**2 * np.sin(k * x)
        assert np.max(np.abs(r.deta_dt - expect_eta)) < 0.01 * eps
        assert np.max(np.abs(r.dgamma_dt - expect_gamma)) < 0.01 * eps
        # spot value at k x = pi/2 (node 64 of 256 intervals)
        i = 64
        assert x[i] == pytest.approx(np.pi / 2, rel=1e-12)
        assert r.deta_dt[i] == pytest.approx(-5e-4, rel=2e-3)

    def test_fullcm_approaches_dewit_quadratically(self):
        # with B=H=0 the only difference is the diffusion correction, which
        # carries eta_x^2; halving the corrugation quarters the gap
        k = 1.0
        L = 2 * np.pi / k
        g = Grid(129, L, BoundaryKind.PERIODIC)
        x = g.x
        gamma = 1 + 0.3 * np.cos(k * x)
        p = Params(bond=0.0, hamaker=0.0, inv_peclet=0.01)
        gaps = []
        for amp in (0.2, 0.1, 0.05):
            s = State(1 + amp * np.cos(k * x), gamma)
            r_full = rhs(ModelVariant.FULL_CM, s, p, g)
            r_dw = rhs(ModelVariant.DE_WIT, s, p, g)
            assert np.max(np.abs(r_full.deta_dt - r_dw.deta_dt)) < 1e-15
            gaps.append(np.max(np.abs(r_full.dgamma_dt - r_dw.dgamma_dt)))
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.2)
        assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=0.2)


class TestBreakdown:
    def test_all_toggles_off_zero_contributions(self, noflux_grid):
        # inv_peclet=0 so the always-present diffusion term vanishes too
        s = smooth_state(noflux_grid, seed=11)
        p = Params(bond=0.4, hamaker=0.01, incline=0.5, inv_peclet=0.0,
                   toggles=frozenset())
        for variant in VARIANTS:
            bd = rhs_breakdown(variant, s, p, noflux_grid)
            for name, contrib in bd.contributions.items():
                assert np.max(np.abs(contrib.deta_dt)) == 0.0, name
                assert np.max(np.abs(contrib.dgamma_dt)) == 0.0, name

    def test_sum_of_groups_equals_rhs(self, noflux_grid, periodic_grid):
        p = Params(bond=0.2, hamaker=0.005, incline=0.3)
        for g in (noflux_grid, periodic_grid):
            for seed in range(5):
                s = smooth_state(g, seed=seed)
                for variant in VARIANTS:
                    bd = rhs_breakdown(variant, s, p, g)
                    total = bd.total()
                    r = rhs(variant, s, p, g)
                    scale = max(np.max(np.abs(r.deta_dt)), np.max(np.abs(r.dgamma_dt)))
                    assert np.max(np.abs(total.deta_dt - r.deta_dt)) <= 1e-14 * scale
                    assert np.max(np.abs(total.dgamma_dt - r.dgamma_dt)) <= 1e-14 * scale

    def test_leading_groups_match_low_order_model(self, noflux_grid):
        # FullCM restricted to marangoni+capillary+geometric_diffusion is the
        # low-order model with B=H=0
        s = smooth_state(noflux_grid, seed=12)
        p_sub = Params(bond=0.4, hamaker=0.02,
                       toggles=frozenset({"marangoni", "capillary",
                                          "geometric_diffusion"}))
        p_zero = Params(bond=0.0, hamaker=0.0)
        r_sub = rhs(ModelVariant.FULL_CM, s, p_sub, noflux_grid)
        r_low = rhs(ModelVariant.LOW_ORDER_CM, s, p_zero, noflux_grid)
        np.testing.assert_array_equal(r_sub.deta_dt, r_low.deta_dt)
        np.testing.assert_array_equal(r_sub.dgamma_dt, r_low.dgamma_dt)


class TestInvariants:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_discrete_film_conservation(self, variant, noflux_grid, periodic_grid):
        p = Params()  # theta = 0
        for g in (noflux_grid, periodic_grid):
            w = trapz_weights(g)
            for seed in range(5):
                s = smooth_state(g, seed=seed)
                r = rhs(variant, s, p, g)
                total = w @ r.deta_dt
                scale = w @ np.abs(r.deta_dt)
                assert abs(total) <= 1e-13 * max(scale, 1e-30)

    def test_linearization_matrix(self):
        # projections of the rhs of eps-perturbations reproduce
        # (-k^4/3, -k^2/2; -k^4/2, -(1+ds) k^2)
        k, ds, eps = 1.0, 1e-3, 1e-5
        L = 2 * np.pi / k
        g = Grid(513, L, BoundaryKind.PERIODIC)
        x = g.x
        p = Params(bond=0.0, hamaker=0.0, inv_peclet=ds, tension_slope=1.0)
        w = trapz_weights(g)
        cosk = np.cos(k * x)
        norm = w @ (cosk * cosk)

        def project(f):
            return (w @ (f * cosk)) / norm

        ones = np.ones(g.n_nodes)
        s_eta = State(1 + eps * cosk, ones)
        s_gam = State(ones, 1 + eps * cosk)
        r_eta = rhs(ModelVariant.FULL_CM, s_eta, p, g)
        r_gam = rhs(ModelVariant.FULL_CM, s_gam, p, g)
        m = np.array([
            [project(r_eta.deta_dt), project(r_gam.deta_dt)],
            [project(r_eta.dgamma_dt), project(r_gam.dgamma_dt)],
        ]) / eps
        expect = np.array([[-k**4 / 3, -k**2 / 2],
                           [-k**4 / 2, -(1 + ds) * k**2]])
        np.testing.assert_allclose(m, expect, rtol=1e-3)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_reflection_equivariance(self, variant, noflux_grid):
        # at theta=0, rhs commutes with reflection about the midpoint
        s = smooth_state(noflux_grid, seed=13)
        p = Params(bond=0.1, hamaker=0.01)
        r = rhs(variant, s, p, noflux_grid)
        s_ref = State(s.eta[::-1], s.gamma[::-1])
        r_ref = rhs(variant, s_ref, p, noflux_grid)
        scale = np.max(np.abs(r.deta_dt)) + 1e-30
        assert np.max(np.abs(r_ref.deta_dt - r.deta_dt[::-1])) <= 1e-12 * scale
        scale = np.max(np.abs(r.dgamma_dt)) + 1e-30
        assert np.max(np.abs(r_ref.dgamma_dt - r.dgamma_dt[::-1])) <= 1e-12 * scale

    def test_dewit_subset_identity(self, noflux_grid, periodic_grid):
        # low-order model with plain diffusion and B=H=0 is exactly de Wit
        toggles = ALL_TOGGLES - {"geometric_diffusion"}
        p = Params(bond=0.0, hamaker=0.0, toggles=toggles)
        for g in (noflux_grid, periodic_grid):
            for seed in range(10):
                s = smooth_state(g, seed=seed)
                r_low = rhs(ModelVariant.LOW_ORDER_CM, s, p, g)
                r_dw = rhs(ModelVariant.DE_WIT, s, p, g)
                np.testing.assert_array_equal(r_low.deta_dt, r_dw.deta_dt)
                np.testing.assert_array_equal(r_low.dgamma_dt, r_dw.dgamma_dt)


class TestBatch:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    def test_stacked_rhs_matches_row_by_row(self, variant, boundary):
        # one call on a (B, N) stack equals B single-state calls bit for bit
        g = Grid(37, 10.0, boundary)
        rows = [smooth_state(g, seed=seed) for seed in range(5)]
        batch = State(np.stack([r.eta for r in rows]),
                      np.stack([r.gamma for r in rows]))
        p = Params(bond=0.1, hamaker=0.01, incline=0.3)
        stacked = rhs(variant, batch, p, g)
        assert stacked.deta_dt.shape == (5, 37)
        for b, row in enumerate(rows):
            single = rhs(variant, row, p, g)
            np.testing.assert_array_equal(stacked.deta_dt[b], single.deta_dt)
            np.testing.assert_array_equal(stacked.dgamma_dt[b], single.dgamma_dt)

    def test_positivity_guard_reports_node_within_row(self, noflux_grid):
        eta = np.ones((3, noflux_grid.n_nodes))
        eta[2, 7] = 1e-9
        s = State(eta, np.ones_like(eta))
        with pytest.raises(PositivityError) as err:
            rhs(ModelVariant.FULL_CM, s, Params(), noflux_grid)
        assert err.value.node == 7


@st.composite
def scenarios(draw):
    """A random positive state with random physics on either boundary kind."""
    boundary = draw(st.sampled_from(list(BoundaryKind)))
    periodic = boundary is BoundaryKind.PERIODIC
    n = draw(st.integers(5, 40))
    grid = Grid(n, draw(st.floats(1.0, 20.0)), boundary)
    eta = draw(arrays(float, n, elements=st.floats(0.5, 1.5)))
    gamma = draw(arrays(float, n, elements=st.floats(0.5, 1.5)))
    if periodic:
        eta[-1], gamma[-1] = eta[0], gamma[0]
    # a sloped substrate drives a flux through symmetric walls, so only
    # periodic grids draw an incline
    params = Params(
        reynolds=draw(st.floats(0.0, 5.0)),
        bond=draw(st.floats(0.0, 1.0)),
        hamaker=draw(st.floats(0.0, 0.1)),
        inv_peclet=draw(st.floats(0.0, 0.1)),
        incline=draw(st.floats(0.0, math.pi)) if periodic else 0.0,
        toggles=draw(st.frozensets(st.sampled_from(TERM_GROUPS))),
    )
    return draw(st.sampled_from(VARIANTS)), State(eta, gamma), params, grid


class TestFluxFormProperties:
    @settings(max_examples=100, deadline=None)
    @given(scenarios())
    def test_film_flux_telescopes(self, scenario):
        variant, s, p, g = scenario
        r = rhs(variant, s, p, g)
        w = trapz_weights(g)
        assert abs(w @ r.deta_dt) <= 1e-12 * max(w @ np.abs(r.deta_dt), 1e-300)

    @settings(max_examples=100, deadline=None)
    @given(scenarios())
    def test_rhs_is_sum_of_breakdown(self, scenario):
        variant, s, p, g = scenario
        r = rhs(variant, s, p, g)
        bd = rhs_breakdown(variant, s, p, g)
        total = bd.total()
        parts = bd.contributions.values()
        scale = max(max(np.max(np.abs(c.deta_dt)), np.max(np.abs(c.dgamma_dt)))
                    for c in parts)
        assert np.max(np.abs(total.deta_dt - r.deta_dt)) <= 1e-14 * scale
        assert np.max(np.abs(total.dgamma_dt - r.dgamma_dt)) <= 1e-14 * scale

    @settings(max_examples=100, deadline=None)
    @given(scenarios(), st.floats(0.1, 3.0), st.floats(0.0, 3.0),
           st.floats(0.0, math.pi))
    def test_flat_state_is_exact_fixed_point(self, scenario, eta0, gamma0, incline):
        variant, s, p, g = scenario
        flat = State(np.full(g.n_nodes, eta0), np.full(g.n_nodes, gamma0))
        r = rhs(variant, flat, dataclasses.replace(p, incline=incline), g)
        assert np.max(np.abs(r.deta_dt)) == 0.0
        assert np.max(np.abs(r.dgamma_dt)) == 0.0


class TestErrors:
    def test_positivity_guard(self, noflux_grid):
        eta = np.ones(noflux_grid.n_nodes)
        eta[3] = 1e-9  # valid state, below the rhs evaluation floor
        s = State(eta, np.ones(noflux_grid.n_nodes))
        with pytest.raises(PositivityError) as err:
            rhs(ModelVariant.FULL_CM, s, Params(), noflux_grid)
        assert err.value.node == 3

    def test_nan_input_rejected_at_state(self):
        gamma = np.ones(8)
        gamma[2] = np.nan
        with pytest.raises(ValueError):
            State(np.ones(8), gamma)

    def test_grid_mismatch(self, noflux_grid):
        s = State(np.ones(noflux_grid.n_nodes + 5), np.ones(noflux_grid.n_nodes + 5))
        with pytest.raises(ValueError):
            rhs(ModelVariant.FULL_CM, s, Params(), noflux_grid)
