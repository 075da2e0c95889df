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
    ETA_FLOOR,
    TERM_GROUPS,
    BoundaryKind,
    Grid,
    ModelVariant,
    Params,
    PositivityError,
    State,
    StencilOps,
    rhs,
    rhs_breakdown,
    surface_tension,
)
from lubrisim.models import (BASIS, BREAKDOWN_GROUPS, CORRECTIONS, DE_WIT_DELETES, LOW_ORDER,
                             MULTIPLIERS, SOURCE, _groups, _plan)

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

    def test_group_names_follow_term_groups(self, noflux_grid):
        # the breakdown reports the always-present diffusion term under its
        # own name; every other group is named as its toggle
        s = smooth_state(noflux_grid, seed=3)
        names = [g.replace("geometric_diffusion", "diffusion") for g in TERM_GROUPS]
        assert list(BREAKDOWN_GROUPS) == names
        for variant in VARIANTS:
            bd = rhs_breakdown(variant, s, Params(), noflux_grid)
            assert list(bd.contributions) == names

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
        # de Wit is the low-order model minus DE_WIT_DELETES, bit for bit:
        # with B = H = 0 and plain diffusion, and with every group switched on
        for p in (Params(bond=0.0, hamaker=0.0, toggles=ALL_TOGGLES - {"geometric_diffusion"}),
                  Params(bond=0.3, hamaker=0.01, incline=0.4)):
            p_low = dataclasses.replace(p, toggles=p.toggles - DE_WIT_DELETES)
            for g, seed in itertools.product((noflux_grid, periodic_grid), range(10)):
                s = smooth_state(g, seed=seed)
                r_low = rhs(ModelVariant.LOW_ORDER_CM, s, p_low, g)
                r_dw = rhs(ModelVariant.DE_WIT, s, p, g)
                np.testing.assert_array_equal(r_low.deta_dt, r_dw.deta_dt)
                np.testing.assert_array_equal(r_low.dgamma_dt, r_dw.dgamma_dt)


class TestCache:
    def test_results_are_read_only(self, noflux_grid):
        r = rhs(ModelVariant.FULL_CM, smooth_state(noflux_grid, seed=7),
                Params(), noflux_grid)
        for arr in (r.deta_dt, r.dgamma_dt):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_repeat_call_returns_the_same_result(self, noflux_grid):
        # rhs keeps no cache (the timestepper caches its linearisation): a
        # repeat call on the same State is evaluated afresh, to the same bits
        s = smooth_state(noflux_grid, seed=8)
        first = rhs(ModelVariant.FULL_CM, s, Params(), noflux_grid)
        again = rhs(ModelVariant.FULL_CM, s, Params(), noflux_grid)
        assert again is not first
        np.testing.assert_array_equal(again.deta_dt, first.deta_dt)
        np.testing.assert_array_equal(again.dgamma_dt, first.dgamma_dt)

    def test_failed_state_is_checked_on_every_call(self, noflux_grid):
        # the floor is a State invariant: a sub-floor film is refused on
        # every build, so no call of rhs ever sees one
        eta = np.ones(noflux_grid.n_nodes)
        eta[4] = 1e-9
        for _ in range(2):
            with pytest.raises(PositivityError) as err:
                State(eta, np.ones_like(eta))
            assert (err.value.node, err.value.value) == (4, 1e-9)


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
        with pytest.raises(PositivityError) as err:
            State(eta, np.ones_like(eta))
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


def expanded_fluxes(variant, state, params, grid):
    """The term groups as displayed, one monomial per term: a transcription
    independent of the factored forms in lubrisim.models.  Returns
    {group: (eta flux, gamma flux, gamma source)} for the switched-on groups.
    """
    ops = StencilOps(grid)
    eta, gam = state.eta, state.gamma
    on = params.toggles
    A = params.tension_slope
    sin_t, cos_t = math.sin(params.incline), math.cos(params.incline)
    bs, bc = params.bond * sin_t, params.bond * cos_t
    hm = params.hamaker
    hrb = hm * params.reynolds * params.bond
    ds = params.inv_peclet
    full = variant is ModelVariant.FULL_CM
    dewit = variant is ModelVariant.DE_WIT
    etx, etxx, etxxx, gmx = ops.d1(eta), ops.d2(eta), ops.d3(eta), ops.d1(gam)
    tension_x = -A * gmx
    e2, e3 = eta**2, eta**3
    zero = np.zeros(grid.n_nodes)
    out = {}
    if "marangoni" in on and A != 0.0:
        out["marangoni"] = (-0.5 * e2 * tension_x, -gam * eta * tension_x, zero)
    if "capillary" in on:
        curv = ops.d1_center((1.0 + A * (1.0 - ops.halo(gam))) * ops.halo_d2(eta))
        out["capillary"] = (-e3 * curv / 3.0, -0.5 * gam * e2 * curv, zero)
    if "gravity_tangential" in on and not dewit and bs != 0.0:
        if full:
            out["gravity_tangential"] = (
                -bs * (e3 / 3.0 + (7.0 / 3.0) * e3 * etx**2 + eta**4 * etxx),
                bs * (-0.5 * gam * e2 - (5.0 / 3.0) * gam * e3 * etxx
                      - (17.0 / 4.0) * gam * e2 * etx**2),
                bs * (1.5 * gam * eta * etx**3 - 0.25 * gmx * e2 * etx**2))
        else:
            out["gravity_tangential"] = (-bs * e3 / 3.0, -bs * gam * e2 / 2.0, zero)
    if "gravity_normal" in on and not dewit and bc != 0.0:
        if full:
            out["gravity_normal"] = (
                bc * (e3 * etx / 3.0 + 0.6 * eta**5 * etxxx
                      + 4.0 * eta**4 * etx * etxx + (7.0 / 3.0) * e3 * etx**3),
                bc * (0.5 * gam * e2 * etx + 4.0 * gam * e2 * etx**3
                      + (20.0 / 3.0) * gam * e3 * etx * etxx + gam * eta**4 * etxxx),
                bc * (-gam * eta * etx**4 + gam * e3 * etxx**2 / 3.0
                      + 0.5 * gmx * e2 * etx**3 + gmx * e3 * etx * etxx / 3.0))
        else:
            out["gravity_normal"] = (bc * e3 * etx / 3.0, bc * gam * e2 * etx / 2.0,
                                     zero)
    if "van_der_waals" in on and hm != 0.0:
        if full:
            out["van_der_waals"] = (
                hm * (-etx / eta + 9.6 * etx * etxx - 1.8 * eta * etxxx
                      - 7.0 * etx**3 / eta),
                hm * (-1.5 * gam * etx / e2 - (32.0 / 3.0) * gam * etx**3 / e2
                      + 16.0 * gam * etx * etxx / eta - 3.0 * gam * etxxx),
                hm * (-gam * etx**4 / (3.0 * e3) - gam * etxx**2 / eta
                      + (7.0 / 6.0) * gmx * etx**3 / e2 - gmx * etx * etxx / eta))
        else:
            out["van_der_waals"] = (-hm * etx / eta, -1.5 * hm * gam * etx / e2, zero)
    if "inertia_cross_HRB" in on and full and hrb != 0.0:
        out["inertia_cross_HRB"] = (
            hrb * (sin_t * ((32.0 / 105.0) * e2 * etx**2 - (10.0 / 21.0) * e3 * etxx)
                   + cos_t * ((44.0 / 105.0) * e3 * etx * etxx
                              + (4.0 / 15.0) * eta**4 * etxxx
                              - (4.0 / 105.0) * e2 * etx**3)),
            hrb * (sin_t * (-(89.0 / 120.0) * gam * e2 * etxx
                            + (7.0 / 15.0) * gam * eta * etx**2)
                   + cos_t * (0.65 * gam * e2 * etx * etxx
                              + (5.0 / 12.0) * gam * e3 * etxxx
                              - 0.05 * gam * eta * etx**3)),
            zero)
    if ds != 0.0:
        if dewit or "geometric_diffusion" not in on:
            source = ds * ops.d2(gam)
        else:
            slope2 = 1.0 + etx**2
            source = ds / np.sqrt(slope2) * ops.div_flux(gmx / slope2)
        out["diffusion"] = (zero, zero, source)
    return out


class TestFactoredGroups:
    @settings(max_examples=200, deadline=None)
    @given(scenarios())
    def test_groups_match_expanded_formulas(self, scenario):
        # the factored term groups equal the displayed monomials to
        # round-off, group by group
        variant, s, p, g = scenario
        ops = StencilOps(g)
        expected = expanded_fluxes(variant, s, p, g)
        got = rhs_breakdown(variant, s, p, g).contributions
        for name, contrib in got.items():
            if name not in expected:
                assert not contrib.deta_dt.any() and not contrib.dgamma_dt.any(), name
                continue
            eta_flux, gamma_flux, source = expected[name]
            want_eta = ops.div_flux(eta_flux)
            want_gamma = ops.div_flux(gamma_flux) + source
            # subnormal coefficients (bond ~ 1e-310) carry no relative accuracy
            scale = max(np.max(np.abs(want_eta)), np.max(np.abs(want_gamma)), 1e-300)
            assert np.max(np.abs(contrib.deta_dt - want_eta)) <= 1e-12 * scale, name
            assert np.max(np.abs(contrib.dgamma_dt - want_gamma)) <= 1e-12 * scale, name


def factored_corrections(variant, state, params, grid):
    """The gravity, van der Waals and HRB groups as hand-factored formulas
    over the derivative arrays ``_groups`` uses: the reference for the
    correction table.  Returns {group: (eta flux, gamma flux, source)} for
    the switched-on groups, None for an absent part."""
    ops = StencilOps(grid)
    eta, gam = state.eta, state.gamma
    on = params.toggles - DE_WIT_DELETES if variant is ModelVariant.DE_WIT else params.toggles
    sin_t, cos_t = math.sin(params.incline), math.cos(params.incline)
    bs, bc = params.bond * sin_t, params.bond * cos_t
    hm = params.hamaker
    hrb = hm * params.reynolds * params.bond
    hs, hc = hrb * sin_t, hrb * cos_t
    full = variant is ModelVariant.FULL_CM
    ghost = ops.ghosted(eta)
    etx, etxx, etxxx = ops.d1(ghost), ops.d2(ghost), ops.d3(ghost)
    gmx = ops.d1(gam)
    e2 = eta * eta
    e3 = e2 * eta
    ge = gam * eta
    ge2 = ge * eta
    x1s = etx * etx
    x1c = x1s * etx
    x12 = etx * etxx
    ex12 = eta * x12
    e2x3 = e2 * etxxx
    out = {}
    if "gravity_tangential" in on and bs != 0.0:
        if full:
            out["gravity_tangential"] = (
                -bs * e3 * (1.0 / 3.0 + (7.0 / 3.0) * x1s + eta * etxx),
                -bs * ge2 * (0.5 + (5.0 / 3.0) * eta * etxx + (17.0 / 4.0) * x1s),
                bs * x1s * (1.5 * ge * etx - 0.25 * gmx * e2))
        else:
            out["gravity_tangential"] = ((-bs / 3.0) * e3, (-bs / 2.0) * ge2, None)
    if "gravity_normal" in on and bc != 0.0:
        if full:
            out["gravity_normal"] = (
                bc * e3 * (etx / 3.0 + 0.6 * e2x3 + 4.0 * ex12 + (7.0 / 3.0) * x1c),
                bc * ge2 * (0.5 * etx + 4.0 * x1c + (20.0 / 3.0) * ex12 + e2x3),
                bc * (ge * (e2 * etxx * etxx / 3.0 - x1s * x1s)
                      + gmx * e2 * (0.5 * x1c + ex12 / 3.0)))
        else:
            out["gravity_normal"] = ((bc / 3.0) * e3 * etx, (bc / 2.0) * ge2 * etx, None)
    if "van_der_waals" in on and hm != 0.0:
        if full:
            out["van_der_waals"] = (
                hm * (9.6 * x12 - 1.8 * eta * etxxx - (etx + 7.0 * x1c) / eta),
                hm * gam * ((16.0 * x12 - (1.5 * etx + (32.0 / 3.0) * x1c) / eta) / eta
                            - 3.0 * etxxx),
                hm / eta * (gmx * ((7.0 / 6.0) * x1c / eta - x12)
                            - gam * (x1s * x1s / (3.0 * e2) + etxx * etxx)))
        else:
            out["van_der_waals"] = (-hm * (etx / eta), (-1.5 * hm) * gam * etx / e2, None)
    if "inertia_cross_HRB" in on and full and hrb != 0.0:
        eta_flux = hc * ((44.0 / 105.0) * ex12 + (4.0 / 15.0) * e2x3 - (4.0 / 105.0) * x1c)
        gamma_flux = hc * (0.65 * ex12 + (5.0 / 12.0) * e2x3 - 0.05 * x1c)
        if hs != 0.0:
            ex2 = eta * etxx
            eta_flux = eta_flux + hs * ((32.0 / 105.0) * x1s - (10.0 / 21.0) * ex2)
            gamma_flux = gamma_flux + hs * ((7.0 / 15.0) * x1s - (89.0 / 120.0) * ex2)
        out["inertia_cross_HRB"] = (e2 * eta_flux, ge * gamma_flux, None)
    return out


def slope_order(monomial):
    """Derivative count of a BASIS monomial: x1 counts 1, x2 2, x3 3."""
    order = 0
    for factor in monomial.split():
        name, _, power = factor.partition("^")
        if name.startswith("x"):
            order += int(name[1]) * int(power or 1)
    return order


class TestCorrectionTable:
    CORRECTION_GROUPS = ("gravity_tangential", "gravity_normal", "van_der_waals",
                         "inertia_cross_HRB")

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    @pytest.mark.parametrize("incline", [0.0, 0.3])
    @pytest.mark.parametrize("batch", [False, True])
    def test_table_matches_factored_formulas(self, variant, boundary, incline, batch):
        # every part of every correction group equals the hand-factored
        # formulas to round-off of that part's largest value
        g = Grid(41, 12.0, boundary)
        p = Params(reynolds=2.0, bond=0.3, hamaker=0.02, incline=incline)
        for seed in range(4):
            rows = [smooth_state(g, seed=10 * seed + b, eta_amp=0.3) for b in range(3)]
            s = (State(np.stack([r.eta for r in rows]), np.stack([r.gamma for r in rows]))
                 if batch else rows[0])
            want = factored_corrections(variant, s, p, g)
            got = {name: parts for name, *parts in _groups(variant, s, p, g)
                   if name in self.CORRECTION_GROUPS}
            assert list(got) == list(want)
            for name, parts in got.items():
                for part, ref in zip(parts, want[name]):
                    if ref is None:
                        assert part is None, name
                        continue
                    assert part.shape == s.eta.shape
                    scale = np.max(np.abs(ref))
                    assert np.max(np.abs(part - ref)) <= 1e-14 * scale, name

    def test_low_order_rows_are_leading_columns_of_full_rows(self):
        # each low-order row is the full row of its group and part cut to
        # the group's lowest slope order; the low-order model has no source
        # and no HRB row
        expected = []
        for group in ("gravity_tangential", "gravity_normal", "van_der_waals"):
            rows = [r for r in CORRECTIONS if r[0] == group]
            lead = min(slope_order(b) for r in rows for b, c in zip(BASIS, r[4]) if c)
            for group_, part, pre, m, coefs in rows:
                cut = tuple(c if slope_order(b) == lead else 0 for b, c in zip(BASIS, coefs))
                if any(cut):
                    expected.append((group_, part, pre, m, cut))
        assert [r[:4] for r in LOW_ORDER] == [r[:4] for r in expected]
        for low, want in zip(LOW_ORDER, expected):
            np.testing.assert_array_equal(np.array(low[4], float), np.array(want[4], float))
            assert np.count_nonzero(low[4]) == 1, low
        assert all(part != SOURCE and group != "inertia_cross_HRB"
                   for group, part, *_ in LOW_ORDER)
        # with gravity, van der Waals and incline on, the low-order model
        # contracts every one of those rows, each on its leading column
        p = Params(reynolds=2.0, bond=0.3, hamaker=0.02, incline=0.3)
        sin_t, cos_t = math.sin(p.incline), math.cos(p.incline)
        hrb = p.hamaker * p.reynolds * p.bond
        mults = (p.bond * sin_t, p.bond * cos_t, p.hamaker, hrb * cos_t, hrb * sin_t)
        rows, reads, weights = _plan(False, ALL_TOGGLES, mults)
        assert rows == LOW_ORDER and reads == ("1", "x1")
        value = dict(zip(MULTIPLIERS, mults))
        np.testing.assert_array_equal(
            weights, [[value[m] * c for c in cut[:2]] for *_, m, cut in expected])


def halo_capillary(state, params, grid):
    """The capillary group's (deta_dt, dgamma_dt) built as a halo formula:
    tension and eta_xx on nodes -1..N, then d1_center of their product."""
    ops = StencilOps(grid)
    eta, gam = state.eta, state.gamma
    tension = surface_tension(ops.halo(gam), params.tension_slope)
    curv = ops.d1_center(tension * ops.halo_d2(eta))
    return (ops.div_flux(-eta**3 * curv / 3.0),
            ops.div_flux(-0.5 * gam * eta**2 * curv))


def stacked(rows):
    return State(np.stack([r.eta for r in rows]), np.stack([r.gamma for r in rows]))


class TestCapillaryGroup:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 80),
           length=st.floats(1.0, 30.0), amp=st.floats(0.01, 0.4),
           slope=st.floats(-2.0, 2.0), batch=st.booleans())
    def test_fluxes_vanish_at_symmetric_walls(self, seed, n, length, amp, slope, batch):
        # tension * eta_xx reflects evenly, so its d1 is exactly 0 at a wall
        g = Grid(n, length, BoundaryKind.NO_FLUX_SYMMETRIC)
        rows = [smooth_state(g, seed=seed + b, eta_amp=amp, gamma_amp=2 * amp)
                for b in range(3 if batch else 1)]
        s = stacked(rows) if batch else rows[0]
        p = Params(tension_slope=slope, toggles=frozenset({"capillary"}))
        groups = {name: parts for name, *parts in _groups(ModelVariant.FULL_CM, s, p, g)}
        eta_flux, gamma_flux, source = groups["capillary"]
        assert source is None
        for flux in (eta_flux, gamma_flux):
            assert flux.shape == s.eta.shape
            assert not flux[..., [0, -1]].any()

    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    @pytest.mark.parametrize("batch", [False, True])
    def test_matches_halo_formula(self, boundary, batch):
        # the nodal product's d1 is the halo formula's stencil on the same
        # ghost nodes, summed in another order: equal to round-off
        g = Grid(41, 12.0, boundary)
        p = Params(tension_slope=0.7)
        for seed in range(4):
            rows = [smooth_state(g, seed=10 * seed + b, eta_amp=0.3) for b in range(3)]
            s = stacked(rows) if batch else rows[0]
            got = rhs_breakdown(ModelVariant.FULL_CM, s, p, g).contributions["capillary"]
            for part, ref in zip((got.deta_dt, got.dgamma_dt), halo_capillary(s, p, g)):
                assert part.shape == s.eta.shape
                assert np.max(np.abs(part - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestErrors:
    def test_positivity_guard(self, noflux_grid):
        # State refuses a film below the floor; rhs evaluates one at it
        eta = np.ones(noflux_grid.n_nodes)
        eta[3] = 1e-9
        with pytest.raises(PositivityError) as err:
            State(eta, np.ones(noflux_grid.n_nodes))
        assert err.value.node == 3
        eta[3] = ETA_FLOOR
        r = rhs(ModelVariant.FULL_CM, State(eta, np.ones(noflux_grid.n_nodes)),
                Params(), noflux_grid)
        assert np.isfinite(r.deta_dt).all() and np.isfinite(r.dgamma_dt).all()

    def test_nan_input_rejected_at_state(self):
        gamma = np.ones(8)
        gamma[2] = np.nan
        with pytest.raises(ValueError):
            State(np.ones(8), gamma)

    def test_grid_mismatch(self, noflux_grid):
        s = State(np.ones(noflux_grid.n_nodes + 5), np.ones(noflux_grid.n_nodes + 5))
        with pytest.raises(ValueError):
            rhs(ModelVariant.FULL_CM, s, Params(), noflux_grid)
