import numpy as np
import pytest

from lubrisim import (
    BoundaryKind,
    Grid,
    ModelVariant,
    Params,
    PositivityError,
    State,
    StencilOps,
    depth_flux,
    reconstruct,
    rhs_breakdown,
)
from lubrisim.fields import FieldGrid, write_fields_csv

from conftest import CSV_HARD_VALUES


def wavy_state(grid, amp=0.01, k=0.2, phase=0.7):
    x = grid.x
    return State(1 + amp * np.cos(k * x), 1 + amp * np.cos(k * x + phase))


@pytest.fixture
def low_slope():
    k = 0.2
    grid = Grid(257, 2 * np.pi / k, BoundaryKind.PERIODIC)
    return grid, wavy_state(grid)


class TestReconstruct:
    def test_no_slip_at_substrate(self, low_slope):
        grid, s = low_slope
        fg = reconstruct(s, Params(bond=0.3, incline=0.4), grid, [0.0, 0.5, 1.0])
        assert np.max(np.abs(fg.u[0])) == 0.0
        assert np.max(np.abs(fg.v[0])) == 0.0

    def test_flat_film_marangoni_couette(self):
        # u = zeta * tension_x on a flat film with only surfactant gradients
        grid = Grid(129, 10 * np.pi, BoundaryKind.PERIODIC)
        gamma = 1 + 0.1 * np.cos(0.2 * grid.x)
        s = State(np.ones(grid.n_nodes), gamma)
        p = Params(bond=0.0, hamaker=0.0, toggles=frozenset({"marangoni"}))
        zeta = [0.0, 0.25, 0.5, 1.0]
        fg = reconstruct(s, p, grid, zeta)
        tension_x = -p.tension_slope * StencilOps(grid).d1(gamma)
        for m, z in enumerate(zeta):
            np.testing.assert_allclose(fg.u[m], z * tension_x, rtol=0, atol=1e-15)
        # surface slip equals the Marangoni stress
        np.testing.assert_allclose(fg.u[-1], tension_x, rtol=0, atol=1e-15)

    def test_flat_clean_film_hydrostatic_pressure(self):
        grid = Grid(65, 10.0)
        s = State(np.full(65, 1.3), np.ones(65))
        p = Params(bond=0.25, hamaker=0.0, toggles=frozenset({"gravity_normal"}))
        zeta = [0.0, 0.4, 1.0]
        fg = reconstruct(s, p, grid, zeta)
        for m, z in enumerate(zeta):
            np.testing.assert_allclose(fg.p[m], (1 - z) * 0.25 * 1.3,
                                       rtol=0, atol=1e-15)

    def test_free_surface_shear_free_for_pressure_driven_terms(self, low_slope):
        # du/dzeta at zeta=1 vanishes for capillary, normal-gravity and vdW
        # forcing (parabolic profiles); on a flat film the same holds for the
        # leading tangential-gravity term
        grid, s = low_slope
        dz = 1e-4

        def surface_shear(fg):
            # second-order one-sided derivative at zeta = 1
            return (3 * fg.u[2] - 4 * fg.u[1] + fg.u[0]) / (2 * dz)

        levels = [1.0 - 2 * dz, 1.0 - dz, 1.0]
        for toggles in ({"capillary"}, {"gravity_normal"}, {"van_der_waals"}):
            p = Params(bond=0.3, hamaker=0.01, incline=0.5,
                       toggles=frozenset(toggles))
            fg = reconstruct(s, p, grid, levels)
            shear = surface_shear(fg)
            assert np.max(np.abs(shear)) < 1e-6 * max(np.max(np.abs(fg.u[2])), 1e-12)
        flat = State(np.ones(grid.n_nodes), np.ones(grid.n_nodes))
        p = Params(bond=0.3, incline=0.5, toggles=frozenset({"gravity_tangential"}))
        fg = reconstruct(flat, p, grid, levels)
        assert np.max(np.abs(surface_shear(fg))) < 1e-6 * np.max(np.abs(fg.u[2]))

    def test_marangoni_profile_is_linear_in_zeta(self, low_slope):
        # pure Couette: d2u/dzeta2 = 0 for marangoni-only forcing
        grid, s = low_slope
        p = Params(bond=0.0, hamaker=0.0, toggles=frozenset({"marangoni"}))
        fg = reconstruct(s, p, grid, [0.25, 0.5, 0.75])
        second = fg.u[0] - 2 * fg.u[1] + fg.u[2]
        assert np.max(np.abs(second)) < 1e-14

    def test_zeta_validation_and_positivity(self, low_slope):
        grid, s = low_slope
        with pytest.raises(ValueError):
            reconstruct(s, Params(), grid, [0.0, 1.5])
        with pytest.raises(ValueError):
            reconstruct(s, Params(), grid, [])
        eta = np.ones(grid.n_nodes)
        eta[0] = 1e-9
        bad = State(eta, np.ones(grid.n_nodes))
        with pytest.raises(PositivityError):
            reconstruct(bad, Params(), grid, [0.5])

    def test_grid_mismatch(self, low_slope):
        # the first stencil rejects a state that does not fit the grid
        grid, s = low_slope
        short = State(s.eta[:-1], s.gamma[:-1])
        with pytest.raises(ValueError, match="trailing length"):
            reconstruct(short, Params(), grid, [0.5])
        with pytest.raises(ValueError, match="trailing length"):
            depth_flux(short, Params(), grid)


class TestDepthFlux:
    def test_marangoni_flux_matches_thickness_equation(self, low_slope):
        # Q = eta^2 tension_x / 2 exactly, so -div(Q) is the marangoni group
        grid, s = low_slope
        p = Params(bond=0.0, hamaker=0.0, toggles=frozenset({"marangoni"}))
        ops = StencilOps(grid)
        q = depth_flux(s, p, grid)
        tension_x = -p.tension_slope * ops.d1(s.gamma)
        np.testing.assert_allclose(q, s.eta**2 * tension_x / 2, rtol=1e-12, atol=1e-18)
        got = -ops.div_flux(q)
        ref = rhs_breakdown(ModelVariant.FULL_CM, s, p, grid).contributions[
            "marangoni"].deta_dt
        assert np.max(np.abs(got - ref)) <= 0.05 * np.max(np.abs(ref))

    def test_tangential_gravity_flux_leading_order(self, low_slope):
        grid, s = low_slope
        p = Params(bond=0.1, hamaker=0.0, incline=np.pi / 6,
                   toggles=frozenset({"gravity_tangential"}))
        ops = StencilOps(grid)
        q = depth_flux(s, p, grid)
        bs = p.bond * np.sin(p.incline)
        lead = bs * s.eta**3 / 3
        assert np.max(np.abs(q - lead)) <= 0.01 * np.max(np.abs(lead))
        got = -ops.div_flux(q)
        ref = rhs_breakdown(ModelVariant.FULL_CM, s, p, grid).contributions[
            "gravity_tangential"].deta_dt
        assert np.max(np.abs(got - ref)) <= 0.05 * np.max(np.abs(ref))

    def test_all_toggles_off_zero_flux(self, low_slope):
        grid, s = low_slope
        q = depth_flux(s, Params(toggles=frozenset()), grid)
        assert np.max(np.abs(q)) == 0.0

    def test_vdw_flux_consistent_with_thickness_equation(self):
        # leading vdW profile integrates to H * eta_x / eta, the flux of
        # -div(H eta_x / eta) in every model variant
        grid = Grid(129, 10 * np.pi, BoundaryKind.PERIODIC)
        s = wavy_state(grid, amp=0.005)
        p = Params(bond=0.0, hamaker=0.02, toggles=frozenset({"van_der_waals"}))
        ops = StencilOps(grid)
        q = depth_flux(s, p, grid)
        lead = p.hamaker * ops.d1(s.eta) / s.eta
        np.testing.assert_allclose(q, lead, rtol=1e-12, atol=1e-18)


class TestExport:
    def test_csv_export(self, tmp_path, low_slope):
        grid, s = low_slope
        fg = reconstruct(s, Params(), grid, [0.0, 1.0])
        path = tmp_path / "fields.csv"
        write_fields_csv(fg, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,zeta,u,v,p"
        assert len(lines) == 1 + 2 * grid.n_nodes

    def test_csv_rows_are_x_major_and_exact(self, tmp_path):
        x = np.array(CSV_HARD_VALUES)
        zeta = np.array([0.0, 1.0 / 3.0, 1.0])
        rng = np.random.default_rng(5)
        u, v, p = (rng.choice(x, (zeta.size, x.size)) for _ in range(3))
        path = tmp_path / "fields.csv"
        write_fields_csv(FieldGrid(x=x, zeta=zeta, u=u, v=v, p=p), path)
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        want = [(x[i], zeta[m], u[m, i], v[m, i], p[m, i])
                for i in range(x.size) for m in range(zeta.size)]
        np.testing.assert_array_equal(back, want)
