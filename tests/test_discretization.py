import numpy as np
import pytest

from lubrisim import BoundaryKind, Grid, State, StencilOps, film_mass, surfactant_mass

from conftest import smooth_state


def trapz_weights(grid):
    w = np.full(grid.n_nodes, grid.dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


class TestDerivatives:
    def test_constant_maps_to_zero(self, noflux_grid, periodic_grid):
        for g in (noflux_grid, periodic_grid):
            ops = StencilOps(g)
            f = np.full(g.n_nodes, 3.7)
            assert np.all(ops.d1(f) == 0.0)
            assert np.all(ops.d2(f) == 0.0)
            assert np.all(ops.d3(f) == 0.0)

    def test_linearity(self, noflux_grid):
        ops = StencilOps(noflux_grid)
        rng = np.random.default_rng(1)
        f = rng.normal(size=noflux_grid.n_nodes)
        g = rng.normal(size=noflux_grid.n_nodes)
        a, b = 2.5, -1.3
        for d in (ops.d1, ops.d2, ops.d3):
            np.testing.assert_allclose(
                d(a * f + b * g), a * d(f) + b * d(g), rtol=0, atol=1e-12)

    def test_periodic_sine_and_halving(self):
        # d1 of sin(2 pi x / L); halving dx cuts the max error by ~4x
        L = 10.0
        errors = []
        for n in (33, 65):
            g = Grid(n, L, BoundaryKind.PERIODIC)
            x = g.x
            f = np.sin(2 * np.pi * x / L)
            exact = (2 * np.pi / L) * np.cos(2 * np.pi * x / L)
            errors.append(np.max(np.abs(StencilOps(g).d1(f) - exact)))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.15)

    def test_noflux_even_function_d1_zero_at_walls(self, noflux_grid):
        # any array is treated as evenly extended, so d1 vanishes at both ends
        ops = StencilOps(noflux_grid)
        rng = np.random.default_rng(2)
        f = rng.normal(size=noflux_grid.n_nodes)
        d = ops.d1(f)
        assert d[0] == 0.0
        assert d[-1] == 0.0

    def test_convergence_order_all_derivatives(self):
        # smooth periodic test function with known derivatives
        L = 10.0
        k = 2 * np.pi / L

        def f(x):
            return np.exp(np.sin(k * x))

        def d1(x):
            return k * np.cos(k * x) * f(x)

        def d2(x):
            s, c = np.sin(k * x), np.cos(k * x)
            return k**2 * (c**2 - s) * f(x)

        def d3(x):
            s, c = np.sin(k * x), np.cos(k * x)
            return k**3 * c * (c**2 - 3 * s - 1) * f(x)

        for which, exact in (("d1", d1), ("d2", d2), ("d3", d3)):
            errs = []
            for n in (65, 129, 257, 513):
                g = Grid(n, L, BoundaryKind.PERIODIC)
                ops = StencilOps(g)
                err = np.max(np.abs(getattr(ops, which)(f(g.x)) - exact(g.x)))
                errs.append(err)
            orders = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
            assert min(orders) >= 1.9, (which, orders)

    def test_length_mismatch_rejected(self, noflux_grid):
        ops = StencilOps(noflux_grid)
        with pytest.raises(ValueError):
            ops.d1(np.ones(noflux_grid.n_nodes + 1))
        with pytest.raises(ValueError):
            ops.div_flux(np.ones(3))

    def test_stack_length_mismatch_rejected(self, noflux_grid):
        # stacks are checked on their trailing (node) axis
        ops = StencilOps(noflux_grid)
        n = noflux_grid.n_nodes
        for op in (ops.d1, ops.d2, ops.d3, ops.halo, ops.halo_d2, ops.div_flux):
            with pytest.raises(ValueError):
                op(np.ones((4, n + 1)))
            with pytest.raises(ValueError):
                op(np.ones((n, 4)))
            with pytest.raises(ValueError):
                op(1.0)
        with pytest.raises(ValueError):
            ops.d1_center(np.ones((4, n)))

    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    def test_stacked_operators_match_row_by_row(self, boundary):
        g = Grid(29, 10.0, boundary)
        ops = StencilOps(g)
        f = np.random.default_rng(7).normal(size=(3, g.n_nodes))
        for op in (ops.d1, ops.d2, ops.d3, ops.halo, ops.halo_d1, ops.halo_d2,
                   ops.div_flux, ops.integrate):
            stacked = op(f)
            for b in range(3):
                np.testing.assert_array_equal(stacked[b], op(f[b]))


    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    def test_halo_d2_interior_is_d2(self, boundary):
        # on the nodes the halo stencil is the nodal one, bit for bit
        g = Grid(29, 10.0, boundary)
        ops = StencilOps(g)
        rng = np.random.default_rng(9)
        for f in (rng.normal(size=g.n_nodes), rng.normal(size=(3, g.n_nodes))):
            np.testing.assert_array_equal(ops.halo_d2(f)[..., 1:-1], ops.d2(f))
            ghost = ops.ghosted(f)
            np.testing.assert_array_equal(ops.halo_d2(ghost)[..., 1:-1], ops.d2(ghost))

    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    def test_ghosted_field_matches_plain_field(self, boundary):
        # one gather of the ghost nodes serves every stencil, bit for bit
        g = Grid(29, 10.0, boundary)
        ops = StencilOps(g)
        f = np.random.default_rng(8).normal(size=(3, g.n_nodes))
        ghost = ops.ghosted(f)
        for op in (ops.d1, ops.d2, ops.d3, ops.halo, ops.halo_d1, ops.halo_d2):
            np.testing.assert_array_equal(op(ghost), op(f))
        with pytest.raises(ValueError):
            ops.ghosted(np.ones((3, g.n_nodes + 1)))


class TestDivFlux:
    def test_constant_flux_zero_everywhere(self, noflux_grid, periodic_grid):
        for g in (noflux_grid, periodic_grid):
            ops = StencilOps(g)
            assert np.all(ops.div_flux(np.full(g.n_nodes, 2.2)) == 0.0)

    def test_noflux_telescoping_sum(self, noflux_grid):
        # random flux vanishing at the walls (what even-extended fields produce)
        ops = StencilOps(noflux_grid)
        w = trapz_weights(noflux_grid)
        rng = np.random.default_rng(4)
        for _ in range(20):
            F = rng.normal(size=noflux_grid.n_nodes)
            F[0] = 0.0
            F[-1] = 0.0
            total = w @ ops.div_flux(F)
            assert abs(total) <= 1e-14 * np.max(np.abs(F))

    def test_noflux_sum_telescopes_to_boundary_flux(self, noflux_grid):
        ops = StencilOps(noflux_grid)
        w = trapz_weights(noflux_grid)
        rng = np.random.default_rng(5)
        F = rng.normal(size=noflux_grid.n_nodes)
        assert w @ ops.div_flux(F) == pytest.approx(F[-1] - F[0], abs=1e-13)

    def test_periodic_telescoping_sum(self, periodic_grid):
        ops = StencilOps(periodic_grid)
        w = trapz_weights(periodic_grid)
        rng = np.random.default_rng(6)
        for _ in range(20):
            F = rng.normal(size=periodic_grid.n_nodes)
            F[-1] = F[0]  # duplicated endpoint
            total = w @ ops.div_flux(F)
            assert abs(total) <= 1e-14 * np.max(np.abs(F))


class TestIntegrals:
    def test_film_mass_uniform(self):
        g = Grid(41, 10.0)
        s = State(np.ones(41), np.ones(41))
        assert film_mass(s, g) == pytest.approx(10.0, rel=1e-14)

    def test_film_mass_sine_over_full_period(self):
        g = Grid(81, 10.0, BoundaryKind.PERIODIC)
        eta = 1 + 0.5 * np.sin(2 * np.pi * g.x / 10.0)
        s = State(eta, np.ones(81))
        assert film_mass(s, g) == pytest.approx(10.0, rel=1e-12)

    def test_film_mass_matches_refined_quadrature(self):
        # arbitrary smooth profile vs a 40x denser trapezoidal oracle
        L = 10.0

        def profile(x):
            return 1 + 0.3 * np.cos(np.pi * x / L) + 0.1 * np.cos(3 * np.pi * x / L)

        xf = np.linspace(0.0, L, 40 * 64 + 1)
        yf = profile(xf)
        dxf = xf[1] - xf[0]
        oracle = dxf * (yf.sum() - 0.5 * (yf[0] + yf[-1]))

        g = Grid(65, L)
        s = State(profile(g.x), np.ones(65))
        assert film_mass(s, g) == pytest.approx(oracle, abs=5 * g.dx**2)

    def test_surfactant_mass_flat_film(self):
        g = Grid(41, 10.0)
        s = State(np.ones(41), np.ones(41))
        assert surfactant_mass(s, g) == pytest.approx(10.0, rel=1e-14)

    def test_surfactant_mass_flat_film_equals_plain_integral(self):
        g = Grid(41, 10.0)
        gamma = 1 + 0.4 * np.cos(np.pi * g.x / 10.0)
        s = State(np.ones(41), gamma)
        ops = StencilOps(g)
        assert surfactant_mass(s, g) == pytest.approx(ops.integrate(gamma), rel=1e-14)

    def test_corrugated_film_exceeds_plain_integral(self, noflux_grid):
        s = smooth_state(noflux_grid, seed=7)
        ops = StencilOps(noflux_grid)
        assert surfactant_mass(s, noflux_grid) > ops.integrate(s.gamma)
