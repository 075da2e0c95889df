import math
import warnings

import numpy as np
import pytest

from lubrisim import (
    BoundaryKind,
    Grid,
    ModelVariant,
    Params,
    PositivityError,
    State,
    StepConfig,
    advance,
    jacobian_fd,
    residual,
    rhs,
    run_simulation,
)
from lubrisim import cli, discretization, models, timestepper
from lubrisim.timestepper import GAMMA_REACH, STENCIL_REACH, _probe_pattern

from conftest import smooth_state


def flat_state(n, eta=1.0, gamma=1.0):
    return State(np.full(n, eta), np.full(n, gamma))


def interleaved(r):
    u = np.empty(2 * r.deta_dt.size)
    u[0::2] = r.deta_dt
    u[1::2] = r.dgamma_dt
    return u


def unknown_nodes(grid):
    """m: node N - 1 of a periodic grid is node 0, no unknown of its own."""
    return grid.n_nodes - (grid.boundary is BoundaryKind.PERIODIC)


def bump_unknown(s, m, k, eps):
    """State s with unknown k of its m unknown nodes bumped by eps: node
    k // 2, and periodic node N - 1 together with node 0."""
    fields = [s.eta.copy(), s.gamma.copy()]
    fields[k % 2][k // 2::m] += eps
    return State(*fields)


def one_column_oracle(s, cfg, variant, params, grid):
    """Residual Jacobian over the 2m unknowns from one rhs evaluation per
    unknown, with the finite differences taken exactly as jacobian_fd
    takes them.  Periodic node N - 1 is bumped with node 0 and its rows,
    copies of node 0's, are dropped."""
    m = unknown_nodes(grid)
    n = 2 * m
    base_u = interleaved(rhs(variant, s, params, grid))[:n]
    oracle = np.zeros((n, n))
    for k in range(n):
        eps = timestepper.FD_EPSILON * max(1.0, abs((s.eta, s.gamma)[k % 2][k // 2]))
        pert = bump_unknown(s, m, k, eps)
        pert_u = interleaved(rhs(variant, pert, params, grid))[:n]
        oracle[:, k] = -(pert_u - base_u) / eps
    oracle[np.arange(n), np.arange(n)] += 1.0 / cfg.dt
    return oracle


def assert_colors_apart(color, separation, periodic):
    """Same-colour nodes lie more than ``separation`` apart, counted
    cyclically mod m on periodic grids, where the m coloured nodes form a
    ring."""
    m = color.size
    for c in np.unique(color):
        nodes = np.nonzero(color == c)[0]
        for a in nodes:
            for b in nodes[nodes > a]:
                d = b - a
                if periodic:
                    d = min(d, m - d)
                assert d > separation, (c, a, b)


def first_fit(n, separation):
    """Greedy colouring of a line of n nodes: each node takes the lowest
    colour unused within ``separation`` to its left."""
    color = []
    for j in range(n):
        taken = set(color[max(0, j - separation):j])
        color.append(next(c for c in range(n) if c not in taken))
    return np.array(color)


def fewest_colors(m, separation, periodic):
    """Lower bound on the colours of m nodes with same-colour nodes more than
    ``separation`` apart: separation + 1 on a line; on a ring one colour
    holds at most floor(m / (separation + 1)) nodes."""
    span = separation + 1
    return -(-m // max(m // span, 1)) if periodic else min(m, span)


# every variant, a toggle subset, and no surface diffusion
PHYSICS = [(variant, Params(bond=0.1, hamaker=0.01, incline=0.3))
           for variant in ModelVariant] + [
    (ModelVariant.FULL_CM, Params(bond=0.1, hamaker=0.01, incline=0.3,
                                  toggles=frozenset({"marangoni", "capillary"}))),
    (ModelVariant.FULL_CM, Params(bond=0.1, hamaker=0.01, incline=0.3,
                                  inv_peclet=0.0)),
]


class TestResidual:
    def test_fixed_point_zero(self, noflux_grid):
        s = flat_state(noflux_grid.n_nodes)
        cfg = StepConfig(dt=50.0)
        r = residual(s, s, cfg, ModelVariant.FULL_CM, Params(), noflux_grid)
        assert np.max(np.abs(r)) == 0.0

    def test_infinite_dt_limit(self, noflux_grid):
        s = smooth_state(noflux_grid, seed=21)
        cfg = StepConfig(dt=1e30)
        r = residual(s, s, cfg, ModelVariant.FULL_CM, Params(), noflux_grid)
        from lubrisim import rhs
        rr = rhs(ModelVariant.FULL_CM, s, Params(), noflux_grid)
        expect = np.empty(2 * noflux_grid.n_nodes)
        expect[0::2] = -rr.deta_dt
        expect[1::2] = -rr.dgamma_dt
        np.testing.assert_allclose(r, expect, rtol=0, atol=1e-25)

    def test_exact_backward_euler_update_of_discrete_diffusion(self):
        # pure diffusion problem: all physics off except plain diffusion.
        # A discrete Fourier mode is an eigenvector of the periodic d2
        # stencil, so the backward-Euler update is known in closed form.
        ds, dt, L = 0.05, 2.0, 10.0
        g = Grid(65, L, BoundaryKind.PERIODIC)
        p = Params(bond=0.0, hamaker=0.0, inv_peclet=ds, toggles=frozenset())
        k = 2 * np.pi / L
        x = g.x
        mode = np.cos(k * x)
        mu = -4.0 * np.sin(k * g.dx / 2.0) ** 2 / g.dx**2  # discrete symbol of d2
        gamma_old = 1 + 0.25 * mode
        gamma_new = 1 + 0.25 * mode / (1 - dt * ds * mu)
        s_old = State(np.ones(g.n_nodes), gamma_old)
        s_new = State(np.ones(g.n_nodes), gamma_new)
        r = residual(s_new, s_old, StepConfig(dt=dt), ModelVariant.DE_WIT, p, g)
        assert np.max(np.abs(r)) < 1e-13

    def test_grid_mismatch(self, noflux_grid):
        s1 = flat_state(noflux_grid.n_nodes)
        s2 = flat_state(noflux_grid.n_nodes + 2)
        with pytest.raises(ValueError):
            residual(s1, s2, StepConfig(dt=1.0), ModelVariant.FULL_CM,
                     Params(), noflux_grid)


class TestJacobian:
    def test_pure_diffusion_tridiagonal_stencil(self):
        # all toggles off, de Wit: dgamma/dt = ds * d2(gamma), deta/dt = 0.
        # residual Jacobian rows: eta rows = I/dt; gamma rows tridiagonal.
        ds, dt = 0.1, 2.0
        g = Grid(21, 10.0)
        p = Params(inv_peclet=ds, toggles=frozenset())
        s = smooth_state(g, seed=22)
        jac = jacobian_fd(s, StepConfig(dt=dt), ModelVariant.DE_WIT, p, g)
        dense = jac.to_dense()
        n = g.n_nodes
        c = ds / g.dx**2
        for i in range(n):
            row = dense[2 * i]  # eta equation
            expect = np.zeros(2 * n)
            expect[2 * i] = 1.0 / dt
            np.testing.assert_allclose(row, expect, atol=1e-6)
        for i in range(1, n - 1):
            row = dense[2 * i + 1]  # gamma equation
            expect = np.zeros(2 * n)
            expect[2 * i + 1] = 1.0 / dt + 2 * c
            expect[2 * (i - 1) + 1] = -c
            expect[2 * (i + 1) + 1] = -c
            np.testing.assert_allclose(row, expect, atol=1e-6)

    def test_dt_enters_only_on_diagonal(self, noflux_grid):
        s = smooth_state(noflux_grid, seed=23)
        j1 = jacobian_fd(s, StepConfig(dt=1.0), ModelVariant.FULL_CM,
                         Params(), noflux_grid).to_dense()
        j2 = jacobian_fd(s, StepConfig(dt=2.0), ModelVariant.FULL_CM,
                         Params(), noflux_grid).to_dense()
        diff = j1 - j2
        expect = (1.0 / 1.0 - 1.0 / 2.0) * np.eye(2 * noflux_grid.n_nodes)
        np.testing.assert_allclose(diff, expect, atol=1e-9)

    def test_reflection_symmetry_commutes(self, noflux_grid):
        # Jacobian at a mirror-symmetric state commutes with the
        # node-reversal permutation
        n = noflux_grid.n_nodes
        x = noflux_grid.x
        eta = 1 + 0.1 * np.cos(2 * np.pi * x / noflux_grid.length)
        gamma = 1 + 0.2 * np.cos(4 * np.pi * x / noflux_grid.length)
        s = State(eta, gamma)
        jac = jacobian_fd(s, StepConfig(dt=5.0), ModelVariant.FULL_CM,
                          Params(), noflux_grid).to_dense()
        perm = np.zeros((2 * n, 2 * n))
        for i in range(n):
            perm[2 * i, 2 * (n - 1 - i)] = 1.0
            perm[2 * i + 1, 2 * (n - 1 - i) + 1] = 1.0
        lhs = jac @ perm
        rhs_ = perm @ jac
        scale = np.max(np.abs(jac))
        assert np.max(np.abs(lhs - rhs_)) <= 1e-5 * scale

    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    @pytest.mark.parametrize("n_nodes", [5, 14, 33, 37, 65, 97, 129])
    @pytest.mark.parametrize("variant, params", PHYSICS)
    def test_per_field_coloring_matches_brute_force(self, boundary, n_nodes,
                                                    variant, params):
        # the coloured assembly reproduces the one-column oracle exactly:
        # no row sees a bump outside its stencil, so every row of a probe is
        # bit-identical to a one-column evaluation.  No periodic m = N - 1
        # here is a multiple of 7 or 5, so the ring colourings mix block
        # lengths; on N = 5 and 14 the stencils wrap onto themselves
        g = Grid(n_nodes, 10.0, boundary)
        s = smooth_state(g, seed=n_nodes)
        cfg = StepConfig(dt=2.0)
        dense = jacobian_fd(s, cfg, variant, params, g).to_dense()
        np.testing.assert_array_equal(dense, one_column_oracle(s, cfg, variant,
                                                               params, g))

    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    @pytest.mark.parametrize("n_nodes", [5, 8, 14, 33, 37, 97, 129])
    def test_coloring_keeps_probes_apart(self, boundary, n_nodes):
        periodic = boundary is BoundaryKind.PERIODIC
        color = _probe_pattern(n_nodes, periodic).color
        m = n_nodes - periodic
        assert color.size == m
        assert_colors_apart(color, 2 * STENCIL_REACH, periodic)
        assert color.max() + 1 == fewest_colors(m, 2 * STENCIL_REACH, periodic)
        if not periodic:  # the closed form is what first-fit gives on a line
            np.testing.assert_array_equal(color, first_fit(m, 2 * STENCIL_REACH))
        if periodic and n_nodes == 129:
            assert color.max() + 1 == 8

    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    @pytest.mark.parametrize("n_nodes", [5, 8, 14, 33, 37, 97, 129])
    def test_gamma_coloring_keeps_probes_apart(self, boundary, n_nodes):
        periodic = boundary is BoundaryKind.PERIODIC
        color = _probe_pattern(n_nodes, periodic).gamma_color
        m = n_nodes - periodic
        assert color.size == m
        assert_colors_apart(color, 2 * GAMMA_REACH, periodic)
        assert color.max() + 1 == fewest_colors(m, 2 * GAMMA_REACH, periodic)
        if not periodic:
            np.testing.assert_array_equal(color, first_fit(m, 2 * GAMMA_REACH))

    @pytest.mark.parametrize("n_nodes, periodic, probes", [
        (97, False, 12), (769, False, 12), (129, True, 14)])
    def test_probe_count(self, n_nodes, periodic, probes):
        # 7 eta + 5 gamma colours on symmetric grids; on the ring of
        # m = 128 periodic nodes 18 blocks of 7 or 8 and 25 blocks of 5 or
        # 6 give 8 + 6
        pat = _probe_pattern(n_nodes, periodic)
        assert pat.n_probes == probes
        assert pat.half_bandwidth == (13 if periodic else 7)

    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    @pytest.mark.parametrize("variant, params", PHYSICS)
    def test_column_reach(self, boundary, variant, params):
        # one rhs per unknown: an eta column changes no row more than
        # STENCIL_REACH nodes away, a gamma column none more than
        # GAMMA_REACH away (cyclically on periodic grids)
        n_nodes = 37
        g = Grid(n_nodes, 10.0, boundary)
        s = smooth_state(g, seed=35)
        base = interleaved(rhs(variant, s, params, g))
        m = n_nodes - 1
        for k in range(2 * n_nodes):
            fld, j = k % 2, k // 2
            fields = [s.eta.copy(), s.gamma.copy()]
            fields[fld][j] += 1e-4
            pert = interleaved(rhs(variant, State(*fields), params, g))
            nodes = np.nonzero(pert != base)[0] // 2
            d = np.abs(nodes - j)
            if boundary is BoundaryKind.PERIODIC:
                d = np.abs(nodes % m - j % m)
                d = np.minimum(d, m - d)
            reach = GAMMA_REACH if fld else STENCIL_REACH
            assert d.max(initial=0) <= reach, (fld, j)

    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    @pytest.mark.parametrize("n_nodes", [33, 129])
    def test_assembly_makes_two_rhs_calls(self, boundary, n_nodes, monkeypatch):
        # base state plus one batched probe call, on both boundary kinds
        calls = []

        def counting_rhs(*args, **kwargs):
            calls.append(1)
            return rhs(*args, **kwargs)

        monkeypatch.setattr(timestepper, "rhs", counting_rhs)
        g = Grid(n_nodes, 10.0, boundary)
        jacobian_fd(smooth_state(g, seed=30), StepConfig(dt=1.0),
                    ModelVariant.FULL_CM, Params(), g)
        assert len(calls) == 2


SOLVER_GRIDS = pytest.mark.parametrize("n_nodes", [5, 6, 8, 33, 37, 129])


class TestBandedSolver:
    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    @SOLVER_GRIDS
    def test_every_entry_lies_inside_the_band(self, boundary, n_nodes):
        # one rhs call per unknown finds every nonzero of dr/du; in the
        # stored order each must sit within the half-bandwidth
        g = Grid(n_nodes, 10.0, boundary)
        s = smooth_state(g, seed=31)
        p = Params(bond=0.1, hamaker=0.01, incline=0.3)
        jac = jacobian_fd(s, StepConfig(dt=2.0), ModelVariant.FULL_CM, p, g)
        m = unknown_nodes(g)
        n = 2 * m
        np.testing.assert_array_equal(np.sort(jac.order), np.arange(n))
        position = np.empty(n, dtype=int)
        position[jac.order] = np.arange(n)
        hb = jac.half_bandwidth
        assert hb <= min(13 if boundary is BoundaryKind.PERIODIC else 7, n - 1)
        base = interleaved(rhs(ModelVariant.FULL_CM, s, p, g))[:n]
        for k in range(n):
            pert = bump_unknown(s, m, k, 1e-4)
            pert = interleaved(rhs(ModelVariant.FULL_CM, pert, p, g))[:n]
            rows = np.nonzero(pert != base)[0]
            assert rows.size > 0
            assert np.all(np.abs(position[rows] - position[k]) <= hb), k

    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    @SOLVER_GRIDS
    def test_solve_is_backward_stable(self, boundary, n_nodes):
        g = Grid(n_nodes, 10.0, boundary)
        jac = jacobian_fd(smooth_state(g, seed=32), StepConfig(dt=2.0),
                          ModelVariant.FULL_CM,
                          Params(bond=0.1, hamaker=0.01, incline=0.3), g)
        dense = jac.to_dense()
        n = jac.n
        assert n == 2 * unknown_nodes(g)
        # a node vector in, a node vector out: the 2m unknowns' rows are
        # solved, and periodic node N - 1 takes node 0's solution
        b = np.random.default_rng(32).uniform(-1.0, 1.0, 2 * n_nodes)
        x = jac.solve(b)
        err = np.max(np.abs(dense @ x[:n] - b[:n]))
        assert err <= 1e-14 * np.max(np.abs(dense)) * np.max(np.abs(x))
        np.testing.assert_array_equal(x[n:], x[:x.size - n])

    def test_singular_jacobian_raises(self, periodic_grid):
        jac = jacobian_fd(smooth_state(periodic_grid, seed=33), StepConfig(dt=1.0),
                          ModelVariant.FULL_CM, Params(), periodic_grid)
        jac.banded[:] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            jac.solve(np.ones(jac.n))

    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    @pytest.mark.parametrize("iters, expected", [(1, 3), (3, 9)])
    def test_newton_iteration_makes_three_rhs_calls(self, boundary, iters,
                                                    expected, monkeypatch):
        # the first residual reuses the Jacobian's base rhs; an unreachable
        # tolerance keeps every requested iteration running
        calls = []

        def counting_rhs(*args, **kwargs):
            calls.append(1)
            return rhs(*args, **kwargs)

        monkeypatch.setattr(timestepper, "rhs", counting_rhs)
        g = Grid(33, 10.0, boundary)
        cfg = StepConfig(dt=1.0, newton_iters=iters, newton_tol=1e-300)
        _, rep = advance(smooth_state(g, seed=34), cfg, ModelVariant.FULL_CM,
                         Params(), g)
        assert rep.newton_iters_used == iters
        assert len(calls) == expected


class TestAdvance:
    def test_flat_state_unchanged(self, noflux_grid):
        s = flat_state(noflux_grid.n_nodes)
        for dt in (0.1, 100.0, 1e6):
            s2, rep = advance(s, StepConfig(dt=dt), ModelVariant.FULL_CM,
                              Params(), noflux_grid)
            assert np.max(np.abs(s2.eta - 1.0)) < 1e-14
            assert np.max(np.abs(s2.gamma - 1.0)) < 1e-14
            assert s2.t == pytest.approx(s.t + dt)

    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_film_mass_conserved_per_step(self, variant, noflux_grid,
                                          periodic_grid):
        s = smooth_state(noflux_grid, seed=25, eta_amp=0.08, gamma_amp=0.15)
        _, rep = advance(s, StepConfig(dt=1.0), variant, Params(), noflux_grid)
        assert abs(rep.film_mass_drift) < 1e-12
        # the periodic full model drifts by 3.07e-12 here, with or without
        # node N - 1 as an unknown of its own: linear-solver round-off of
        # this state, not the duplicated endpoint
        s = smooth_state(periodic_grid, seed=25, eta_amp=0.08, gamma_amp=0.15)
        _, rep = advance(s, StepConfig(dt=1.0), variant, Params(), periodic_grid)
        assert abs(rep.film_mass_drift) < 1e-11

    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_periodic_twin_stays_exact(self, variant, periodic_grid):
        # node N - 1 is node 0 again and takes its update bit for bit
        s = smooth_state(periodic_grid, seed=25, eta_amp=0.08, gamma_amp=0.15)
        s, _ = advance(s, StepConfig(dt=1.0), variant, Params(), periodic_grid)
        assert s.eta[-1] == s.eta[0]
        assert s.gamma[-1] == s.gamma[0]

    @pytest.mark.parametrize("gap", [1e-3, 1e-12])
    @pytest.mark.parametrize("field", ["eta", "gamma"])
    def test_periodic_gap_is_rejected(self, periodic_grid, field, gap):
        # node N - 1 is node 0 again: a gap would never close, so any
        # difference at all is refused, before the first step
        s = smooth_state(periodic_grid, seed=3)
        fields = {"eta": s.eta.copy(), "gamma": s.gamma.copy()}
        fields[field][-1] += gap
        bad = State(**fields)
        cfg = StepConfig(dt=1.0)
        with pytest.raises(ValueError, match=rf"periodic {field}\[N-1\] - {field}\[0\] "
                                             rf"is {gap:.3e}"):
            advance(bad, cfg, ModelVariant.FULL_CM, Params(), periodic_grid)
        with pytest.raises(ValueError, match=f"periodic {field}"):
            run_simulation(bad, 5.0, (), cfg, ModelVariant.FULL_CM, Params(),
                           periodic_grid)

    def test_slow_mode_decay_matches_dispersion(self):
        # criterion-level check at desk scale; the acceptance suite runs the
        # full-size version
        k, ds, eps = 0.2, 1e-4, 1e-6
        L = 2 * np.pi / k
        g = Grid(129, L, BoundaryKind.PERIODIC)
        x = g.x
        m = np.array([[-k**4 / 3, -k**2 / 2], [-k**4 / 2, -(1 + ds) * k**2]])
        evals, evecs = np.linalg.eig(m)
        order = np.argsort(evals)[::-1]
        lam_slow = evals[order[0]]
        r = evecs[:, order]
        r_slow = r[:, 0] / r[0, 0]
        s = State(1 + eps * r_slow[0] * np.cos(k * x),
                  1 + eps * r_slow[1] * np.cos(k * x))
        p = Params(bond=0.0, hamaker=0.0, inv_peclet=ds)
        cfg = StepConfig(dt=1.0)
        w = np.full(g.n_nodes, g.dx)
        w[0] *= 0.5
        w[-1] *= 0.5
        cosk = np.cos(k * x)
        norm = w @ (cosk * cosk)
        left = np.linalg.inv(r)

        def slow_amp(state):
            a = (w @ ((state.eta - 1) * cosk)) / norm
            b = (w @ ((state.gamma - 1) * cosk)) / norm
            return (left @ np.array([a, b]))[0]

        a0 = slow_amp(s)
        for _ in range(50):
            s, _ = advance(s, cfg, ModelVariant.FULL_CM, p, g)
        rate = -np.log(slow_amp(s) / a0) / 50.0
        assert rate == pytest.approx(-lam_slow, rel=0.02)

    def test_newton_residual_contracts(self, noflux_grid):
        s = smooth_state(noflux_grid, seed=26)
        cfg = StepConfig(dt=100.0)
        norms = []
        for iters in (1, 2, 3):
            _, rep = advance(s, StepConfig(dt=100.0, newton_iters=iters),
                             ModelVariant.FULL_CM, Params(), noflux_grid)
            norms.append(rep.residual_norm_after)
        assert norms[0] < rep.residual_norm_before
        assert norms[1] < norms[0]
        assert norms[2] < norms[1]

    def test_huge_time_step_remains_stable(self):
        # dt = 1e4 on the default scenario: the single-Newton scheme keeps
        # the film positive and finite far beyond the accuracy-limited dt
        from lubrisim.cli import build_initial_state, preset
        sc = preset("fig2")
        s = build_initial_state(sc)
        for _ in range(10):
            s, rep = advance(s, StepConfig(dt=1e4), sc.variant, sc.params, sc.grid)
            assert np.all(np.isfinite(s.eta)) and np.all(np.isfinite(s.gamma))
            assert np.min(s.eta) > 0
        # with the sharp initial transient behind it, a multi-iteration
        # Newton solve contracts the residual even at dt = 1e4
        res = run_simulation(build_initial_state(sc), 100.0, (100.0,),
                             sc.step, sc.variant, sc.params, sc.grid)
        s100 = res.snapshots[-1].state
        _, rep = advance(s100, StepConfig(dt=1e4, newton_iters=3),
                         sc.variant, sc.params, sc.grid)
        assert rep.residual_norm_after < 0.1 * rep.residual_norm_before

    def test_positivity_breach_reports_node(self, noflux_grid):
        eta = np.ones(noflux_grid.n_nodes)
        eta[5] = 1e-9
        s = State(eta, np.ones(noflux_grid.n_nodes))
        with pytest.raises(PositivityError) as err:
            advance(s, StepConfig(dt=1.0), ModelVariant.FULL_CM, Params(),
                    noflux_grid)
        assert err.value.node == 5

    @pytest.mark.parametrize("thickness", [-0.5, 1e-9])
    def test_newton_update_breach_reports_node(self, noflux_grid, thickness,
                                               monkeypatch):
        # an update that thins node 5 of a flat film below the floor, past
        # zero or not, stops the step with that node
        def thinning_solve(jac, b):
            delta = np.zeros(jac.n)
            delta[2 * 5] = thickness - 1.0
            return delta

        monkeypatch.setattr(timestepper.FdJacobian, "solve", thinning_solve)
        with pytest.raises(PositivityError) as err:
            advance(flat_state(noflux_grid.n_nodes), StepConfig(dt=1.0),
                    ModelVariant.FULL_CM, Params(), noflux_grid)
        assert err.value.node == 5

    def test_determinism(self, noflux_grid):
        s = smooth_state(noflux_grid, seed=27)
        cfg = StepConfig(dt=3.0)
        s1, _ = advance(s, cfg, ModelVariant.FULL_CM, Params(), noflux_grid)
        s2, _ = advance(s, cfg, ModelVariant.FULL_CM, Params(), noflux_grid)
        np.testing.assert_array_equal(s1.eta, s2.eta)
        np.testing.assert_array_equal(s1.gamma, s2.gamma)


class TestRunSimulation:
    def test_zero_t_end_returns_initial_snapshot_only(self, noflux_grid):
        s = flat_state(noflux_grid.n_nodes)
        res = run_simulation(s, 0.0, (), StepConfig(dt=1.0),
                             ModelVariant.FULL_CM, Params(), noflux_grid)
        assert len(res.snapshots) == 1
        assert res.snapshots[0].time == 0.0
        assert res.summary.steps == 0
        res = run_simulation(s, 0.0, (0.0,), StepConfig(dt=1.0),
                             ModelVariant.FULL_CM, Params(), noflux_grid)
        assert [snap.time for snap in res.snapshots] == [0.0]

    def test_t_end_is_the_last_snapshot(self, noflux_grid):
        s = smooth_state(noflux_grid, seed=28)
        res = run_simulation(s, 10.0, (5.0,), StepConfig(dt=2.0),
                             ModelVariant.FULL_CM, Params(), noflux_grid)
        assert [snap.time for snap in res.snapshots] == [0.0, 5.0, 10.0]
        assert res.snapshots[-1].state.t == res.summary.final_time == 10.0

    def test_zero_surfactant_drifts_are_finite(self, noflux_grid):
        # a clean film: the surfactant mass starts at exactly 0
        eta = smooth_state(noflux_grid, seed=38).eta
        s = State(eta, np.zeros_like(eta))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_simulation(s, 3.0, (), StepConfig(dt=1.0),
                                 ModelVariant.FULL_CM, Params(), noflux_grid)
        assert res.summary.failure is None and res.summary.steps == 3
        summary, report = res.summary, res.snapshots[-1].report
        for drift in (summary.max_film_mass_drift, summary.max_surfactant_mass_drift,
                      summary.final_surfactant_mass_drift,
                      report.film_mass_drift, report.surfactant_mass_drift):
            assert math.isfinite(drift)
        assert summary.max_film_mass_drift < 1e-12

    def test_snapshots_land_exactly(self, noflux_grid):
        s = smooth_state(noflux_grid, seed=28)
        res = run_simulation(s, 25.0, (1.0, 10.0, 25.0), StepConfig(dt=7.0),
                             ModelVariant.DE_WIT, Params(), noflux_grid)
        times = [snap.time for snap in res.snapshots]
        assert times == [0.0, 1.0, 10.0, 25.0]
        assert res.snapshots[-1].state.t == 25.0

    @pytest.mark.parametrize("t0,builds", [(0.0, 8), (3.0, 9)])
    def test_two_state_builds_per_step(self, noflux_grid, monkeypatch, t0, builds):
        # the probe batch and the Newton iterate; the step loop relabels a
        # state only when its t differs from the run's clock (here once,
        # when s0 does not start at t = 0)
        calls = []

        def counting_state(*args, **kwargs):
            calls.append(1)
            return State(*args, **kwargs)

        s = smooth_state(noflux_grid, seed=29)
        monkeypatch.setattr(timestepper, "State", counting_state)
        res = run_simulation(State(s.eta, s.gamma, t0), 4.0, (2.0, 4.0),
                             StepConfig(dt=1.0), ModelVariant.FULL_CM, Params(),
                             noflux_grid)
        assert res.summary.steps == 4
        assert len(calls) == builds
        assert [snap.state.t for snap in res.snapshots[1:]] == [2.0, 4.0]

    def test_partial_results_on_positivity_failure(self, noflux_grid):
        eta = np.ones(noflux_grid.n_nodes)
        eta[5] = 2e-9  # valid state, fails in the first rhs evaluation
        s = State(eta, np.ones(noflux_grid.n_nodes))
        res = run_simulation(s, 10.0, (5.0,), StepConfig(dt=1.0),
                             ModelVariant.FULL_CM, Params(), noflux_grid)
        assert res.summary.failure is not None
        assert "PositivityError" in res.summary.failure
        assert len(res.snapshots) == 1  # initial snapshot preserved

    def test_snapshot_validation(self, noflux_grid):
        s = flat_state(noflux_grid.n_nodes)
        with pytest.raises(ValueError):
            run_simulation(s, 5.0, (6.0,), StepConfig(dt=1.0),
                           ModelVariant.FULL_CM, Params(), noflux_grid)
        with pytest.raises(ValueError):
            run_simulation(s, 5.0, (3.0, 1.0), StepConfig(dt=1.0),
                           ModelVariant.FULL_CM, Params(), noflux_grid)


class TestEvaluationReuse:
    """``rhs`` and the mass integrals remember their last State, so each
    accepted state is evaluated once: the closing residual's rhs is the
    next step's Jacobian base, and a step's masses are read again for free."""

    @staticmethod
    def evaluate_every_call(monkeypatch):
        for name in ("rhs", "film_mass", "surfactant_mass"):
            monkeypatch.setattr(timestepper, name,
                                getattr(timestepper, name).__wrapped__)

    def test_fig2_run_is_bit_identical(self, monkeypatch):
        # 20 steps, three of them shortened to land on a snapshot
        sc = cli.preset("fig2")
        s0 = cli.build_initial_state(sc)

        def run():
            return run_simulation(s0, 1800.0, (1.0, 10.0, 100.0, 1000.0, 1800.0),
                                  sc.step, sc.variant, sc.params, sc.grid)

        cached = run()
        with monkeypatch.context() as m:
            self.evaluate_every_call(m)
            plain = run()
        assert cached.summary.steps == plain.summary.steps == 20
        assert len(cached.snapshots) == len(plain.snapshots) == 6
        for a, b in zip(cached.snapshots, plain.snapshots):
            assert a.time == b.time and a.report == b.report
            np.testing.assert_array_equal(a.state.eta, b.state.eta)
            np.testing.assert_array_equal(a.state.gamma, b.state.gamma)
        for name in ("max_film_mass_drift", "max_surfactant_mass_drift",
                     "final_film_mass_drift", "final_surfactant_mass_drift"):
            assert getattr(cached.summary, name) == getattr(plain.summary, name)

    def test_periodic_steps_are_bit_identical(self, periodic_grid, monkeypatch):
        cfg = StepConfig(dt=1.0)

        def march():
            s = smooth_state(periodic_grid, seed=35)
            out = []
            for _ in range(10):
                s, rep = advance(s, cfg, ModelVariant.FULL_CM, Params(), periodic_grid)
                out.append((s, rep))
            return out

        cached = march()
        with monkeypatch.context() as m:
            self.evaluate_every_call(m)
            plain = march()
        for (a, rep_a), (b, rep_b) in zip(cached, plain):
            assert rep_a == rep_b
            np.testing.assert_array_equal(a.eta, b.eta)
            np.testing.assert_array_equal(a.gamma, b.gamma)

    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    @pytest.mark.parametrize("iters, evaluations", [(1, 3), (3, 7)])
    def test_first_step_evaluates_its_start_once(self, boundary, iters,
                                                 evaluations, monkeypatch):
        # the start state, then a probe batch and a residual per iteration;
        # each later Jacobian base is the residual just evaluated
        entries = []
        real = models._groups

        def counting_groups(*args):
            entries.append(1)
            return real(*args)

        monkeypatch.setattr(models, "_groups", counting_groups)
        g = Grid(33, 10.0, boundary)
        cfg = StepConfig(dt=1.0, newton_iters=iters, newton_tol=1e-300)
        advance(smooth_state(g, seed=34), cfg, ModelVariant.FULL_CM, Params(), g)
        assert len(entries) == evaluations

    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    def test_two_evaluations_per_step(self, boundary, monkeypatch):
        # k steps evaluate rhs 2k + 1 times (3k without the cache), while the
        # timestepper still makes three rhs calls per step, one of them a hit
        entries, calls = [], []
        real_groups, real_rhs = models._groups, timestepper.rhs

        def counting_groups(*args):
            entries.append(1)
            return real_groups(*args)

        def counting_rhs(*args):
            calls.append(1)
            return real_rhs(*args)

        monkeypatch.setattr(models, "_groups", counting_groups)
        monkeypatch.setattr(timestepper, "rhs", counting_rhs)
        g = Grid(33, 10.0, boundary)
        s = smooth_state(g, seed=36)
        k = 5
        for _ in range(k):
            s, _ = advance(s, StepConfig(dt=1.0), ModelVariant.FULL_CM, Params(), g)
        assert len(entries) == 2 * k + 1
        assert len(calls) == 3 * k

    def test_one_mass_pair_per_step(self, noflux_grid, monkeypatch):
        # film and surfactant mass each integrate once per accepted state:
        # 2 (k + 1) integrals over k steps and the start, 6k + 2 uncached
        integrals = []
        real = discretization.StencilOps.integrate

        def counting_integrate(self, f):
            integrals.append(1)
            return real(self, f)

        monkeypatch.setattr(discretization.StencilOps, "integrate", counting_integrate)
        k = 4
        res = run_simulation(smooth_state(noflux_grid, seed=37), float(k), (),
                             StepConfig(dt=1.0), ModelVariant.FULL_CM, Params(),
                             noflux_grid)
        assert res.summary.steps == k
        assert len(integrals) == 2 * (k + 1)


class TestStepConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepConfig(dt=0.0)
        with pytest.raises(ValueError):
            StepConfig(dt=1.0, newton_iters=0)
        with pytest.raises(TypeError):  # no such knob: one Jacobian kind
            StepConfig(dt=1.0, jacobian="analytic")
        with pytest.raises(TypeError):  # no such knob: timestepper.FD_EPSILON
            StepConfig(dt=1.0, fd_epsilon=1e-7)
