import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from lubrisim import (
    BoundaryKind,
    Grid,
    ModelVariant,
    Params,
    PositivityError,
    State,
    StepConfig,
    advance,
    film_mass,
    jacobian_fd,
    residual,
    rhs,
    run_simulation,
    surfactant_mass,
)
from lubrisim import cli, discretization, models, timestepper
from lubrisim.timestepper import FD_EPSILON, GAMMA_REACH, STENCIL_REACH, _probe_pattern

from conftest import needs_numpy_openblas, record_attempts, record_rhs_shapes, smooth_state


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


def batch_shape(grid):
    """Shape of the stacked rhs call: the state over its colour probes."""
    pat = _probe_pattern(grid.n_nodes, grid.boundary is BoundaryKind.PERIODIC)
    return (pat.n_probes + 1, grid.n_nodes)


def rupturing_film():
    """A film 0.5 thick at the right wall (N = 65, L = 10), which van der
    Waals forces (H = 1) thin there to the floor at t = 2.34."""
    grid = Grid(65, 10.0)
    s0 = State(1.0 + 0.5 * np.cos(np.pi * grid.x / grid.length), np.ones(65))
    return s0, ModelVariant.FULL_CM, Params(hamaker=1.0), grid


def batched_run(case):
    """A run and its grid whose accepted states run_simulation integrates in
    batches: smooth films on 65 nodes (batches of up to 31 states), the fig2
    preset to t = 1000 (97 nodes, several full batches of 21) and the
    rupturing film, which fails after its t = 1 snapshot."""
    if case == "fig2":
        sc = cli.preset("fig2")
        return run_simulation(cli.build_initial_state(sc), 1000.0, sc.snapshot_times,
                              sc.step, sc.variant, sc.params, sc.grid), sc.grid
    if case == "rupture":
        s0, variant, params, grid = rupturing_film()
        return run_simulation(s0, 10.0, (1.0, 5.0), StepConfig(dt=1.0), variant, params,
                              grid), grid
    grid = Grid(65, 10.0)
    seed, t_end, times = {"seed37": (37, 4.0, ()), "seed44": (44, 8.0, (4.0,))}[case]
    return run_simulation(smooth_state(grid, seed=seed), t_end, times, StepConfig(dt=1.0),
                          ModelVariant.FULL_CM, Params(), grid), grid


BATCHED_RUNS = ["seed37", "seed44", "fig2", "rupture"]


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
    def test_assembly_makes_one_rhs_call(self, boundary, n_nodes, monkeypatch):
        # the state stacked over its probes, on both boundary kinds; another
        # dt at the same state reuses that evaluation
        g = Grid(n_nodes, 10.0, boundary)
        shapes = record_rhs_shapes(monkeypatch)
        s = smooth_state(g, seed=30)
        for dt in (1.0, 2.0):
            jacobian_fd(s, StepConfig(dt=dt), ModelVariant.FULL_CM, Params(), g)
        assert shapes == [batch_shape(g)]

    @pytest.mark.parametrize("boundary, blocks", [
        (BoundaryKind.NO_FLUX_SYMMETRIC, 7), (BoundaryKind.PERIODIC, 8)])
    def test_blocks_give_the_whole_stack(self, boundary, blocks, monkeypatch):
        # at N = 769 the 13 (15 periodic) rows of the probe stack are
        # evaluated two at a time, the last one alone; the band and base
        # equal, bit for bit, those of one rhs call on the whole stack
        g = Grid(769, 10.0, boundary)
        s = smooth_state(g, seed=47)
        p = Params(bond=0.1, hamaker=0.01, incline=0.3)
        shapes = record_rhs_shapes(monkeypatch)
        lin = timestepper._linearised(ModelVariant.FULL_CM, s, p, g)
        assert shapes == [(2, 769)] * (blocks - 1) + [(1, 769)]
        pat, hb = lin.pattern, lin.pattern.half_bandwidth
        eps = FD_EPSILON * np.maximum(1.0, np.abs(s.fields))
        stack = np.repeat(s.fields[:, None, :], pat.n_probes + 1, axis=1)
        stack.reshape(-1)[pat.bump] += eps.reshape(-1)
        whole = rhs(ModelVariant.FULL_CM, State(*stack), p, g)
        diff = np.append([whole.deta_dt[1:] - whole.deta_dt[0],
                          whole.dgamma_dt[1:] - whole.dgamma_dt[0]], 0.0)
        band = diff[pat.src].reshape(2 * hb + 1, -1, order="F")
        np.testing.assert_array_equal(
            lin.banded, band / -timestepper._interleave(*eps)[pat.order])
        np.testing.assert_array_equal(lin.base.deta_dt, whole.deta_dt[0])
        np.testing.assert_array_equal(lin.base.dgamma_dt, whole.dgamma_dt[0])

    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    def test_linearisation_base_is_rhs(self, boundary):
        # row 0 of the stacked call is the state itself, bit for bit
        g = Grid(37, 10.0, boundary)
        s = smooth_state(g, seed=39)
        p = Params(bond=0.1, hamaker=0.01, incline=0.3)
        base = timestepper._linearised(ModelVariant.FULL_CM, s, p, g).base
        single = rhs(ModelVariant.FULL_CM, s, p, g)
        np.testing.assert_array_equal(base.deta_dt, single.deta_dt)
        np.testing.assert_array_equal(base.dgamma_dt, single.dgamma_dt)

    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    def test_linearisation_base_frees_the_stack(self, boundary):
        # at N = 769, in blocks, the base is a read-only copy of the
        # evaluated stack's row 0, not a view: the bands that cache and hold
        # it keep 2N values alive, not the whole probe stack
        g = Grid(769, 10.0, boundary)
        s = smooth_state(g, seed=48)
        base = timestepper._linearised(ModelVariant.FULL_CM, s, Params(), g).base
        for f in (base.deta_dt, base.dgamma_dt):
            assert not f.flags.writeable and f.base.size == 2 * g.n_nodes

    def test_linearisation_breach_reports_the_state_node(self, noflux_grid):
        # probes only thicken the film, so a stack of the state and its
        # probes names the node and value the state alone names: the first
        # thinnest
        eta = np.ones(noflux_grid.n_nodes)
        eta[[9, 5, 20]] = 4e-9, 4e-9, 6e-9
        probes = np.repeat(eta[None], 3, axis=0)
        probes[[1, 2], [5, 9]] += FD_EPSILON
        errors = []
        for fields in (eta, probes):
            with pytest.raises(PositivityError) as err:
                State(fields, np.ones_like(fields))
            errors.append((err.value.node, err.value.value))
        assert errors[0] == errors[1] == (5, 4e-9)


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
        np.testing.assert_array_equal(np.sort(jac.pattern.order), np.arange(n))
        position = np.empty(n, dtype=int)
        position[jac.pattern.order] = np.arange(n)
        hb = jac.pattern.half_bandwidth
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

    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    def test_lu_leaves_its_workspace_rows_unset(self, boundary):
        # LAPACK's gbtrf needs rows < hb of its input unset: a NaN workspace
        # gives the factors (within the matrix), pivots and solve of a zeroed one
        g = Grid(33, 10.0, boundary)
        jac = jacobian_fd(smooth_state(g, seed=44), StepConfig(dt=1.0),
                          ModelVariant.FULL_CM, Params(bond=0.1, hamaker=0.01, incline=0.3), g)
        hb, pat = jac.pattern.half_bandwidth, jac.pattern
        factors = []
        for fill in (0.0, np.nan):
            ab = np.full((3 * hb + 1, jac.n), fill, order="F")
            ab[hb:] = jac.banded
            ab[2 * hb] += jac.shift
            lu, piv, info = lapack.dgbtrf(ab, hb, hb)
            assert info == 0
            factors.append((lu, piv))
        row, col = np.indices(ab.shape)
        inside = (row + col >= 2 * hb) & (row + col < 2 * hb + jac.n)
        b = np.random.default_rng(44).uniform(-1.0, 1.0, 2 * g.n_nodes)
        (lu0, piv0), *others = factors
        x0 = lapack.dgbtrs(lu0, hb, hb, b[pat.order], piv0)[0][pat.gather]
        own = jac._lu  # numpy's OpenBLAS gives Fortran's 1-based pivots
        base = 1 if isinstance(own, timestepper._OpenblasBandLu) else 0
        for lu, piv in (*others, (own.lu, own.piv - base)):
            np.testing.assert_array_equal(lu[inside], lu0[inside])
            np.testing.assert_array_equal(piv, piv0)
            np.testing.assert_array_equal(
                lapack.dgbtrs(lu, hb, hb, b[pat.order], piv)[0][pat.gather], x0)
        np.testing.assert_array_equal(jac.solve(b), x0)

    @needs_numpy_openblas
    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    def test_loaded_lapack_matches_scipy_linalg(self, boundary):
        # numpy's own OpenBLAS through ctypes and scipy.linalg.lapack give
        # the same factors (within the matrix), pivots (1-based against
        # 0-based) and solve on a band of either kind
        g = Grid(33, 10.0, boundary)
        jac = jacobian_fd(smooth_state(g, seed=45), StepConfig(dt=1.0),
                          ModelVariant.FULL_CM, Params(bond=0.1, hamaker=0.01, incline=0.3), g)
        hb, pat = jac.pattern.half_bandwidth, jac.pattern
        ab = np.zeros((3 * hb + 1, jac.n), order="F")
        ab[hb:] = jac.banded
        ab[2 * hb] += jac.shift
        b = np.random.default_rng(45).uniform(-1.0, 1.0, 2 * g.n_nodes)[pat.order]
        own = timestepper._band_lu(jac.banded, jac.shift)
        lu, piv, info = lapack.dgbtrf(ab, hb, hb)
        assert own.info == info == 0
        row, col = np.indices(ab.shape)
        inside = (row + col >= 2 * hb) & (row + col < 2 * hb + jac.n)
        np.testing.assert_array_equal(own.lu[inside], lu[inside])
        np.testing.assert_array_equal(own.piv, piv + 1)
        np.testing.assert_array_equal(own.solve(b), lapack.dgbtrs(lu, hb, hb, b, piv)[0])

    def test_lapack_falls_back_to_scipy_linalg(self, monkeypatch, tmp_path):
        # where numpy's library is not found (an empty directory hides it)
        # the LU comes from scipy.linalg.lapack, and a step solved through
        # it is the same to the last bit
        public = timestepper._load_band_lu(str(tmp_path))
        assert public is timestepper._ScipyBandLu
        g = Grid(33, 10.0, BoundaryKind.NO_FLUX_SYMMETRIC)
        s0, cfg = smooth_state(g, seed=46), StepConfig(dt=1.0)
        steps = [advance(s0, cfg, ModelVariant.FULL_CM, Params(), g)[0]]
        monkeypatch.setattr(timestepper, "_band_lu", public)
        steps.append(advance(s0, cfg, ModelVariant.FULL_CM, Params(), g)[0])
        np.testing.assert_array_equal(steps[0].fields, steps[1].fields)

    def test_singular_jacobian_raises(self, periodic_grid):
        jac = jacobian_fd(smooth_state(periodic_grid, seed=33), StepConfig(dt=1.0),
                          ModelVariant.FULL_CM, Params(), periodic_grid)
        jac = dataclasses.replace(jac, banded=np.zeros_like(jac.banded), shift=0.0)
        with pytest.raises(np.linalg.LinAlgError):
            jac.solve(np.ones(jac.n))

    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    @pytest.mark.parametrize("scale, b", [(np.nan, 1.0), (1e300, 1e300)])
    def test_non_finite_solution_raises(self, boundary, scale, b):
        # gbtrf sees no zero pivot, but the solve is nan, or overflows in
        # the back substitution of a band scaled by 1e300
        g = Grid(33, 10.0, boundary)
        jac = jacobian_fd(smooth_state(g, seed=43), StepConfig(dt=1.0),
                          ModelVariant.FULL_CM, Params(), g)
        jac = dataclasses.replace(jac, banded=jac.banded * scale)
        with np.errstate(all="ignore"), pytest.raises(
                np.linalg.LinAlgError, match="non-finite solution"):
            jac.solve(np.full(jac.n, b))

    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    @pytest.mark.parametrize("iters", [1, 3])
    def test_newton_iteration_makes_one_rhs_call(self, boundary, iters,
                                                 monkeypatch):
        # the start state stacked over its probes, then each update's new
        # state over its own; an unreachable tolerance keeps every requested
        # iteration running
        shapes = record_rhs_shapes(monkeypatch)
        g = Grid(33, 10.0, boundary)
        cfg = StepConfig(dt=1.0, newton_iters=iters, newton_tol=1e-300)
        _, rep = advance(smooth_state(g, seed=34), cfg, ModelVariant.FULL_CM,
                         Params(), g)
        assert rep.newton_iters_used == iters
        assert shapes == [batch_shape(g)] * (iters + 1)


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
        def drift(grid):
            s = smooth_state(grid, seed=25, eta_amp=0.08, gamma_amp=0.15)
            _, rep = advance(s, StepConfig(dt=1.0), variant, Params(), grid)
            return (rep.film_mass - film_mass(s, grid)) / film_mass(s, grid)

        assert abs(drift(noflux_grid)) < 1e-12
        # the periodic full model drifts by 3.07e-12 here, with or without
        # node N - 1 as an unknown of its own: linear-solver round-off of
        # this state, not the duplicated endpoint
        assert abs(drift(periodic_grid)) < 1e-11

    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_periodic_twin_stays_exact(self, variant, periodic_grid):
        # node N - 1 is node 0 again and takes its update bit for bit
        s = smooth_state(periodic_grid, seed=25, eta_amp=0.08, gamma_amp=0.15)
        s, _ = advance(s, StepConfig(dt=1.0), variant, Params(), periodic_grid)
        assert s.eta[-1] == s.eta[0]
        assert s.gamma[-1] == s.gamma[0]

    @staticmethod
    def entry_call(entry, state, good, cfg, args):
        """A call of one public step entry on state; residual takes it as
        either argument, with the state good as the other."""
        return {"advance": lambda: advance(state, cfg, *args),
                "run_simulation": lambda: run_simulation(state, 5.0, (), cfg, *args),
                "jacobian_fd": lambda: jacobian_fd(state, cfg, *args),
                "residual(new)": lambda: residual(state, good, cfg, *args),
                "residual(old)": lambda: residual(good, state, cfg, *args)}[entry]

    ENTRIES = ["advance", "run_simulation", "jacobian_fd", "residual(new)", "residual(old)"]

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("gap", [1e-3, 1e-12])
    @pytest.mark.parametrize("field", ["eta", "gamma"])
    def test_periodic_gap_is_rejected(self, periodic_grid, field, gap, entry, monkeypatch):
        # node N - 1 is node 0 again: a gap would never close, so any
        # difference at all is refused, before any rhs call
        s = smooth_state(periodic_grid, seed=3)
        fields = {"eta": s.eta.copy(), "gamma": s.gamma.copy()}
        fields[field][-1] += gap
        bad = State(**fields)
        args = (ModelVariant.FULL_CM, Params(), periodic_grid)
        call = self.entry_call(entry, bad, s, StepConfig(dt=1.0), args)
        shapes = record_rhs_shapes(monkeypatch)
        with pytest.raises(ValueError, match=rf"periodic {field}\[N-1\] - {field}\[0\] "
                                             rf"is {gap:.3e}"):
            call()
        assert shapes == []

    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    @pytest.mark.parametrize("shape", [(31,), (2, 33)])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_state_off_the_grid_is_rejected(self, entry, shape, boundary, monkeypatch):
        # another grid's state, or a batch of states, is refused before any
        # rhs call by one ValueError that names its shape and the node count
        g = Grid(33, 10.0, boundary)
        s = State(np.ones(shape), np.ones(shape))
        args = (ModelVariant.FULL_CM, Params(), g)
        call = self.entry_call(entry, s, flat_state(33), StepConfig(dt=1.0), args)
        shapes = record_rhs_shapes(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}") + " .* 33 nodes"):
            call()
        assert shapes == []

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
        # a film at twice the floor is thinned through it by its first update
        eta = np.ones(noflux_grid.n_nodes)
        eta[5] = 2e-8
        s = State(eta, np.ones(noflux_grid.n_nodes))
        with pytest.raises(PositivityError) as err:
            advance(s, StepConfig(dt=1.0), ModelVariant.FULL_CM, Params(),
                    noflux_grid)
        assert err.value.node == 5

    @pytest.mark.parametrize("thickness", [-0.5, 1e-9])
    def test_newton_update_breach_reports_node(self, noflux_grid, thickness,
                                               monkeypatch):
        # an update that thins node 5 of a flat film below the floor, past
        # zero or not, stops the step with that node when its State is
        # built, before the closing rhs call
        def thinning_solve(jac, b):
            delta = np.zeros(jac.n)
            delta[2 * 5] = thickness - 1.0
            return delta

        monkeypatch.setattr(timestepper.FdJacobian, "solve", thinning_solve)
        shapes = record_rhs_shapes(monkeypatch)
        with pytest.raises(PositivityError) as err:
            advance(flat_state(noflux_grid.n_nodes), StepConfig(dt=1.0),
                    ModelVariant.FULL_CM, Params(), noflux_grid)
        assert err.value.node == 5
        n = noflux_grid.n_nodes
        assert shapes == [(_probe_pattern(n, False).n_probes + 1, n)]  # the start only

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

    @pytest.mark.parametrize("t_end, snapshots, dt", [
        (1e-10, (), 1.0),
        (100.0 + 1e-8, (100.0,), 10.0),
        (1e-9, (), 1e-10),
        (5e-9, (2e-9,), 1e-9),
    ])
    def test_t_end_is_reached_exactly(self, t_end, snapshots, dt):
        # a step is cut to its target, however close: 1e-10 from 0, 1e-8
        # past a snapshot, or after first steps far below one
        s = smooth_state(Grid(33, 10.0), seed=28)
        res = run_simulation(s, t_end, snapshots, StepConfig(dt=dt),
                             ModelVariant.FULL_CM, Params(), Grid(33, 10.0))
        assert res.summary.failure is None
        assert [snap.time for snap in res.snapshots] == [0.0, *snapshots, t_end]
        assert [snap.state.t for snap in res.snapshots] == [0.0, *snapshots, t_end]
        assert res.summary.final_time == t_end

    def test_zero_surfactant_drifts_are_finite(self, noflux_grid):
        # a clean film: the surfactant mass starts at exactly 0
        eta = smooth_state(noflux_grid, seed=38).eta
        s = State(eta, np.zeros_like(eta))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_simulation(s, 3.0, (), StepConfig(dt=1.0),
                                 ModelVariant.FULL_CM, Params(), noflux_grid)
        assert res.summary.failure is None and res.summary.final_time == 3.0
        summary, report = res.summary, res.snapshots[-1].report
        for value in (summary.max_film_mass_drift, summary.max_surfactant_mass_drift,
                      summary.final_surfactant_mass_drift,
                      report.film_mass, report.surfactant_mass):
            assert math.isfinite(value)
        assert summary.max_film_mass_drift < 1e-12

    @pytest.mark.parametrize("case", ["fig2", "periodic"])
    def test_reports_carry_their_states_masses(self, periodic_grid, case):
        # every snapshot, t = 0 included; fig2 shortens three steps to land
        if case == "fig2":
            sc = cli.preset("fig2")
            s0, cfg, grid = cli.build_initial_state(sc), sc.step, sc.grid
            times = (1.0, 10.0, 100.0, 1000.0, 1800.0)
        else:
            s0, cfg = smooth_state(periodic_grid, seed=43), StepConfig(dt=1.0)
            grid = periodic_grid
            times = tuple(map(float, range(1, 11)))
        res = run_simulation(s0, times[-1], times, cfg, ModelVariant.FULL_CM,
                             Params(), grid)
        assert res.summary.failure is None
        assert [snap.time for snap in res.snapshots] == [0.0, *times]
        for snap in res.snapshots:
            assert snap.report.film_mass == film_mass(snap.state, grid)
            assert snap.report.surfactant_mass == surfactant_mass(snap.state, grid)

    @pytest.mark.parametrize("case", BATCHED_RUNS)
    def test_summary_drifts_come_from_the_accepted_states(self, case, monkeypatch):
        # the drifts of every accepted attempt's end state, each integrated
        # on its own here, and of no other state; a snapshot's report is its
        # landing attempt's with its state's masses; a failed run's partial
        # results cover every state it accepted before the failure
        attempts = record_attempts(monkeypatch)
        res, grid = batched_run(case)
        accepted = [a for a in attempts if a["err"] <= 1.0]
        assert res.summary.steps == len(accepted) and res.summary.rejected_steps > 0
        first = res.snapshots[0].report
        film = [abs((film_mass(a["state"], grid) - first.film_mass) / abs(first.film_mass))
                for a in accepted]
        surf = [abs((surfactant_mass(a["state"], grid) - first.surfactant_mass)
                    / abs(first.surfactant_mass)) for a in accepted]
        summary = res.summary
        assert summary.max_film_mass_drift == max(film)
        assert summary.final_film_mass_drift == film[-1]
        assert summary.max_surfactant_mass_drift == max(surf)
        assert summary.final_surfactant_mass_drift == surf[-1]
        landed = [a for a in accepted if a["check"]]
        assert len(res.snapshots) == len(landed) + 1
        assert (accepted[-1] is landed[-1]) == (summary.failure is None)
        assert (summary.failure is None) == (case != "rupture")
        for a in attempts:  # an attempt integrates no mass, and only a landing
            if (rep := a["report"]) is not None:  # takes its residual before its update
                assert math.isnan(rep.film_mass) and math.isnan(rep.surfactant_mass)
                assert math.isfinite(rep.residual_norm_before) == a["check"]
        for snap, a in zip(res.snapshots[1:], landed):
            np.testing.assert_array_equal(snap.state.fields, a["state"].fields)
            assert repr(snap.report) == repr(dataclasses.replace(
                a["report"], film_mass=film_mass(a["state"], grid),
                surfactant_mass=surfactant_mass(a["state"], grid)))

    def test_snapshots_land_exactly(self, noflux_grid):
        s = smooth_state(noflux_grid, seed=28)
        res = run_simulation(s, 25.0, (1.0, 10.0, 25.0), StepConfig(dt=7.0),
                             ModelVariant.DE_WIT, Params(), noflux_grid)
        times = [snap.time for snap in res.snapshots]
        assert times == [0.0, 1.0, 10.0, 25.0]
        assert res.snapshots[-1].state.t == 25.0

    @pytest.mark.parametrize("t0", [0.0, 3.0])
    def test_state_builds_per_step(self, noflux_grid, monkeypatch, t0):
        # each attempt builds its predictor and its one Newton iterate, the
        # probes stacked in one State on a refresh; the step loop relabels
        # an accepted state only when its t differs from the run's clock,
        # which it always does for the first one when s0 does not start at 0
        calls, inside = [], []

        def counting_state(*args, **kwargs):
            calls.append(1)
            return State(*args, **kwargs)

        real = timestepper._attempt

        def counting_attempt(*args):
            before = len(calls)
            try:
                return real(*args)
            finally:
                inside.append(len(calls) - before)

        s = smooth_state(noflux_grid, seed=29)
        monkeypatch.setattr(timestepper, "State", counting_state)
        monkeypatch.setattr(timestepper, "_attempt", counting_attempt)
        attempts = record_attempts(monkeypatch)
        res = run_simulation(State(s.eta, s.gamma, t0), 4.0, (2.0, 4.0),
                             StepConfig(dt=1.0), ModelVariant.FULL_CM, Params(),
                             noflux_grid)
        assert len(inside) == res.summary.steps + res.summary.rejected_steps
        assert inside == [2 + a["refreshed"] for a in attempts]
        assert res.summary.failure is None
        relabels = len(calls) - sum(inside)
        assert (t0 != 0.0) <= relabels <= res.summary.steps
        assert [snap.state.t for snap in res.snapshots[1:]] == [2.0, 4.0]

    def test_partial_results_on_positivity_failure(self, monkeypatch):
        # the film ruptures at t = 2.34: the attempts there breach the floor
        # until the step underflows, after the t = 1 snapshot was taken
        attempts = record_attempts(monkeypatch)
        s0, *args = rupturing_film()
        res = run_simulation(s0, 10.0, (1.0, 5.0), StepConfig(dt=1.0), *args)
        assert res.summary.failure.startswith("PositivityError: film thickness")
        assert "underflowed at t = 2.34" in res.summary.failure
        assert [snap.time for snap in res.snapshots] == [0.0, 1.0]
        assert 2.3 < res.summary.final_time < 2.4
        last = attempts[-1]
        assert last["raised"] == "PositivityError"
        assert 0.2 * last["h"] < 10.0 * math.ulp(5.0) <= last["h"]
        assert res.summary.max_film_mass_drift < 1e-10

    @pytest.mark.parametrize("t_end", [np.inf, np.nan, -1.0])
    def test_t_end_validation(self, noflux_grid, t_end):
        with pytest.raises(ValueError, match="t_end must be finite and >= 0"):
            run_simulation(flat_state(noflux_grid.n_nodes), t_end, (),
                           StepConfig(dt=1.0), ModelVariant.FULL_CM, Params(),
                           noflux_grid)

    def test_snapshot_validation(self, noflux_grid):
        s = flat_state(noflux_grid.n_nodes)
        with pytest.raises(ValueError):
            run_simulation(s, 5.0, (6.0,), StepConfig(dt=1.0),
                           ModelVariant.FULL_CM, Params(), noflux_grid)
        with pytest.raises(ValueError):
            run_simulation(s, 5.0, (3.0, 1.0), StepConfig(dt=1.0),
                           ModelVariant.FULL_CM, Params(), noflux_grid)

    @pytest.mark.parametrize("times", [(np.nan,), (1.0, np.nan)])
    def test_nan_snapshot_time_is_refused(self, noflux_grid, times):
        # nan compares false both with 0 and with t_end, and sorts in place
        with pytest.raises(ValueError, match=r"must ascend in \[0, t_end\]"):
            run_simulation(flat_state(noflux_grid.n_nodes), 10.0, times,
                           StepConfig(dt=1.0), ModelVariant.FULL_CM, Params(),
                           noflux_grid)


class TestEvaluationReuse:
    """Each state is evaluated once: in standalone ``advance`` the closing
    residual's rhs call, stacked over its probes, is the next iteration's
    or step's start, handed on by the linearisation cache; a step's report
    carries the masses of its end state, so no state is integrated twice.
    The cache changes no result of a run either, whose attempts evaluate
    their predictor once and integrate nothing: the run integrates its
    accepted states once, stacked in batches."""

    @staticmethod
    def evaluate_every_call(monkeypatch):
        """Unwrap the linearisation cache, the only one keyed on a State."""
        monkeypatch.setattr(timestepper, "_linearised",
                            timestepper._linearised.__wrapped__)

    def test_fig2_run_is_bit_identical(self, monkeypatch):
        # some 180 steps, with refreshes, rejections and landings
        sc = cli.preset("fig2")
        s0 = cli.build_initial_state(sc)

        def run():
            return run_simulation(s0, 1800.0, (1.0, 10.0, 100.0, 1000.0, 1800.0),
                                  sc.step, sc.variant, sc.params, sc.grid)

        cached = run()
        with monkeypatch.context() as m:
            self.evaluate_every_call(m)
            plain = run()
        assert cached.summary.rejected_steps > 0 and cached.summary.jacobian_refreshes > 1
        assert dataclasses.replace(cached.summary, wall_time=0.0) == dataclasses.replace(
            plain.summary, wall_time=0.0)
        assert len(cached.snapshots) == len(plain.snapshots) == 6
        for a, b in zip(cached.snapshots, plain.snapshots):
            assert a.time == b.time and repr(a.report) == repr(b.report)  # nan too
            np.testing.assert_array_equal(a.state.eta, b.state.eta)
            np.testing.assert_array_equal(a.state.gamma, b.state.gamma)

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
    @pytest.mark.parametrize("iters, evaluations", [(1, 2), (3, 4)])
    def test_first_step_evaluates_its_start_once(self, boundary, iters,
                                                 evaluations, monkeypatch):
        # the start state, then one stacked call per iteration whose row 0
        # is the residual and whose probes are the next iteration's Jacobian
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
    def test_one_evaluation_per_step(self, boundary, monkeypatch):
        # k one-iteration steps evaluate rhs k + 1 times, each call the
        # state stacked over its probes: the start, and each step's new state
        entries = []
        real_groups = models._groups

        def counting_groups(*args):
            entries.append(1)
            return real_groups(*args)

        monkeypatch.setattr(models, "_groups", counting_groups)
        shapes = record_rhs_shapes(monkeypatch)
        g = Grid(33, 10.0, boundary)
        s = smooth_state(g, seed=36)
        k = 5
        for _ in range(k):
            s, _ = advance(s, StepConfig(dt=1.0), ModelVariant.FULL_CM, Params(), g)
        assert len(entries) == k + 1
        assert shapes == [batch_shape(g)] * (k + 1)

    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    def test_one_divergence_for_both_fluxes(self, boundary, monkeypatch):
        # the stacked (eta flux, gamma flux) pair takes one div_flux, and the
        # slope-corrected diffusion its own inner one
        calls = []
        real = discretization.StencilOps.div_flux

        def counting_div_flux(self, flux):
            calls.append(np.shape(flux))
            return real(self, flux)

        monkeypatch.setattr(discretization.StencilOps, "div_flux", counting_div_flux)
        g = Grid(33, 10.0, boundary)
        params = Params()
        assert "geometric_diffusion" in params.toggles and params.inv_peclet > 0
        rhs(ModelVariant.FULL_CM, smooth_state(g, seed=46), params, g)
        assert calls == [(g.n_nodes,), (2, g.n_nodes)]

    def test_advance_integrates_only_its_end_state(self, noflux_grid, monkeypatch):
        # one film and one surfactant integral, of the state the step returns
        integrals = []
        real = discretization.StencilOps.integrate

        def counting_integrate(self, f):
            integrals.append(1)
            return real(self, f)

        monkeypatch.setattr(discretization.StencilOps, "integrate", counting_integrate)
        advance(smooth_state(noflux_grid, seed=45), StepConfig(dt=1.0),
                ModelVariant.FULL_CM, Params(), noflux_grid)
        assert len(integrals) == 2

    @pytest.mark.parametrize("case", BATCHED_RUNS)
    def test_one_mass_pair_per_batch(self, case, monkeypatch):
        # film and surfactant mass each integrate s0, then each batch of
        # accepted end states, stacked: a batch ends at each landing, when it
        # holds one probe-stack block of node values, and at the run's end;
        # no attempt, rejected or accepted, integrates anything
        integrals, inside = [], []
        real_integrate, real_attempt = discretization.StencilOps.integrate, timestepper._attempt

        def counting_integrate(self, f):
            integrals.append(np.shape(f))
            return real_integrate(self, f)

        def counting_attempt(*args):
            before = len(integrals)
            try:
                return real_attempt(*args)
            finally:
                inside.append(len(integrals) - before)

        monkeypatch.setattr(discretization.StencilOps, "integrate", counting_integrate)
        monkeypatch.setattr(timestepper, "_attempt", counting_attempt)
        attempts = record_attempts(monkeypatch)
        res, grid = batched_run(case)
        n, batches, size = grid.n_nodes, [], 0
        rows = timestepper._BLOCK_VALUES // n
        for a in attempts:
            if a["err"] <= 1.0:
                size += 1
                if a["check"] or size == rows:
                    batches.append(size)
                    size = 0
        batches += [size] * (size > 0)
        assert sum(batches) == res.summary.steps
        assert integrals == [(n,)] * 2 + [(b, n) for b in batches for _ in range(2)]
        assert inside == [0] * len(attempts)
        assert (res.summary.failure is None) == (case != "rupture")
        if case != "rupture":
            assert not any(a["raised"] for a in attempts)
        if case == "fig2":
            assert rows == 21 and batches.count(rows) >= 2


class TestHeldJacobian:
    """run_simulation's attempts at variable-order NDF steps solve on the
    band of its last refresh, which the first attempt takes at its
    predictor, and an error rejection on a band older than its step takes
    anew at the attempt's predictor; any other rejection shrinks the step."""

    def test_first_step_is_backward_euler(self, noflux_grid, monkeypatch):
        # the first attempt is NDF1 (Shampine & Reichelt's kappa_1 = -0.1850)
        # from the line through s0 along its rhs, pred = s0 + h rhs(s0):
        # backward Euler over h / (1 - kappa_1) from (s0 - kappa_1 pred) /
        # (1 - kappa_1), one Newton update from pred on the band taken there
        attempts = record_attempts(monkeypatch)
        s0 = smooth_state(noflux_grid, seed=40)
        args = (ModelVariant.FULL_CM, Params(), noflux_grid)
        monkeypatch.setattr(timestepper, "RTOL", 0.01)
        h = 0.01
        res = run_simulation(s0, h, (), StepConfig(dt=h), *args)
        assert [(a["order"], a["refreshed"]) for a in attempts] == [(1, True)]
        assert attempts[0]["err"] <= 1.0
        monkeypatch.undo()
        kappa = -0.1850
        f0 = rhs(args[0], s0, *args[1:])
        pred = State(s0.eta + h * f0.deta_dt, s0.gamma + h * f0.dgamma_dt, h)
        start = State((s0.eta - kappa * pred.eta) / (1 - kappa),
                      (s0.gamma - kappa * pred.gamma) / (1 - kappa))
        cfg = StepConfig(dt=h / (1 - kappa))
        du = np.linalg.solve(jacobian_fd(pred, cfg, *args).to_dense(),
                             -residual(pred, start, cfg, *args))
        end = res.snapshots[-1].state
        np.testing.assert_allclose(end.eta, pred.eta + du[0::2], rtol=0, atol=1e-13)
        np.testing.assert_allclose(end.gamma, pred.gamma + du[1::2], rtol=0, atol=1e-13)
        assert np.max(np.abs(du)) > 1e-6  # the update is no round-off

    @pytest.mark.parametrize("case", ["fig2", "periodic"])
    def test_rhs_calls_per_attempt(self, case, monkeypatch):
        # one at s0 for the first predictor; then per attempt one at its
        # predictor, stacked over the probes where the band is refreshed, and
        # one after the update where the attempt lands on a snapshot; every
        # Jacobian goes through jacobian_fd
        shapes = record_rhs_shapes(monkeypatch)
        attempts = record_attempts(monkeypatch)
        jacobians = []
        real = timestepper.jacobian_fd
        monkeypatch.setattr(timestepper, "jacobian_fd",
                            lambda *a: jacobians.append(1) or real(*a))
        if case == "fig2":
            sc = cli.preset("fig2")
            g, s0, t_end = sc.grid, cli.build_initial_state(sc), 1000.0
        else:
            g = Grid(33, 10.0, BoundaryKind.PERIODIC)
            s0, t_end = smooth_state(g, seed=36), 100.0
        res = run_simulation(s0, t_end, (5.0,), StepConfig(dt=1.0),
                             ModelVariant.FULL_CM, Params(), g)
        assert res.summary.steps + res.summary.rejected_steps == len(attempts)
        assert shapes == [(g.n_nodes,)] + [shape for a in attempts for shape in (
            [batch_shape(g) if a["refreshed"] else (g.n_nodes,)]
            + [(g.n_nodes,)] * (a["check"] and a["report"] is not None))]
        assert sum(a["check"] and a["err"] <= 1.0 for a in attempts) == 2
        assert res.summary.jacobian_refreshes == len(jacobians) == sum(
            a["refreshed"] for a in attempts) > 1

    @pytest.mark.parametrize("boundary", list(BoundaryKind))
    def test_attempts_are_not_rechecked(self, boundary, monkeypatch):
        # run_simulation checks its start, and jacobian_fd each predictor it
        # refreshes the band at; the attempts advance forwards are not checked
        checks = []
        real = timestepper._require_state
        monkeypatch.setattr(timestepper, "_require_state",
                            lambda state, grid: checks.append(1) or real(state, grid))
        sc = cli.preset("fig2")
        sc = dataclasses.replace(sc, grid=dataclasses.replace(sc.grid, boundary=boundary))
        res = run_simulation(cli.build_initial_state(sc), 100.0, (), sc.step, sc.variant,
                             sc.params, sc.grid)
        sm = res.summary
        assert sm.failure is None and sm.jacobian_refreshes > 1
        assert len(checks) == 1 + sm.jacobian_refreshes < sm.steps + sm.rejected_steps

    def test_step_size_control(self, monkeypatch):
        # the fig2 drop to t = 1e4: each attempt's step and order follow from
        # the one before it as run_simulation's docstring states: h and k
        # held until k + 1 steps are accepted at both, then k moved by at
        # most one and h by the order-k rule or held in [1, 1.2); the step
        # h, but half the way to a snapshot less than 2h off and the rest
        # to one at most h off, h itself where the rest is h to rounding; no
        # accepted step more than twice the one before
        attempts = record_attempts(monkeypatch)
        sc = cli.preset("fig2")
        res = run_simulation(cli.build_initial_state(sc), 1e4, sc.snapshot_times,
                             sc.step, sc.variant, sc.params, sc.grid)
        assert res.summary.failure is None and res.summary.max_film_mass_drift < 1e-10
        targets = sorted({*sc.snapshot_times, 1e4})

        def left(b):  # from b's start to the snapshot it steps towards
            target = min(st for st in targets if st > b["t0"])
            return target - b["t0"], 4.0 * math.ulp(target)

        def step(b, h):  # b's step when run_simulation's h is h
            rest, slack = left(b)
            assert b["check"] == (rest <= h + slack)
            if abs(rest - h) <= slack:
                kinds.add("kept")
                return h
            return min(h, rest if b["check"] else 0.5 * rest)

        run, stale, kinds = 0, False, set()
        for prev, a, b in zip([None] + attempts, attempts, attempts[1:]):
            if prev is not None and (a["h"], a["order"]) != (prev["h"], prev["order"]):
                run = 0  # accepted steps at a's h and order
            k = a["order"]
            factor = 0.9 * a["err"] ** (-1.0 / (k + 1))
            stale = stale and not a["refreshed"]
            if a["err"] <= 1.0:
                run, stale = run + 1, True
                if run <= k:
                    h = a["h"]
                    assert b["order"] == k
                    kinds.add("held")
                elif b["order"] == k:
                    h = a["h"] if 1.0 <= factor < 1.2 else a["h"] * min(2.0, factor)
                    kinds.add("accepted")
                else:
                    assert abs(b["order"] - k) == 1 and 1 <= b["order"] <= timestepper.MAX_ORDER
                    ratio, cut = b["h"] / a["h"], b["h"] in (left(b)[0], 0.5 * left(b)[0])
                    assert cut or ratio == 1.0 or not 1.0 <= ratio < 1.2
                    h = b["h"] if cut else a["h"] * min(2.0, ratio)
                    kinds.add("up" if b["order"] > k else "down")
                assert b["h"] == step(b, h)
                if b["h"] < h and not b["check"]:
                    kinds.add("halved")
            else:
                assert b["order"] == k
                if stale:
                    assert b["h"] == a["h"] and b["refreshed"]
                    stale = False
                    kinds.add("refreshed")
                else:
                    assert b["h"] == step(b, a["h"] * max(0.2, factor)) and not b["refreshed"]
                    kinds.add("shrunk")
        assert kinds == {"held", "accepted", "halved", "kept", "refreshed", "shrunk", "up",
                         "down"}
        assert max(a["order"] for a in attempts) == timestepper.MAX_ORDER
        assert len(attempts) == res.summary.steps + res.summary.rejected_steps
        steps = [a["h"] for a in attempts if a["err"] <= 1.0]
        assert max(b / a for a, b in zip(steps, steps[1:])) <= 2.0

    def test_corrugation_signs_step_alike(self, monkeypatch):
        # fig4 at N = 97 with the corrugation one way and the other: nearly
        # the same problem, so the same steps, rejections and LUs, and errors
        # against a run at RTOL = 1e-9 within 10% (3.41e-6 and 3.31e-6): the
        # steps after a snapshot must not hang on what was left to reach it,
        # nor on a rest a few ulps short of h
        fig4 = cli.preset("fig4")
        grid = dataclasses.replace(fig4.grid, n_nodes=97)
        counts, errors, tolerances = [], [], (timestepper.RTOL, 1e-9)
        for sign in (1.0, -1.0):
            sc = dataclasses.replace(fig4, grid=grid, initial=dataclasses.replace(
                fig4.initial, corrugation_amplitude=sign * fig4.initial.corrugation_amplitude))
            s0 = cli.build_initial_state(sc)
            runs = []
            for rtol in tolerances:
                monkeypatch.setattr(timestepper, "RTOL", rtol)
                runs.append(run_simulation(s0, 300.0, sc.snapshot_times, sc.step,
                                           sc.variant, sc.params, sc.grid))
            run, ref = runs
            counts.append((run.summary.steps, run.summary.rejected_steps,
                           run.summary.factorisations))
            errors.append(max(max(np.max(np.abs(a.state.eta - b.state.eta)),
                                  np.max(np.abs(a.state.gamma - b.state.gamma)))
                              for a, b in zip(run.snapshots, ref.snapshots, strict=True)))
        assert counts[0] == counts[1], counts
        assert abs(errors[0] - errors[1]) <= 0.1 * max(errors), errors

    def test_held_step_and_order_keep_the_lu(self, monkeypatch):
        # gbtrf runs once per attempt whose h or order differs from the
        # attempt's before it, or that refreshes the band, and never else:
        # the shift alpha_k / h is unchanged, and so is the band's LU
        calls = []
        band_lu = timestepper._band_lu

        def counting(*args):
            calls.append(1)
            return band_lu(*args)

        monkeypatch.setattr(timestepper, "_band_lu", counting)
        attempts = record_attempts(monkeypatch)
        recording, made = timestepper._attempt, []

        def counting(*args):
            before = len(calls)
            try:
                return recording(*args)
            finally:
                made.append(len(calls) - before)

        monkeypatch.setattr(timestepper, "_attempt", counting)
        for name in ("fig2", "fig4"):
            sc = cli.preset(name)
            for recorded in (calls, attempts, made):
                recorded.clear()
            res = run_simulation(cli.build_initial_state(sc), max(sc.snapshot_times),
                                 sc.snapshot_times, sc.step, sc.variant, sc.params, sc.grid)
            assert res.summary.failure is None and not any(a["raised"] for a in attempts)
            same = [not a["refreshed"] and (a["h"], a["order"]) == (prev["h"], prev["order"])
                    for prev, a in zip(attempts, attempts[1:])]
            assert made == [1] + [0 if s else 1 for s in same]
            assert len(calls) == res.summary.factorisations < 0.5 * len(attempts)

    def test_breach_shrinks_the_step(self, noflux_grid, monkeypatch):
        # a film at twice the floor, which advance thins through it at
        # dt = 1: the run retries at a fifth of the step until it holds
        eta = np.ones(noflux_grid.n_nodes)
        eta[5] = 2e-8
        s = State(eta, np.ones(noflux_grid.n_nodes))
        args = (ModelVariant.FULL_CM, Params(), noflux_grid)
        with pytest.raises(PositivityError):
            advance(s, StepConfig(dt=1.0), *args)
        attempts = record_attempts(monkeypatch)
        res = run_simulation(s, 1.0, (), StepConfig(dt=1.0), *args)
        assert res.summary.failure is None and res.summary.final_time == 1.0
        assert attempts[0]["raised"] == "PositivityError"
        assert attempts[1]["h"] == 0.2 * attempts[0]["h"]
        assert res.summary.max_film_mass_drift < 1e-10

    def test_singular_solve_shrinks_the_step(self, noflux_grid, monkeypatch):
        # the first two solves raise, as a singular band would
        raised = []
        real = timestepper.FdJacobian.solve

        def failing_solve(jac, b):
            if len(raised) < 2:
                raised.append(1)
                raise np.linalg.LinAlgError("singular Jacobian (gbtrf info 3)")
            return real(jac, b)

        monkeypatch.setattr(timestepper.FdJacobian, "solve", failing_solve)
        attempts = record_attempts(monkeypatch)
        res = run_simulation(smooth_state(noflux_grid, seed=41), 2.0, (), StepConfig(dt=1.0),
                             ModelVariant.FULL_CM, Params(), noflux_grid)
        assert res.summary.failure is None and res.summary.final_time == 2.0
        assert [a["raised"] for a in attempts[:3]] == ["LinAlgError"] * 2 + [None]
        assert [a["h"] for a in attempts[:3]] == [1.0, 0.2, 0.2 * 0.2]

    def test_singular_solve_on_a_stale_band_refreshes_it(self, noflux_grid, monkeypatch):
        # the tenth solve raises, on a band taken before the step: the same
        # step is retried on a band taken at its predictor
        calls = []
        real = timestepper.FdJacobian.solve

        def failing_solve(jac, b):
            calls.append(1)
            if len(calls) == 10:
                raise np.linalg.LinAlgError("singular Jacobian (gbtrf info 3)")
            return real(jac, b)

        monkeypatch.setattr(timestepper.FdJacobian, "solve", failing_solve)
        attempts = record_attempts(monkeypatch)
        res = run_simulation(smooth_state(noflux_grid, seed=41), 2.0, (), StepConfig(dt=0.1),
                             ModelVariant.FULL_CM, Params(), noflux_grid)
        assert res.summary.failure is None and res.summary.final_time == 2.0
        i = [a["raised"] for a in attempts].index("LinAlgError")
        last = max(j for j in range(i + 1) if attempts[j]["refreshed"])
        assert any(a["err"] <= 1.0 for a in attempts[last:i])  # a band before the step
        assert not attempts[i]["refreshed"] and attempts[i + 1]["refreshed"]
        assert attempts[i + 1]["h"] == attempts[i]["h"]

    def test_landing_attempts_check_their_newton_error(self, monkeypatch):
        # an attempt that lands on a snapshot takes its residual after the
        # update, and its Newton update J^-1 r on the held band enters its
        # error estimate: every snapshot a run returns is converged to
        # within the tolerance, also as seen from a fresh Jacobian
        checked = []
        real = timestepper._attempt

        def checking(state, cfg, variant, params, grid, held):
            dt, pred, psi = held.start(cfg.dt)  # rescales D once, as the attempt would
            end, report = real(state, cfg, variant, params, grid, held)
            if held.check:
                neg_r = timestepper._negated_residual(
                    end, pred - psi, dt, timestepper.rhs(variant, end, params, grid))
                fresh = timestepper.jacobian_fd(end, StepConfig(dt=dt), variant, params, grid)
                scale = timestepper.RTOL * (1.0 + np.abs(np.stack((end.eta, end.gamma))))
                errors = [np.sqrt(np.mean((np.stack((e[0::2], e[1::2])) / scale) ** 2))
                          for e in (held.band.solve(neg_r), fresh.solve(neg_r))]
                checked.append((held.err, *errors))
            return end, report

        monkeypatch.setattr(timestepper, "_attempt", checking)
        for name in ("fig2", "fig4"):
            sc = cli.preset(name)
            checked.clear()
            res = run_simulation(cli.build_initial_state(sc), max(sc.snapshot_times),
                                 sc.snapshot_times, sc.step, sc.variant, sc.params, sc.grid)
            assert res.summary.failure is None
            assert all(math.isfinite(snap.report.residual_norm_after)
                       and snap.report.residual_norm_after < snap.report.residual_norm_before
                       for snap in res.snapshots[1:])
            assert all(err >= held * (1 - 1e-12) for err, held, _ in checked)  # to rounding
            accepted = [fresh for err, _, fresh in checked if err <= 1.0]
            assert len(accepted) == len(res.snapshots) - 1 and max(accepted) < 1.0

    def test_held_attempts_take_every_update(self, monkeypatch):
        # a tolerance no residual meets: every attempt takes all 3 updates on
        # its band, and only one landing on a snapshot takes the residual
        # after its last; the others report none after it (nan), not the
        # residual of an earlier update, and none before their first either
        attempts = record_attempts(monkeypatch)
        sc = cli.preset("fig2")
        res = run_simulation(cli.build_initial_state(sc), 10.0, (1.0, 10.0),
                             StepConfig(dt=1.0, newton_iters=3, newton_tol=1e-300),
                             sc.variant, sc.params, sc.grid)
        assert res.summary.failure is None and res.summary.rejected_steps > 0
        assert not any(a["raised"] for a in attempts)
        checks = [a["check"] for a in attempts]
        assert any(checks) and not all(checks)
        assert all(a["report"].newton_iters_used == 3 for a in attempts)
        assert all(math.isfinite(a["report"].residual_norm_after) == a["check"]
                   for a in attempts)
        assert all(math.isfinite(a["report"].residual_norm_before) == a["check"]
                   for a in attempts)

    def test_underflow_after_rejections_is_a_failure(self, noflux_grid, monkeypatch):
        # every error estimate above 1: the step shrinks by 5 until it
        # underflows, and the snapshot taken before is kept
        real = timestepper._attempt

        def inaccurate(state, cfg, variant, params, grid, held):
            end, report = real(state, cfg, variant, params, grid, held)
            if state.t > 0.5:
                held.err = 1e6
            return end, report

        monkeypatch.setattr(timestepper, "_attempt", inaccurate)
        res = run_simulation(smooth_state(noflux_grid, seed=42), 2.0, (0.5,),
                             StepConfig(dt=0.1), ModelVariant.FULL_CM, Params(),
                             noflux_grid)
        assert res.summary.failure.startswith("error estimate 1.000e+06; step ")
        assert [snap.time for snap in res.snapshots] == [0.0, 0.5]
        assert 0.5 < res.summary.final_time < 2.0

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), amp=st.floats(0.01, 0.3),
           boundary=st.sampled_from(list(BoundaryKind)))
    # recorded counterexamples of the fixed-step driver, run whatever the
    # example database holds: the symmetric one needed capillary fluxes
    # exactly 0 at the walls; the periodic ones drifted 1.10e-10 with a
    # Jacobian held over 30 steps (5.2e-15 and 3.0e-15 here)
    @example(seed=9514521, amp=0.125, boundary=BoundaryKind.NO_FLUX_SYMMETRIC)
    @example(seed=1, amp=0.28125, boundary=BoundaryKind.PERIODIC)
    @example(seed=170, amp=0.25, boundary=BoundaryKind.PERIODIC)
    def test_held_runs_conserve_film_mass(self, seed, amp, boundary):
        # a run to t = 40 from a random smooth state: every accepted step
        # keeps the film, and a flat state stays flat exactly
        grid = Grid(33, 10.0, boundary)
        args = (StepConfig(dt=1.0), ModelVariant.FULL_CM, Params(), grid)
        s0 = smooth_state(grid, seed=seed, eta_amp=amp, gamma_amp=2 * amp)
        res = run_simulation(s0, 40.0, (), *args)
        assert res.summary.failure is None and res.summary.final_time == 40.0
        assert res.summary.max_film_mass_drift < 1e-10
        flat = flat_state(grid.n_nodes, eta=1.0 + amp, gamma=1.0 - amp)
        end = run_simulation(flat, 40.0, (), *args).snapshots[-1].state
        np.testing.assert_array_equal(end.eta, flat.eta)
        np.testing.assert_array_equal(end.gamma, flat.gamma)

    def test_advance_keeps_nothing_from_a_run(self, noflux_grid):
        args = (StepConfig(dt=1.0), ModelVariant.FULL_CM, Params(), noflux_grid)
        s = smooth_state(noflux_grid, seed=42)
        before, report_before = advance(s, *args)
        run_simulation(s, 5.0, (), *args)
        after, report_after = advance(s, *args)
        assert report_before == report_after
        np.testing.assert_array_equal(before.eta, after.eta)
        np.testing.assert_array_equal(before.gamma, after.gamma)


class TestStepConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepConfig(dt=0.0)
        for dt in (math.inf, math.nan):  # an infinite step would end in t = inf
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                StepConfig(dt=dt)
        with pytest.raises(ValueError):
            StepConfig(dt=1.0, newton_iters=0)
        for tol in (math.inf, math.nan):  # an infinite one accepts every held step
            with pytest.raises(ValueError, match="newton_tol must be positive and finite"):
                StepConfig(dt=1.0, newton_tol=tol)
        for iters in (2.5, 2.0, "2", True):  # advance would fail in range()
            with pytest.raises(ValueError, match="newton_iters must be an integer"):
                StepConfig(dt=1.0, newton_iters=iters)
        assert StepConfig(dt=1.0, newton_iters=np.int64(2)).newton_iters == 2
        with pytest.raises(TypeError):  # no such knob: one Jacobian kind
            StepConfig(dt=1.0, jacobian="analytic")
        with pytest.raises(TypeError):  # no such knob: timestepper.FD_EPSILON
            StepConfig(dt=1.0, fd_epsilon=1e-7)
        with pytest.raises(TypeError):  # no such knob: timestepper.RTOL
            StepConfig(dt=1.0, rtol=1e-6)
