import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lubrisim import (
    ALL_TOGGLES,
    ETA_FLOOR,
    BoundaryKind,
    Grid,
    Params,
    PositivityError,
    State,
    DimensionalInputs,
    nondimensionalize,
    reference_cgs_inputs,
    surface_tension,
)
from lubrisim.core import write_csv

from conftest import CSV_HARD_VALUES


class TestNondimensionalize:
    def test_reference_cgs_values(self):
        p = nondimensionalize(reference_cgs_inputs())
        assert p.reynolds == pytest.approx(3.0, rel=1e-14)
        assert p.hamaker == pytest.approx(0.001, rel=1e-14)
        assert p.inv_peclet == pytest.approx(1.0 / 300.0, rel=1e-14)

    def test_bond_formula_disagrees_with_preset_value(self):
        # rho*g*H^2/gamma0 = 1 * 981 * (1e-5)^2 / 30
        p = nondimensionalize(reference_cgs_inputs())
        assert p.bond == pytest.approx(981e-10 / 30.0, rel=1e-14)
        assert p.bond == pytest.approx(3.27e-9, rel=1e-12)
        assert abs(p.bond - 3.0e-11) / 3.0e-11 > 10  # nowhere near the preset value

    def test_film_thickness_scaling(self):
        base = reference_cgs_inputs()
        doubled = DimensionalInputs(
            surface_tension=base.surface_tension,
            viscosity=base.viscosity,
            density=base.density,
            surface_diffusivity=base.surface_diffusivity,
            film_thickness=2 * base.film_thickness,
            hamaker_constant=base.hamaker_constant,
            gravity=base.gravity,
        )
        p0 = nondimensionalize(base)
        p2 = nondimensionalize(doubled)
        assert p2.reynolds == pytest.approx(2 * p0.reynolds, rel=1e-14)
        assert p2.inv_peclet == pytest.approx(p0.inv_peclet / 2, rel=1e-14)
        assert p2.hamaker == pytest.approx(p0.hamaker / 2, rel=1e-14)
        assert p2.bond == pytest.approx(4 * p0.bond, rel=1e-14)

    def test_viscosity_scaling(self):
        # mu -> c*mu multiplies R and H by 1/c^2
        base = reference_cgs_inputs()
        c = 3.7
        scaled = DimensionalInputs(
            surface_tension=base.surface_tension,
            viscosity=c * base.viscosity,
            density=base.density,
            surface_diffusivity=base.surface_diffusivity,
            film_thickness=base.film_thickness,
            hamaker_constant=base.hamaker_constant,
            gravity=base.gravity,
        )
        p0 = nondimensionalize(base)
        pc = nondimensionalize(scaled)
        assert pc.reynolds == pytest.approx(p0.reynolds / c**2, rel=1e-12)
        assert pc.hamaker == pytest.approx(p0.hamaker / c**2, rel=1e-12)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError):
            DimensionalInputs(30.0, -1e-2, 1.0, 1e-4, 1e-5, 1e-12)
        with pytest.raises(ValueError):
            DimensionalInputs(0.0, 1e-2, 1.0, 1e-4, 1e-5, 1e-12)


class TestSurfaceTension:
    def test_reference_state(self):
        gamma = np.ones(10)
        assert np.all(surface_tension(gamma, 0.7) == 1.0)

    def test_clean_film_limit(self):
        gamma = np.linspace(0.2, 1.8, 11)
        assert np.all(surface_tension(gamma, 0.0) == 1.0)

    def test_direct_substitution(self):
        assert surface_tension(np.array([1.5]), 0.2)[0] == pytest.approx(0.9, abs=1e-15)

    def test_affine(self):
        rng = np.random.default_rng(3)
        g1 = rng.uniform(0.5, 1.5, 40)
        g2 = rng.uniform(0.5, 1.5, 40)
        a = 0.37
        lhs = surface_tension(a * g1 + (1 - a) * g2, 1.3)
        rhs = a * surface_tension(g1, 1.3) + (1 - a) * surface_tension(g2, 1.3)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-15)


class TestTypes:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            Params(inv_peclet=-1e-3)
        with pytest.raises(ValueError):
            Params(toggles=frozenset({"nonsense"}))
        with pytest.raises(ValueError):
            Params(reynolds=float("nan"))
        assert Params().toggles == ALL_TOGGLES

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid(4, 1.0)
        with pytest.raises(ValueError):
            Grid(10, 0.0)
        g = Grid(11, 5.0)
        assert g.dx == pytest.approx(0.5)
        assert g.x[0] == 0.0 and g.x[-1] == 5.0
        assert Grid(9, 1.0, "periodic").boundary is BoundaryKind.PERIODIC

    def test_state_validation(self):
        with pytest.raises(PositivityError):
            State(np.array([1.0, -1.0, 1.0, 1.0, 1.0]), np.ones(5))
        with pytest.raises(ValueError):
            State(np.ones(5), np.ones(6))
        with pytest.raises(ValueError):
            State(np.array([1.0, np.nan, 1.0, 1.0, 1.0]), np.ones(5))
        with pytest.raises(ValueError, match="must be an array of nodal values"):
            State(1.0, 1.0)

    @given(arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 12)),
                  elements=st.one_of(st.floats(-1.0, 2.0), st.sampled_from(
                      [ETA_FLOOR, math.nextafter(ETA_FLOOR, 0.0),
                       math.nextafter(ETA_FLOOR, 1.0), 5e-9, 0.0, -0.0]))))
    def test_state_holds_exactly_the_films_at_or_above_the_floor(self, eta):
        thinnest = eta.min()
        if thinnest >= ETA_FLOOR:
            np.testing.assert_array_equal(State(eta, np.ones_like(eta)).eta, eta)
            return
        with pytest.raises(PositivityError) as err:
            State(eta, np.ones_like(eta))
        _, node = np.argwhere(eta == thinnest)[0]  # the first, row by row
        assert (err.value.node, err.value.value) == (node, thinnest)

    def test_state_immutable(self):
        s = State(np.ones(5), np.ones(5))
        with pytest.raises(ValueError):
            s.eta[0] = 2.0

    def test_state_fields_are_one_read_only_stack(self):
        eta, gamma = np.linspace(1.0, 2.0, 5), np.linspace(0.5, 1.5, 5)
        s = State(eta, gamma)
        assert s.fields.shape == (2, 5) and not s.fields.flags.writeable
        assert s.eta.base is s.fields and s.gamma.base is s.fields  # row views
        np.testing.assert_array_equal(s.fields, [eta, gamma])
        for arr in (s.fields, s.eta, s.gamma):
            with pytest.raises(ValueError):
                arr[0] = 2.0
        eta[0] = gamma[0] = 9.0  # the caller's arrays were copied
        assert (s.eta[0], s.gamma[0]) == (1.0, 0.5)

    def test_batch_fields_stack_both_fields(self):
        eta, gamma = np.ones((3, 7)), np.full((3, 7), 2.0)
        s = State(eta, gamma)
        assert s.fields.shape == (2, 3, 7)
        assert s.eta.base is s.fields and s.gamma.base is s.fields
        np.testing.assert_array_equal(s.eta, eta)
        np.testing.assert_array_equal(s.gamma, gamma)

    def test_state_hashes_and_compares_by_identity(self):
        # equal fields make distinct States: the key of the rhs cache
        s = State(np.ones(5), np.ones(5))
        twin = State(s.eta, s.gamma, s.t)
        assert s == s and s != twin
        assert hash(s) == object.__hash__(s)
        assert {s: 1, twin: 2}[s] == 1

    def test_incline_defaults_to_horizontal(self):
        assert Params().incline == 0.0
        assert math.sin(Params().incline) == 0.0


class TestWriteCsv:
    def test_values_round_trip_exactly(self, tmp_path):
        rows = np.array(CSV_HARD_VALUES).reshape(-1, 1) * [1.0, -1.0]
        path = tmp_path / "t.csv"
        write_csv(path, "a,b", rows)
        assert path.read_text().splitlines()[0] == "a,b"
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(back, rows)
        signed = ~np.isnan(rows)  # -0.0 keeps its sign; nan is written unsigned
        np.testing.assert_array_equal(np.signbit(back[signed]), np.signbit(rows[signed]))

    @pytest.mark.parametrize("rows", [
        np.array(CSV_HARD_VALUES).reshape(-1, 1) * [1.0, -1.0],
        [(1.5, None), (None, -2.0)],
        [(math.inf, -math.inf), (-0.0, 0.0)],
        np.empty((0, 2)),
        [(0.1, -1.0 / 3.0)],
    ], ids=["hard", "none", "inf-zero", "0-row", "1-row"])
    def test_text_is_that_of_per_row_formatting(self, tmp_path, rows):
        # the single format call writes the bytes "{:.17g}" wrote row by row
        path = tmp_path / "t.csv"
        write_csv(path, "a,b", rows)
        per_row = "".join("{:.17g},{:.17g}\n".format(*row)
                          for row in np.asarray(rows, dtype=float).tolist())
        assert path.read_bytes() == ("a,b\n" + per_row).encode()

    def test_none_is_written_as_nan(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, "a,b", [(1.5, None)])
        assert path.read_text() == "a,b\n1.5,nan\n"
