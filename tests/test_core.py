import math

import numpy as np
import pytest

from lubrisim import (
    ALL_TOGGLES,
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

    def test_state_validation(self):
        with pytest.raises(PositivityError):
            State(np.array([1.0, -1.0, 1.0, 1.0, 1.0]), np.ones(5))
        with pytest.raises(ValueError):
            State(np.ones(5), np.ones(6))
        with pytest.raises(ValueError):
            State(np.array([1.0, np.nan, 1.0, 1.0, 1.0]), np.ones(5))

    def test_state_immutable(self):
        s = State(np.ones(5), np.ones(5))
        with pytest.raises(ValueError):
            s.eta[0] = 2.0

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

    def test_none_is_written_as_nan(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, "a,b", [(1.5, None)])
        assert path.read_text() == "a,b\n1.5,nan\n"
