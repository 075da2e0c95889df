import numpy as np
import pytest

from lubrisim import char_poly_coeffs, dispersion, dispersion_scan, mode_amplitude_ratio
from lubrisim.stability import DispersionResult, write_dispersion_csv

from conftest import CSV_HARD_VALUES

# oracle: roots of lambda^2 + (4/3) lambda + 1/12 via np.roots
ORACLE_K1_DS0 = np.sort(np.roots([1.0, 4.0 / 3.0, 1.0 / 12.0]))  # [fast, slow]


class TestCharPoly:
    def test_k_zero(self):
        assert char_poly_coeffs(0.0, 0.0) == (0.0, 0.0)

    def test_k1_ds0(self):
        c1, c0 = char_poly_coeffs(1.0, 0.0)
        assert c1 == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert c0 == pytest.approx(1.0 / 12.0, rel=1e-15)

    def test_k1_small_ds(self):
        c1, c0 = char_poly_coeffs(1.0, 1e-4)
        assert c1 == pytest.approx(1.3334333333333333, rel=1e-14)
        assert c0 == pytest.approx(0.08336666666666667, rel=1e-14)


class TestDispersion:
    def test_k_zero_both_modes_neutral(self):
        d = dispersion(0.0, 1e-4)
        assert d.lambda_slow == 0.0
        assert d.lambda_fast == 0.0
        assert d.amp_ratio_slow is None
        assert d.amp_ratio_fast is None

    def test_spot_values_k1_ds0(self):
        d = dispersion(1.0, 0.0)
        assert d.lambda_slow == pytest.approx(ORACLE_K1_DS0[1], rel=1e-12)
        assert d.lambda_fast == pytest.approx(ORACLE_K1_DS0[0], rel=1e-12)
        # b/a = -2 (lambda + 1/3) for the slow mode at k=1, A=1
        assert d.amp_ratio_slow == pytest.approx(-2 * (ORACLE_K1_DS0[1] + 1 / 3),
                                                 rel=1e-12)

    def test_vieta_identities(self):
        ks = np.linspace(0.01, 2.0, 50)
        for ds in (0.0, 1e-4, 1.0 / 300.0, 1.0 / 3.0):
            for k in ks:
                d = dispersion(k, ds)
                c1, c0 = char_poly_coeffs(k, ds)
                assert d.lambda_slow + d.lambda_fast == pytest.approx(-c1, rel=1e-12)
                assert d.lambda_slow * d.lambda_fast == pytest.approx(
                    c0, rel=1e-12, abs=1e-300)

    def test_stable_for_all_wavenumbers(self):
        for ds in (0.0, 1e-4, 1.0 / 300.0, 1.0 / 3.0, 2.0):
            for k in np.linspace(0.0, 5.0, 101):
                d = dispersion(k, ds)
                assert d.lambda_slow <= 0.0
                assert d.lambda_fast <= 0.0

    def test_small_k_asymptotics(self):
        # lambda_slow -> -k^4/12 as k -> 0 at ds = 0
        d = dispersion(0.1, 0.0)
        assert d.lambda_slow == pytest.approx(-0.1**4 / 12.0, rel=0.05)

    def test_mode_shape_residuals(self):
        # (a, b) = (1, ratio) must satisfy both linearized equations
        for k in (0.3, 1.0, 1.7):
            for ds in (0.0, 1e-4, 0.01):
                d = dispersion(k, ds)
                for lam, ratio in ((d.lambda_slow, d.amp_ratio_slow),
                                   (d.lambda_fast, d.amp_ratio_fast)):
                    res1 = (lam + k**4 / 3) * 1.0 + (k**2 / 2) * ratio
                    res2 = (lam + ds * k**2 + k**2) * ratio + k**4 / 2
                    assert abs(res1) < 1e-10
                    assert abs(res2) < 1e-10

    def test_no_cancellation_at_small_k(self):
        # the slow root stays accurate relative to the Vieta product
        d = dispersion(1e-3, 1e-4)
        c1, c0 = char_poly_coeffs(1e-3, 1e-4)
        assert d.lambda_slow * d.lambda_fast == pytest.approx(c0, rel=1e-12)
        assert d.lambda_slow < 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            dispersion(-0.5, 0.0)
        with pytest.raises(ValueError):
            dispersion(0.5, -1e-4)
        with pytest.raises(ValueError):
            mode_amplitude_ratio(0.0, -0.1)


class TestGeneralTensionSlope:
    def test_coefficients_scale_with_slope(self):
        # c1 = A k^2 + ds k^2 + k^4/3, c0 = A k^6/12 + ds k^6/3
        k, ds, a = 0.7, 0.01, 0.5
        c1, c0 = char_poly_coeffs(k, ds, tension_slope=a)
        assert c1 == pytest.approx(a * k**2 + ds * k**2 + k**4 / 3, rel=1e-14)
        assert c0 == pytest.approx(a * k**6 / 12 + ds * k**6 / 3, rel=1e-14)

    def test_dispersion_matches_linearized_simulation_model(self):
        # dual route: eigenvalues from the closed form vs numerical
        # linearization of the full nonlinear rhs at the same tension slope
        from lubrisim import (BoundaryKind, Grid, ModelVariant, Params,
                              State, rhs)
        k, ds, a, eps = 1.0, 0.01, 0.5, 1e-6
        grid = Grid(257, 2 * np.pi / k, BoundaryKind.PERIODIC)
        x = grid.x
        w = np.full(grid.n_nodes, grid.dx)
        w[0] *= 0.5
        w[-1] *= 0.5
        cosk = np.cos(k * x)
        norm = w @ (cosk * cosk)
        p = Params(bond=0.0, hamaker=0.0, inv_peclet=ds, tension_slope=a)

        def project(f):
            return (w @ (f * cosk)) / norm

        ones = np.ones(grid.n_nodes)
        r_eta = rhs(ModelVariant.FULL_CM, State(1 + eps * cosk, ones), p, grid)
        r_gam = rhs(ModelVariant.FULL_CM, State(ones, 1 + eps * cosk), p, grid)
        m = np.array([
            [project(r_eta.deta_dt), project(r_gam.deta_dt)],
            [project(r_eta.dgamma_dt), project(r_gam.dgamma_dt)],
        ]) / eps
        sim_eigs = np.sort(np.linalg.eigvals(m).real)
        d = dispersion(k, ds, tension_slope=a)
        assert d.lambda_fast == pytest.approx(sim_eigs[0], rel=2e-3)
        assert d.lambda_slow == pytest.approx(sim_eigs[1], rel=2e-3)


class TestScan:
    def test_scan_shape_and_stability(self):
        results = dispersion_scan(0.0, 2.0, 101, 1e-4)
        assert len(results) == 101
        assert results[0].k == 0.0
        assert results[-1].k == pytest.approx(2.0)
        assert all(r.lambda_slow <= 0 and r.lambda_fast <= 0 for r in results)
        # two distinct branches away from k=0
        tail = [r for r in results if r.k > 0.5]
        assert all(r.lambda_fast < r.lambda_slow for r in tail)

    def test_scan_consistent_with_recomputed_coefficients(self):
        results = dispersion_scan(0.1, 1.9, 37, 0.0)
        for r in results:
            c1, c0 = char_poly_coeffs(r.k, 0.0)
            assert r.lambda_slow + r.lambda_fast == pytest.approx(-c1, rel=1e-12)

    def test_scan_validation(self):
        with pytest.raises(ValueError):
            dispersion_scan(0.0, 0.0, 10, 1e-4)
        with pytest.raises(ValueError):
            dispersion_scan(0.0, 2.0, 1, 1e-4)

    def test_csv_export(self, tmp_path):
        path = tmp_path / "disp.csv"
        write_dispersion_csv(dispersion_scan(0.0, 2.0, 2, 1e-4), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,lambda_slow,lambda_fast,ratio_slow,ratio_fast"
        assert len(lines) == 3
        assert lines[1].startswith("0,0,0,nan,nan")

    def test_csv_values_round_trip_exactly(self, tmp_path):
        v = CSV_HARD_VALUES
        results = [DispersionResult(v[i], v[i - 1], v[i - 2], v[i - 3], None)
                   for i in range(len(v))]
        path = tmp_path / "disp.csv"
        write_dispersion_csv(results, path)
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        want = [(v[i], v[i - 1], v[i - 2], v[i - 3], np.nan) for i in range(len(v))]
        np.testing.assert_array_equal(back, want)
