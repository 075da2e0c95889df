import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from lubrisim import ALL_TOGGLES, BoundaryKind, ModelVariant, run_simulation
from lubrisim.cli import (
    ComparisonReport,
    ConfigError,
    build_initial_state,
    cmd_compare,
    cmd_dispersion,
    cmd_simulate,
    default_scenario,
    load_config,
    main,
    preset,
    preset_names,
    save_config,
    scenario_from_dict,
    scenario_to_dict,
)


class TestLoadConfig:
    def test_empty_document_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        sc = load_config(path)
        assert sc.grid.n_nodes == 97
        assert sc.grid.length == pytest.approx(15 * math.pi)
        assert sc.params.reynolds == 3.0
        assert sc.params.hamaker == 0.001
        assert sc.params.inv_peclet == pytest.approx(1 / 300)
        assert sc.step.dt == 100.0
        assert sc.variant is ModelVariant.FULL_CM
        assert sc.initial.kind == "flat_with_surfactant_drop"
        # PyYAML reads 1e2 and 1e-10 (no dot) as strings
        numbers = tmp_path / "numbers.yaml"
        numbers.write_text("step:\n  dt: 1e2\n  newton_tol: 1e-10\n")
        assert load_config(numbers) == sc

    def test_too_few_nodes_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("grid:\n  n_nodes: 3\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_negative_inv_peclet_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("params:\n  inv_peclet: -0.1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("grid:\n  n_points: 97\n")
        with pytest.raises(ConfigError, match="n_points"):
            load_config(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("grid: [unclosed\n")
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.yaml")

    def test_round_trip(self, tmp_path):
        n = 33
        wave = np.cos(np.linspace(0.0, 2.0 * np.pi, n))
        periodic = scenario_from_dict({
            "grid": {"n_nodes": n, "boundary": "periodic"},
            "initial": {"kind": "custom", "eta": list(1.0 + 0.1 * wave),
                        "gamma": list(1.0 - 0.2 * wave)},
            "params": {"toggles": ["capillary", "marangoni"]},
            "variant": "dewit",
            "snapshot_times": [],
        })
        for sc in [preset(name) for name in preset_names()] + [periodic]:
            path = tmp_path / f"{sc.name}.yaml"
            save_config(sc, path)
            back = load_config(path)
            assert back == sc

    @pytest.mark.parametrize("value", ["97", "97.0", "'97'"])
    def test_integral_numbers_load_as_int(self, tmp_path, value):
        path = tmp_path / "nodes.yaml"
        path.write_text(f"grid: {{n_nodes: {value}}}\n")
        n_nodes = load_config(path).grid.n_nodes
        assert n_nodes == 97 and type(n_nodes) is int

    def test_round_trip_custom_arrays(self):
        sc = default_scenario()
        data = scenario_to_dict(sc)
        data["initial"] = {"kind": "custom",
                           "eta": [1.0] * 97, "gamma": [1.0] * 97}
        sc2 = scenario_from_dict(data)
        assert scenario_from_dict(scenario_to_dict(sc2)) == sc2

    def test_readme_schema_loads(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"```yaml\n(.*?)```", readme, re.S).group(1)
        sc = scenario_from_dict(yaml.safe_load(block), source="README.md")
        assert sc.name == "my-run"
        assert sc.grid.length == pytest.approx(default_scenario().grid.length)
        assert sc.initial.drop_center == pytest.approx(sc.grid.length / 2)
        assert sc.params.toggles == ALL_TOGGLES
        assert sc.step == default_scenario().step


MALFORMED_CONFIGS = [
    ("initial: {center: abc}", ".initial.center"),
    ("step: {newton_iters: null}", ".step.newton_iters"),
    ("grid: [1, 2]", ".grid must be a mapping"),
    ("params: {toggles: 5}", ".params.toggles"),
    ("initial: {kind: custom, eta: abc, gamma: [1.0]}", ".initial.eta"),
    ("initial: {width: 0}", ".initial: width"),
    ("step: {jacobian: finite_difference}", ".step: jacobian"),
    ("grid: {n_nodes: 5}\n"
     "initial: {kind: custom, eta: [1, 1, 1, 1], gamma: [1, 1, 1, 1]}",
     "yaml: custom initial eta and gamma need grid.n_nodes = 5"),
    ("grid: {n_nodes: 5, boundary: periodic}\n"
     "initial: {kind: custom, eta: [1, 1, 1, 1, 1.5], gamma: [1, 1, 1, 1, 1]}",
     "yaml: custom initial eta and gamma on a periodic grid"),
    # a periodic corrugation must close on itself: k*L = 0.3*4*pi is no
    # whole multiple of 2*pi
    ("grid: {length: 12.566370614359172, boundary: periodic}\n"
     "initial: {kind: corrugated_uniform_surfactant, wavenumber: 0.3}",
     "yaml: initial.wavenumber"),
    # int fields take integral numbers only
    ("grid: {n_nodes: 97.9}", ".grid.n_nodes: expected an integer"),
    ("step: {newton_iters: 2.5}", ".step.newton_iters: expected an integer"),
    ("step: {newton_iters: true}", ".step.newton_iters: expected an integer"),
    ("grid: {n_nodes: abc}", ".grid.n_nodes"),
    # initial conditions that would start from a non-physical state
    ("initial: {excess: -1.5}", ".initial: excess must be finite and >= -1"),
    ("initial: {kind: corrugated_uniform_surfactant, amplitude: 1.0}",
     ".initial: amplitude must lie in (-1, 1)"),
    ("initial: {amplitude: -1.2}", ".initial: amplitude"),
    ("initial: {excess: .inf}", ".initial: excess must be finite"),
    ("initial: {width: .inf}", ".initial: width must be positive and finite"),
    ("initial: {wavenumber: .nan}", ".initial: wavenumber must be finite"),
    ("initial: {center: .nan}", ".initial: center must be finite"),
    ("grid: {n_nodes: 5}\n"
     "initial: {kind: custom, eta: [1, 1, 1, 1, 1], gamma: [1, 1, -0.1, 1, 1]}",
     ".initial: gamma (surfactant) must be >= 0"),
    ("grid: {n_nodes: 5}\n"
     "initial: {kind: custom, eta: [1, 1, 0, 1, 1], gamma: [1, 1, 1, 1, 1]}",
     ".initial: eta (film thickness) must be positive"),
    ("grid: {n_nodes: 5}\n"
     "initial: {kind: custom, eta: [1, 1, .nan, 1, 1], gamma: [1, 1, 1, 1, 1]}",
     ".initial: eta (film thickness) must be positive and finite"),
]


@pytest.mark.parametrize("text,where", MALFORMED_CONFIGS)
def test_malformed_config_is_config_error(tmp_path, caplog, text, where):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(where)):
        load_config(path)
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert where in caplog.text


@pytest.mark.parametrize("flags,where", [
    (["--dt", "0"], "command line.step: dt"),
    (["--dt", "-1"], "command line.step: dt"),
    (["--nodes", "3"], "command line.grid: n_nodes"),
    (["--delta-s", "-1"], "command line.params: inv_peclet"),
    (["--nodes", "33", "--config", "{periodic}"], "command line: custom initial"),
])
def test_malformed_flag_is_config_error(tmp_path, caplog, flags, where):
    n = 129
    wave = np.cos(np.linspace(0.0, 2.0 * np.pi, n))
    save_config(scenario_from_dict({
        "grid": {"n_nodes": n, "boundary": "periodic"},
        "initial": {"kind": "custom", "eta": list(1.0 + 0.1 * wave),
                    "gamma": [1.0] * n}}), tmp_path / "periodic.yaml")
    flags = [f.format(periodic=tmp_path / "periodic.yaml") for f in flags]
    source = [] if "--config" in flags else ["--preset", "fig3"]
    assert main(["simulate", *source, "--out", str(tmp_path / "out"),
                 "--t-end", "1", *flags]) == 2
    assert where in caplog.text
    assert not (tmp_path / "out").exists()


class TestPresets:
    def test_names(self):
        assert preset_names() == ["fig2", "fig3", "fig4"]
        with pytest.raises(ConfigError):
            preset("fig9")

    def test_fig2(self):
        sc = preset("fig2")
        assert sc.snapshot_times == (1.0, 10.0, 100.0, 1000.0)
        assert sc.grid.boundary is BoundaryKind.NO_FLUX_SYMMETRIC
        assert sc.grid.n_nodes == 97
        assert sc.step.dt == 100.0
        s0 = build_initial_state(sc)
        assert np.all(s0.eta == 1.0)
        # drop centred at L/2 with peak excess 1.0
        mid = np.argmax(s0.gamma)
        assert sc.grid.x[mid] == pytest.approx(sc.grid.length / 2, abs=sc.grid.dx)
        assert s0.gamma[mid] == pytest.approx(2.0, abs=0.01)
        assert s0.gamma[0] == 1.0 and s0.gamma[-1] == 1.0

    def test_fig3_fig4(self):
        sc3 = preset("fig3")
        sc4 = preset("fig4")
        assert sc3.snapshot_times == (0.0, 15.0, 30.0, 45.0)
        assert sc4.snapshot_times == (0.0, 100.0, 200.0, 300.0)
        s0 = build_initial_state(sc3)
        assert np.max(s0.eta) == pytest.approx(1.1, abs=1e-12)
        assert np.all(s0.gamma == 1.0)
        # even reflection at the walls requires k*L to be a multiple of pi
        kl = sc3.initial.corrugation_wavenumber * sc3.grid.length
        assert kl / math.pi == pytest.approx(round(kl / math.pi), abs=1e-12)


class TestPeriodicInitialConditions:
    def periodic(self, **initial):
        return scenario_from_dict({"grid": {"n_nodes": 97, "boundary": "periodic"},
                                   "initial": initial})

    def test_drop_distance_wraps(self):
        # a drop centred 0.5 from node 0 reaches across the wrap to node N-1
        sc = self.periodic(center=0.5, width=2.0, excess=1.0)
        s0 = build_initial_state(sc)
        length = sc.grid.length
        r = np.abs(sc.grid.x - 0.5)
        r = np.minimum(r, length - r)
        expect = 1.0 + np.where(r <= 2.0, 0.5 * (1.0 + np.cos(np.pi * r / 2.0)), 0.0)
        np.testing.assert_allclose(s0.gamma, expect, rtol=0, atol=1e-15)
        assert s0.gamma[0] == pytest.approx(1.0 + 0.5 * (1.0 + math.cos(np.pi / 4)))
        assert s0.gamma[-1] == s0.gamma[0]

    @pytest.mark.parametrize("initial", [
        {"center": 0.0}, {"center": 3.0}, {"center": 47.0}, {"center": -5.0},
        # three waves over 15*pi, a whole multiple of 2*pi up to round-off
        {"kind": "corrugated_uniform_surfactant", "wavenumber": 0.4, "amplitude": 0.2}])
    def test_generated_profiles_close_exactly(self, initial):
        s0 = build_initial_state(self.periodic(**initial))
        assert s0.eta[-1] == s0.eta[0] and s0.gamma[-1] == s0.gamma[0]


class TestCommands:
    def test_simulate_writes_snapshots_and_report(self, tmp_path):
        sc = preset("fig3")
        out = tmp_path / "run"
        code = cmd_simulate(sc, out, t_end=15.0)
        assert code == 0
        assert sorted(os.listdir(out)) == ["report.txt", "t0.csv", "t15.csv"]
        lines = (out / "t15.csv").read_text().strip().splitlines()
        assert lines[0] == "x,eta,gamma"
        assert len(lines) == 1 + sc.grid.n_nodes
        report = (out / "report.txt").read_text()
        assert "max_film_mass_drift" in report

    def test_simulate_solver_failure_exit_code(self, tmp_path):
        sc = default_scenario()
        data = scenario_to_dict(sc)
        eta = [1.0] * 97
        eta[48] = 5e-9  # valid state, immediately breaches the rhs floor
        data["initial"] = {"kind": "custom", "eta": eta, "gamma": [1.0] * 97}
        data["snapshot_times"] = [1.0]
        sc_bad = scenario_from_dict(data)
        assert cmd_simulate(sc_bad, tmp_path / "fail") == 3

    def test_dispersion_command(self, tmp_path):
        out = tmp_path / "disp.csv"
        assert cmd_dispersion(1e-4, 2.0, 41, out) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 42
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert np.all(data["lambda_slow"] <= 0)
        assert np.all(data["lambda_fast"] <= 0)

    def test_dispersion_invalid_kmax(self, tmp_path):
        assert cmd_dispersion(1e-4, 0.0, 10, tmp_path / "x.csv") == 2

    def test_dispersion_two_rows(self, tmp_path):
        out = tmp_path / "two.csv"
        assert cmd_dispersion(1e-4, 2.0, 2, out) == 0
        assert len(out.read_text().strip().splitlines()) == 3

    def test_csv_output_deterministic_and_full_precision(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cmd_dispersion(1e-4, 2.0, 11, a)
        cmd_dispersion(1e-4, 2.0, 11, b)
        assert a.read_bytes() == b.read_bytes()
        # 17 significant digits survive a round-trip through the text
        row = a.read_text().strip().splitlines()[-1].split(",")
        from lubrisim import dispersion
        d = dispersion(2.0, 1e-4)
        assert float(row[1]) == d.lambda_slow
        assert float(row[2]) == d.lambda_fast

    @pytest.mark.parametrize("name,t_end,expected", [
        ("fig2", 1.0, ["report.txt", "t0.csv", "t1.csv"]),
        ("fig3", 15.0, ["report.txt", "t0.csv", "t15.csv"]),
        ("fig4", 100.0, ["report.txt", "t0.csv", "t100.csv"]),
    ])
    def test_each_preset_writes_named_snapshots(self, tmp_path, name, t_end,
                                                expected):
        out = tmp_path / name
        assert cmd_simulate(preset(name), out, t_end=t_end) == 0
        assert sorted(os.listdir(out)) == expected

    def test_compare_identical_variants_zero_difference(self, tmp_path):
        sc = preset("fig3")
        report = cmd_compare(sc, (ModelVariant.FULL_CM, ModelVariant.FULL_CM),
                             (3.0,), 5.0, tmp_path / "cmp")
        assert isinstance(report, ComparisonReport)
        assert report.rows[0].linf_eta == 0.0
        assert report.rows[0].linf_gamma == 0.0

    def test_compare_t_zero_shared_initial_state(self, tmp_path):
        sc = preset("fig3")
        report = cmd_compare(sc, (ModelVariant.FULL_CM, ModelVariant.DE_WIT),
                             (3.0,), 0.0, tmp_path / "cmp0")
        assert report.rows[0].linf_eta == 0.0
        assert report.rows[0].linf_gamma == 0.0

    def test_compare_writes_outputs(self, tmp_path):
        sc = preset("fig3")
        out = tmp_path / "cmp2"
        report = cmd_compare(sc, (ModelVariant.FULL_CM, ModelVariant.DE_WIT),
                             (3.0, 30.0), 5.0, out)
        assert isinstance(report, ComparisonReport)
        files = sorted(os.listdir(out))
        assert files == ["compare_summary.csv", "diff_P3.csv", "diff_P30.csv"]


class TestMain:
    def test_preset_list(self, capsys):
        assert main(["preset-list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "fig3" in out

    def test_log_level_env_var(self, monkeypatch):
        import logging
        monkeypatch.setenv("LUBRISIM_LOG", "quiet")
        assert main(["preset-list"]) == 0
        assert logging.getLogger("lubrisim").level == logging.ERROR
        monkeypatch.setenv("LUBRISIM_LOG", "debug")
        assert main(["preset-list"]) == 0
        assert logging.getLogger("lubrisim").level == logging.DEBUG
        monkeypatch.delenv("LUBRISIM_LOG")
        assert main(["preset-list"]) == 0
        assert logging.getLogger("lubrisim").level == logging.INFO

    def test_dispersion_subcommand(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["dispersion", "--out", str(out), "--delta-s", "1e-4",
                     "--k-max", "2", "--n-points", "11"]) == 0
        assert out.exists()

    def test_simulate_with_overrides(self, tmp_path):
        out = tmp_path / "sim"
        code = main(["simulate", "--preset", "fig3", "--out", str(out),
                     "--variant", "dewit", "--dt", "2.0", "--t-end", "4.0"])
        assert code == 0
        assert (out / "t0.csv").exists()

    def test_simulate_writes_the_t_end_state(self, tmp_path):
        # t_end = 1500 lies past fig2's last snapshot time, 1000
        out = tmp_path / "sim"
        assert main(["simulate", "--preset", "fig2", "--out", str(out),
                     "--t-end", "1500"]) == 0
        assert sorted(os.listdir(out)) == ["report.txt", "t0.csv", "t1.csv", "t10.csv",
                                           "t100.csv", "t1000.csv", "t1500.csv"]
        sc = preset("fig2")
        final = run_simulation(build_initial_state(sc), 1500.0, sc.snapshot_times,
                               sc.step, sc.variant, sc.params, sc.grid).snapshots[-1]
        assert final.time == 1500.0
        data = np.loadtxt(out / "t1500.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 1], final.state.eta)
        np.testing.assert_array_equal(data[:, 2], final.state.gamma)

    def test_unknown_preset_is_config_error(self, tmp_path):
        assert main(["simulate", "--preset", "nope",
                     "--out", str(tmp_path / "x")]) == 2

    def test_bad_config_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("params:\n  inv_peclet: -1\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "y")]) == 2

    def test_compare_subcommand(self, tmp_path):
        out = tmp_path / "c"
        code = main(["compare", "--preset", "fig3", "--out", str(out),
                     "--peclet", "3,30", "--t-compare", "2.0", "--dt", "1.0"])
        assert code == 0
        assert (out / "compare_summary.csv").exists()
