import dataclasses
import math
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
import yaml

from lubrisim import (ALL_TOGGLES, ETA_FLOOR, BoundaryKind, ModelVariant, State,
                      run_simulation)
from lubrisim.cli import (
    _YAML_NAMES,
    ConfigError,
    Scenario,
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
        sc = scenario_from_dict(yaml.safe_load(readme_yaml()), source="README.md")
        assert sc.name == "my-run"
        assert sc.grid.length == pytest.approx(default_scenario().grid.length)
        assert sc.initial.drop_center == pytest.approx(sc.grid.length / 2)
        assert sc.params.toggles == ALL_TOGGLES
        assert sc.step == default_scenario().step

    def test_readme_schema_names_every_key(self):
        # every YAML key of the Scenario tree, commented out or not
        def keys(cls):
            hints = typing.get_type_hints(cls)
            for f in dataclasses.fields(cls):
                yield _YAML_NAMES.get(f.name, f.name)
                if dataclasses.is_dataclass(hints[f.name]):
                    yield from keys(hints[f.name])

        block = readme_yaml()
        missing = [k for k in keys(Scenario) if not re.search(rf"\b{k}:", block)]
        assert not missing, f"README YAML schema lacks {missing}"


def readme_yaml() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return re.search(r"```yaml\n(.*?)```", readme, re.S).group(1)


MALFORMED_CONFIGS = [
    ("initial: {center: abc}", ".initial.center"),
    ("step: {newton_iters: null}", ".step.newton_iters"),
    ("grid: [1, 2]", ".grid must be a mapping"),
    ("params: {toggles: 5}", ".params.toggles"),
    ("initial: {kind: custom, eta: abc, gamma: [1.0]}", ".initial.eta"),
    ("initial: {width: 0}", ".initial: width"),
    ("initial: {kind: bogus}", ".initial: kind must be one of"),
    ("initial: {kind: custom}", ".initial: kind 'custom' requires eta and gamma arrays"),
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
    # float() would read a YAML bool as 1.0, in a field or a list
    ("step: {dt: true}", ".step.dt: expected a number, got True"),
    ("snapshot_times: [true]", ".snapshot_times: expected a number, got True"),
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
    # a film below the floor would start from a State that cannot be built
    ("grid: {n_nodes: 5}\n"
     "initial: {kind: custom, eta: [1, 1, 5e-9, 1, 1], gamma: [1, 1, 1, 1, 1]}",
     ".initial: eta (film thickness) must be positive and finite, at least 1e-08"),
    # fig4's grid has a node at kx = pi, where eta = 1 - amplitude = 1e-9
    ("grid: {length: 12.566370614359172}\n"
     "initial: {kind: corrugated_uniform_surfactant, amplitude: 0.999999999}",
     ".initial: amplitude must lie in (-1, 1), with 1 - |amplitude| >= 1e-08"),
    ("step: {dt: .inf}", ".step: dt must be positive and finite"),
    # an infinite tolerance would accept every held step unchecked
    ("step: {newton_tol: .inf}", ".step: newton_tol must be positive and finite"),
    # snapshot times are checked at load, before any output is made
    ("snapshot_times: [-1.0, 5.0]", "yaml: snapshot_times must be finite, >= 0"),
    ("snapshot_times: [5.0, 2.0]", "yaml: snapshot_times must be finite, >= 0 and ascending"),
    ("snapshot_times: [.nan, 5.0]", "yaml: snapshot_times must be finite"),
    ("snapshot_times: [.inf]", "yaml: snapshot_times must be finite"),
    # each snapshot is written to t{time:g}.csv, so times must differ in it
    ("snapshot_times: [1, 1.0000001, 10]", "yaml: snapshot_times must differ in t{:g}.csv"),
    # a list field given a string or a mapping is not iterated as one
    ('snapshot_times: "19"', ".snapshot_times: expected a list, got '19'"),
    ("params: {toggles: capillary}", ".params.toggles: expected a list"),
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
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags,where", [
    (["--dt", "0"], "command line.step: dt"),
    (["--dt", "-1"], "command line.step: dt"),
    (["--dt", "inf"], "command line.step: dt must be positive and finite"),
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


@pytest.mark.parametrize("initial", [
    {"kind": "corrugated_uniform_surfactant", "amplitude": 1.0 - ETA_FLOOR},
    {"kind": "corrugated_uniform_surfactant", "amplitude": ETA_FLOOR - 1.0},
    {"kind": "custom", "eta": [1.0, 1.0, ETA_FLOOR, 1.0, 1.0], "gamma": [1.0] * 5},
])
def test_film_at_the_floor_builds_its_state(initial):
    # what the schema accepts builds its initial State, down to the floor
    # (fig4's grid has nodes at kx = 0 and pi)
    grid = {"n_nodes": 5} if initial["kind"] == "custom" else {"length": 4.0 * math.pi}
    s = build_initial_state(scenario_from_dict({"grid": grid, "initial": initial}))
    assert ETA_FLOOR <= s.eta.min() < 1.01 * ETA_FLOOR


@pytest.mark.parametrize("command, flag, value", [
    ("simulate", "--t-end", "-5"),
    ("simulate", "--t-end", "inf"),
    ("compare", "--t-compare", "-1"),
    ("compare", "--t-compare", "nan"),
])
def test_bad_end_time_is_config_error(tmp_path, caplog, command, flag, value):
    out = tmp_path / "out"
    assert main([command, "--preset", "fig2", "--out", str(out), flag, value]) == 2
    assert f"{flag} must be finite and >= 0" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("argv, out", [
    (["simulate", "--preset", "fig3", "--t-end", "1"], "a_file"),
    (["compare", "--preset", "fig3", "--t-compare", "1"], "a_file/out"),
    (["dispersion", "--n-points", "3"], "missing/d.csv"),
])
def test_unusable_out_is_config_error(tmp_path, caplog, argv, out):
    # a directory where a file stands, or a CSV in a directory that is missing
    (tmp_path / "a_file").write_text("kept")
    assert main([*argv, "--out", str(tmp_path / out)]) == 2
    assert "--out" in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file"]
    assert (tmp_path / "a_file").read_text() == "kept"


@pytest.mark.parametrize("value", [-5.0, math.inf, math.nan])
def test_commands_check_their_end_time(tmp_path, value):
    # called directly, not only through main, and before the directory is made
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="--t-end must be finite and >= 0"):
        cmd_simulate(preset("fig2"), out, t_end=value)
    with pytest.raises(ConfigError, match="--t-compare must be finite and >= 0"):
        cmd_compare(preset("fig3"), (ModelVariant.FULL_CM, ModelVariant.DE_WIT),
                    (3.0,), value, out)
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["compare", "--preset", "fig3", "--peclet", "nan"], "needs positive Peclet numbers"),
    (["compare", "--preset", "fig3", "--peclet", "0"], "needs positive Peclet numbers"),
    (["compare", "--preset", "fig3", "--variants", "full"], "needs exactly two variants"),
    # each Peclet number is written to diff_P{pe:g}.csv
    (["compare", "--preset", "fig3", "--peclet", "3,3.0000001", "--t-compare", "1"],
     "--peclet values must differ in diff_P{:g}.csv"),
    (["dispersion", "--delta-s", "nan"], "delta_s must be finite"),
    (["dispersion", "--delta-s", "inf"], "delta_s must be finite"),
    (["dispersion", "--k-max", "inf"],
     "dispersion: need 0 <= k_min < k_max < inf, got [0.0, inf]"),
    # t1000.csv is the fig2 preset's last snapshot
    (["simulate", "--preset", "fig2", "--t-end", "1000.0000004"],
     "--t-end 1000.0000004 names the file of another snapshot time"),
])
def test_bad_argument_exits_2_without_output(tmp_path, caplog, args, message):
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 2
    assert message in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_config_and_preset_exclude_each_other(tmp_path, capsys, command):
    config = tmp_path / "fig4.yaml"
    save_config(preset("fig4"), config)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main([command, "--config", str(config), "--preset", "fig2", "--out", str(out)])
    assert exit_.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


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

    def test_repeated_snapshot_time_is_one_file(self, tmp_path):
        # a repeated time is one snapshot, so its name collides with nothing
        data = scenario_to_dict(preset("fig3"))
        data["snapshot_times"] = [15.0, 15.0]
        out = tmp_path / "run"
        assert cmd_simulate(scenario_from_dict(data), out) == 0
        assert sorted(os.listdir(out)) == ["report.txt", "t0.csv", "t15.csv"]

    def test_simulate_solver_failure_exit_code(self, tmp_path):
        sc = default_scenario()
        data = scenario_to_dict(sc)
        eta = [1.0] * 97
        eta[48] = 2e-8  # valid state, thinned through the floor by its first step
        data["initial"] = {"kind": "custom", "eta": eta, "gamma": [1.0] * 97}
        data["snapshot_times"] = [10.0]
        sc_bad = scenario_from_dict(data)
        assert cmd_simulate(sc_bad, tmp_path / "fail") == 3
        # through main too: run_simulation reports the failure in its summary
        save_config(sc_bad, tmp_path / "thin.yaml")
        out = tmp_path / "main"
        assert main(["simulate", "--config", str(tmp_path / "thin.yaml"),
                     "--out", str(out)]) == 3
        assert "FAILED:" in (out / "report.txt").read_text()

    def test_dispersion_command(self, tmp_path):
        out = tmp_path / "disp.csv"
        assert cmd_dispersion(1e-4, 2.0, 41, out) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 42
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert np.all(data["lambda_slow"] <= 0)
        assert np.all(data["lambda_fast"] <= 0)

    def test_dispersion_invalid_kmax(self, tmp_path):
        with pytest.raises(ConfigError, match="dispersion: need 0 <= k_min < k_max"):
            cmd_dispersion(1e-4, 0.0, 10, tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

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

    @staticmethod
    def summary(out):
        return np.loadtxt(out / "compare_summary.csv", delimiter=",", skiprows=1, ndmin=2)

    def test_compare_identical_variants_zero_difference(self, tmp_path):
        sc = preset("fig3")
        out = tmp_path / "cmp"
        assert cmd_compare(sc, (ModelVariant.FULL_CM, ModelVariant.FULL_CM),
                           (3.0,), 5.0, out) == 0
        np.testing.assert_array_equal(self.summary(out)[:, 2:], 0.0)

    def test_compare_t_zero_shared_initial_state(self, tmp_path):
        sc = preset("fig3")
        out = tmp_path / "cmp0"
        assert cmd_compare(sc, (ModelVariant.FULL_CM, ModelVariant.DE_WIT),
                           (3.0,), 0.0, out) == 0
        np.testing.assert_array_equal(self.summary(out)[:, 2:], 0.0)

    def test_compare_writes_outputs(self, tmp_path):
        sc = preset("fig3")
        out = tmp_path / "cmp2"
        assert cmd_compare(sc, (ModelVariant.FULL_CM, ModelVariant.DE_WIT),
                           (3.0, 30.0), 5.0, out) == 0
        files = sorted(os.listdir(out))
        assert files == ["compare_summary.csv", "diff_P3.csv", "diff_P30.csv"]
        summary = self.summary(out)
        np.testing.assert_array_equal(summary[:, :2], [[3.0, 5.0], [30.0, 5.0]])
        assert np.all(summary[:, 2:] > 0.0)

    def test_compare_l2_is_the_trapezoidal_norm(self, tmp_path):
        # on a periodic grid node N-1 is node 0 again: the trapezoid counts
        # it once, so a drop centred on node 0 tells the rules apart
        sc = scenario_from_dict({"grid": {"n_nodes": 33, "boundary": "periodic"},
                                 "initial": {"center": 0.0}, "step": {"dt": 1.0}})
        out = tmp_path / "cmp"
        assert cmd_compare(sc, (ModelVariant.FULL_CM, ModelVariant.DE_WIT),
                           (3.0,), 2.0, out) == 0
        diff = np.loadtxt(out / "diff_P3.csv", delimiter=",", skiprows=1)
        dx = sc.grid.dx
        for column, l2 in ((1, 3), (2, 5)):
            d2 = diff[:, column] ** 2
            assert d2[0] > 0.0
            trapezoid = math.sqrt(dx * (d2.sum() - 0.5 * (d2[0] + d2[-1])))
            assert self.summary(out)[0, l2] == pytest.approx(trapezoid, rel=1e-12)

    def test_compare_solves_a_repeated_peclet_number_once(self, tmp_path, monkeypatch):
        import lubrisim.cli as cli
        calls = []

        def counted(*args):
            calls.append(args[5].inv_peclet)
            return run_simulation(*args)

        monkeypatch.setattr(cli, "run_simulation", counted)
        out = tmp_path / "cmp"
        assert main(["compare", "--preset", "fig3", "--peclet", "3,3,30,3.0",
                     "--t-compare", "1", "--out", str(out)]) == 0
        assert calls == [1 / 3.0] * 2 + [1 / 30.0] * 2
        assert sorted(os.listdir(out)) == ["compare_summary.csv", "diff_P3.csv", "diff_P30.csv"]
        np.testing.assert_array_equal(self.summary(out)[:, 0], [3.0, 30.0])

    def test_compare_failure_keeps_the_rows_already_compared(self, tmp_path,
                                                             monkeypatch, caplog):
        # P = 3 compares the fig2 drop; at P = 30 de Wit starts from a film
        # of 2e-8 at one node, which fails its first step
        import lubrisim.cli as cli
        eta = np.ones(97)
        eta[48] = 2e-8
        thin = State(eta, np.ones(97))

        def failing_at_p30(s0, t_end, times, step, variant, params, grid):
            if params.inv_peclet == 1 / 30.0 and variant is ModelVariant.DE_WIT:
                s0 = thin
            return run_simulation(s0, t_end, times, step, variant, params, grid)

        monkeypatch.setattr(cli, "run_simulation", failing_at_p30)
        out = tmp_path / "cmp"
        assert cmd_compare(preset("fig2"), (ModelVariant.FULL_CM, ModelVariant.DE_WIT),
                           (3.0, 30.0, 300.0), 1.0, out) == 3
        assert sorted(os.listdir(out)) == ["compare_summary.csv", "diff_P3.csv"]
        summary = self.summary(out)
        np.testing.assert_array_equal(summary[:, :2], [[3.0, 1.0], [30.0, 1.0]])
        assert np.all(summary[0, 2:] > 0.0) and np.all(np.isnan(summary[1, 2:]))
        assert "solver failure at P=30 (dewit): PositivityError" in caplog.text


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

    def test_module_runs_from_a_checkout(self, tmp_path):
        # python -m lubrisim, with src/ on the path and nothing installed
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = tmp_path / "d.csv"
        done = subprocess.run([sys.executable, "-m", "lubrisim", "dispersion",
                               "--n-points", "3", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert len(out.read_text().splitlines()) == 4  # header and 3 points

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
