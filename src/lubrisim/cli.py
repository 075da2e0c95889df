"""Command-line front end: presets, config files, simulation driving.

Subcommands: simulate, dispersion, compare, preset-list.  Configuration
files are YAML; the full schema with defaults is documented in README.md.
The schema is the Scenario dataclass tree: one walk over its fields loads
a YAML document, writes one back, and applies the command-line overrides,
so keys, defaults and checks are stated once, on the dataclasses.
Every ``cmd_*`` function checks all of its own arguments, raising
ConfigError before it writes anything, and returns its exit code: 0 on
success, 3 on a solver failure.  ``main`` maps ConfigError to exit code 2.
Set LUBRISIM_LOG={quiet|info|debug} to control chattiness.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import logging
import math
import os
import sys
import typing
from dataclasses import dataclass

import numpy as np

from .core import (
    ETA_FLOOR,
    BoundaryKind,
    Grid,
    ModelVariant,
    Params,
    State,
    write_csv,
)
from .discretization import stencil_ops
from .stability import dispersion_scan, write_dispersion_csv
from .timestepper import SimulationResult, StepConfig, run_simulation

log = logging.getLogger("lubrisim")

INITIAL_KINDS = ("flat_with_surfactant_drop", "corrugated_uniform_surfactant", "custom")
_SNAPSHOT_CSV = "t{:g}.csv"  # one file per name, so snapshot times must differ in it
_DIFF_CSV = "diff_P{:g}.csv"  # one file per name, so Peclet numbers must differ in it


class ConfigError(ValueError):
    """Configuration file or CLI argument problem (exit code 2)."""


@dataclass(frozen=True)
class InitialCondition:
    kind: str = "flat_with_surfactant_drop"
    drop_center: float | None = None     # defaults to L/2
    drop_width: float = 2.0
    drop_excess: float = 1.0
    corrugation_amplitude: float = 0.1
    corrugation_wavenumber: float = 0.5
    eta: tuple[float, ...] | None = None  # custom profiles
    gamma: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in INITIAL_KINDS:
            raise ConfigError(f"kind must be one of {INITIAL_KINDS}, got {self.kind!r}")
        if self.kind == "custom" and (self.eta is None or self.gamma is None):
            raise ConfigError("kind 'custom' requires eta and gamma arrays")
        if not 0.0 < self.drop_width < math.inf:
            raise ConfigError(f"width must be positive and finite, got {self.drop_width}")
        if not -1.0 <= self.drop_excess < math.inf:  # the drop centre holds 1 + excess
            raise ConfigError(f"excess must be finite and >= -1, got {self.drop_excess}")
        # eta = 1 + a*cos(kx) >= 1 - |a| in floating point too
        if not 1.0 - abs(self.corrugation_amplitude) >= ETA_FLOOR:
            raise ConfigError(f"amplitude must lie in (-1, 1), with 1 - |amplitude| >= "
                              f"{ETA_FLOOR:g}, got {self.corrugation_amplitude}")
        if self.drop_center is not None and not math.isfinite(self.drop_center):
            raise ConfigError(f"center must be finite, got {self.drop_center}")
        if not math.isfinite(self.corrugation_wavenumber):
            raise ConfigError("wavenumber must be finite, "
                              f"got {self.corrugation_wavenumber}")
        if self.eta is not None:
            object.__setattr__(self, "eta", tuple(float(v) for v in self.eta))
            if not all(ETA_FLOOR <= v < math.inf for v in self.eta):
                raise ConfigError("eta (film thickness) must be positive and finite, "
                                  f"at least {ETA_FLOOR:g}")
        if self.gamma is not None:
            object.__setattr__(self, "gamma", tuple(float(v) for v in self.gamma))
            if not all(0.0 <= v < math.inf for v in self.gamma):
                raise ConfigError("gamma (surfactant) must be >= 0 and finite")


@dataclass(frozen=True)
class Scenario:
    name: str
    grid: Grid
    initial: InitialCondition
    params: Params
    variant: ModelVariant
    step: StepConfig
    snapshot_times: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.snapshot_times)
        if not all(0.0 <= t < math.inf for t in times) or list(times) != sorted(times):
            raise ConfigError("snapshot_times must be finite, >= 0 and ascending, "
                              f"got {list(times)}")
        if len({_SNAPSHOT_CSV.format(t) for t in times}) < len(set(times)):  # a repeat is one file
            raise ConfigError(f"snapshot_times must differ in {_SNAPSHOT_CSV}, got {list(times)}")
        object.__setattr__(self, "snapshot_times", times)
        init, n = self.initial, self.grid.n_nodes
        periodic = self.grid.boundary is BoundaryKind.PERIODIC
        if periodic and init.kind == "corrugated_uniform_surfactant":
            turns = init.corrugation_wavenumber * self.grid.length / (2.0 * math.pi)
            if not math.isclose(turns, round(turns), abs_tol=1e-9):
                raise ConfigError("initial.wavenumber times grid.length must be a whole "
                                  f"multiple of 2*pi on a periodic grid, got {turns} turns")
        if init.kind != "custom":
            return
        if len(init.eta) != n or len(init.gamma) != n:
            raise ConfigError(f"custom initial eta and gamma need grid.n_nodes = {n} "
                              f"values, got {len(init.eta)} and {len(init.gamma)}")
        # node N-1 of a periodic grid is node 0 again
        if periodic and (init.eta[0] != init.eta[-1] or init.gamma[0] != init.gamma[-1]):
            raise ConfigError("custom initial eta and gamma on a periodic grid "
                              "must have node N-1 equal to node 0")


def build_initial_state(scenario: Scenario) -> State:
    """Realise the initial condition on the scenario grid; on periodic grids
    the drop distance runs around the ring and node N-1 is node 0 again."""
    grid = scenario.grid
    x = grid.x
    init = scenario.initial
    periodic = grid.boundary is BoundaryKind.PERIODIC
    if init.kind == "flat_with_surfactant_drop":
        eta = np.ones(grid.n_nodes)
        center = grid.length / 2.0 if init.drop_center is None else init.drop_center
        w = init.drop_width
        r = np.abs(x - center)
        if periodic:
            r = np.minimum(r % grid.length, -r % grid.length)
        bump = np.where(r <= w, 0.5 * (1.0 + np.cos(np.pi * np.minimum(r, w) / w)), 0.0)
        gamma = 1.0 + init.drop_excess * bump
    elif init.kind == "corrugated_uniform_surfactant":
        k = init.corrugation_wavenumber
        eta = 1.0 + init.corrugation_amplitude * np.cos(k * x)
        gamma = np.ones(grid.n_nodes)
    else:
        eta = np.asarray(init.eta, dtype=float)
        gamma = np.asarray(init.gamma, dtype=float)
    if periodic:
        eta[-1], gamma[-1] = eta[0], gamma[0]
    return State(eta, gamma, 0.0)


def default_scenario(name: str = "fig2") -> Scenario:
    return Scenario(
        name=name,
        grid=Grid(97, 15.0 * math.pi),
        initial=InitialCondition(),
        params=Params(),
        variant=ModelVariant.FULL_CM,
        step=StepConfig(dt=100.0),
        snapshot_times=(1.0, 10.0, 100.0, 1000.0),
    )


def _corrugated_scenario(name: str, snapshot_times) -> Scenario:
    # One full cosine wave over L = 4*pi, i.e. k = 0.5: slow enough to
    # outlive the clean-film levelling by orders of magnitude, and k*L is a
    # multiple of pi so the profile reflects evenly at the walls.
    return dataclasses.replace(
        default_scenario(name),
        grid=Grid(97, 4.0 * math.pi),
        initial=InitialCondition(kind="corrugated_uniform_surfactant",
                                 corrugation_wavenumber=0.5),
        step=StepConfig(dt=1.0),
        snapshot_times=snapshot_times,
    )


_PRESETS = {
    "fig2": lambda: default_scenario("fig2"),
    "fig3": lambda: _corrugated_scenario("fig3", (0.0, 15.0, 30.0, 45.0)),
    "fig4": lambda: _corrugated_scenario("fig4", (0.0, 100.0, 200.0, 300.0)),
}


def preset(name: str) -> Scenario:
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(_PRESETS))}"
        ) from None


def preset_names() -> list:
    return sorted(_PRESETS)


# --- config file handling ---------------------------------------------------

# YAML keys that differ from the dataclass field names.
_YAML_NAMES = {"drop_center": "center", "drop_width": "width", "drop_excess": "excess",
               "corrugation_amplitude": "amplitude", "corrugation_wavenumber": "wavenumber"}


def _convert(tp, value, where: str, current=None):
    """Read a YAML value as the annotated type; a nested dataclass updates
    ``current`` from its own mapping.  Every value goes through its type,
    because PyYAML reads numbers such as 1e-10 (no dot) as strings.
    """
    if dataclasses.is_dataclass(tp):
        return _from_dict(current, value, where)
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        if value is None:
            return None
        tp = args[0]
    origin = typing.get_origin(tp)
    if origin in (tuple, frozenset):  # iterating a string would read "19" as 1, 9
        if isinstance(value, (str, dict)) or not hasattr(value, "__iter__"):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return origin(_convert(typing.get_args(tp)[0], v, where) for v in value)
    try:  # int() would truncate 97.9, and int() and float() read true as 1
        if tp is int and (isinstance(value, bool) or not float(value).is_integer()):
            raise ValueError(f"expected an integer, got {value!r}")
        if tp is float and isinstance(value, bool):
            raise ValueError(f"expected a number, got {value!r}")
        return int(float(value)) if tp is int else tp(value)
    except (TypeError, ValueError) as exc:
        if isinstance(tp, type) and issubclass(tp, enum.Enum):
            raise ConfigError(f"{where} must be one of {[m.value for m in tp]}, "
                              f"got {value!r}") from None
        raise ConfigError(f"{where}: {exc}") from None


def _from_dict(base, data, where: str):
    """``base`` with the fields named in the mapping ``data`` replaced.

    Nested dataclass fields recurse into their own mapping; unknown keys
    and values the dataclasses reject raise ConfigError naming the key path.
    """
    if data is None:
        return base
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a mapping, got {data!r}")
    fields = {_YAML_NAMES.get(f.name, f.name): f.name for f in dataclasses.fields(base)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(map(str, unknown)))}")
    hints = typing.get_type_hints(type(base))
    changes = {}
    for key, value in data.items():
        name = fields[key]
        changes[name] = _convert(hints[name], value, f"{where}.{key}", getattr(base, name))
    try:
        return dataclasses.replace(base, **changes)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def scenario_from_dict(data: dict, source: str = "config") -> Scenario:
    """Scenario from a parsed YAML document; omitted keys keep the defaults."""
    return _from_dict(default_scenario("custom"), data, source)


def scenario_to_dict(value):
    """YAML form of a Scenario, or of any value inside one; None is omitted."""
    if dataclasses.is_dataclass(value):
        return {_YAML_NAMES.get(f.name, f.name): scenario_to_dict(getattr(value, f.name))
                for f in dataclasses.fields(value) if getattr(value, f.name) is not None}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, frozenset):
        return sorted(value)
    return list(value) if isinstance(value, tuple) else value


def load_config(path) -> Scenario:
    import yaml  # here, not at the top: only --config and save_config pay its import
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:  # not UTF-8: raised inside safe_load
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ConfigError(f"cannot parse config {path}{where}: {exc}") from None
    return scenario_from_dict(data, source=str(path))


def save_config(scenario: Scenario, path) -> None:
    import yaml
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_dict(scenario), fh, sort_keys=False)


# --- output helpers ----------------------------------------------------------

def _write_run_report(path, scenario: Scenario, result: SimulationResult) -> None:
    s = result.summary
    lines = [
        f"scenario: {scenario.name}",
        f"variant: {scenario.variant.value}",
        f"steps: {s.steps}",
        f"rejected_steps: {s.rejected_steps}",
        f"jacobian_refreshes: {s.jacobian_refreshes}", f"factorisations: {s.factorisations}",
        f"final_time: {s.final_time:.17g}",
        f"max_film_mass_drift: {s.max_film_mass_drift:.6e}",
        f"max_surfactant_mass_drift: {s.max_surfactant_mass_drift:.6e}",
        f"wall_time_s: {s.wall_time:.3f}",
    ]
    for snap in result.snapshots[1:]:
        lines.append(
            f"t={snap.time:g}: newton_iters={snap.report.newton_iters_used} "
            f"residual_before={snap.report.residual_norm_before:.3e} "
            f"residual_after={snap.report.residual_norm_after:.3e}"
        )
    if s.failure:
        lines.append(f"FAILED: {s.failure}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _make_out_dir(out_dir) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: cannot make directory {out_dir}: {exc}") from None


# --- commands ----------------------------------------------------------------

def cmd_simulate(scenario: Scenario, out_dir, t_end: float | None = None) -> int:
    if t_end is not None and not 0.0 <= t_end < math.inf:
        raise ConfigError(f"--t-end must be finite and >= 0, got {t_end:g}")
    snaps = scenario.snapshot_times
    end = t_end if t_end is not None else (max(snaps) if snaps else 0.0)
    snaps = tuple(st for st in snaps if st <= end)
    written = {0.0, *snaps, end}  # the times whose snapshots are written
    if len(set(map(_SNAPSHOT_CSV.format, written))) < len(written):
        raise ConfigError(f"--t-end {end!r} names the file of another snapshot time")
    _make_out_dir(out_dir)
    s0 = build_initial_state(scenario)
    log.info("simulate %s: variant=%s N=%d t_end=%g",
             scenario.name, scenario.variant.value, scenario.grid.n_nodes, end)
    result = run_simulation(s0, end, snaps, scenario.step, scenario.variant,
                            scenario.params, scenario.grid)
    for snap in result.snapshots:
        write_csv(os.path.join(out_dir, _SNAPSHOT_CSV.format(snap.time)), "x,eta,gamma",
                  np.column_stack((scenario.grid.x, snap.state.eta, snap.state.gamma)))
    _write_run_report(os.path.join(out_dir, "report.txt"), scenario, result)
    if result.summary.failure:
        log.error("solver failure: %s", result.summary.failure)
        return 3
    log.info("done: %d steps, film drift %.2e, surfactant drift %.2e, %.2fs",
             result.summary.steps, result.summary.max_film_mass_drift,
             result.summary.max_surfactant_mass_drift, result.summary.wall_time)
    return 0


def cmd_dispersion(delta_s: float, k_max: float, n_points: int, out_path) -> int:
    try:
        results = dispersion_scan(0.0, k_max, n_points, delta_s)
    except ValueError as exc:
        raise ConfigError(f"dispersion: {exc}") from None
    try:
        write_dispersion_csv(results, out_path)
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {out_path}: {exc}") from None
    log.info("dispersion curve with %d points written to %s", n_points, out_path)
    return 0


def cmd_compare(scenario: Scenario, variants, peclet_list, t_compare: float,
                out_dir) -> int:
    """Run two variants at each distinct Peclet number, in first-seen order,
    and write their final differences: one diff_P<value>.csv per number and
    a compare_summary.csv row of its L-inf and trapezoidal L2 norms.  A
    solver failure ends the sweep with a row of nan norms for its number and
    returns 3.
    """
    if len(variants) != 2:
        raise ConfigError(f"compare needs exactly two variants, got {len(variants)}")
    if not peclet_list or not all(p > 0 for p in peclet_list):
        raise ConfigError(f"compare needs positive Peclet numbers, got {peclet_list}")
    peclets = tuple(dict.fromkeys(peclet_list))  # a repeated number is solved once
    if len({_DIFF_CSV.format(pe) for pe in peclets}) < len(peclets):
        raise ConfigError(f"--peclet values must differ in {_DIFF_CSV}, got {list(peclet_list)}")
    if not 0.0 <= t_compare < math.inf:
        raise ConfigError(f"--t-compare must be finite and >= 0, got {t_compare:g}")
    _make_out_dir(out_dir)
    s0 = build_initial_state(scenario)
    ops = stencil_ops(scenario.grid)
    rows, failed = [], False
    for pe in peclets:
        params = dataclasses.replace(scenario.params, inv_peclet=1.0 / pe)
        finals = []
        for variant in variants:
            result = run_simulation(s0, t_compare, (), scenario.step, variant, params,
                                    scenario.grid)
            if result.summary.failure:
                log.error("solver failure at P=%g (%s): %s", pe, variant.value,
                          result.summary.failure)
                failed = True
                break
            finals.append(result.snapshots[-1].state)
        if failed:
            rows.append((pe, t_compare, None, None, None, None))
            break
        d_eta = finals[0].eta - finals[1].eta
        d_gamma = finals[0].gamma - finals[1].gamma
        rows.append((pe, t_compare, np.max(np.abs(d_eta)), np.sqrt(ops.integrate(d_eta**2)),
                     np.max(np.abs(d_gamma)), np.sqrt(ops.integrate(d_gamma**2))))
        write_csv(os.path.join(out_dir, _DIFF_CSV.format(pe)), "x,d_eta,d_gamma",
                  np.column_stack((scenario.grid.x, d_eta, d_gamma)))
    write_csv(os.path.join(out_dir, "compare_summary.csv"),
              "peclet,time,linf_eta,l2_eta,linf_gamma,l2_gamma", rows)
    if failed:
        return 3
    log.info("comparison (%s vs %s) written to %s", variants[0].value,
             variants[1].value, out_dir)
    return 0


# --- argument parsing ---------------------------------------------------------

def _configure_logging() -> None:
    level_name = os.environ.get("LUBRISIM_LOG", "info").lower()
    levels = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(format="%(levelname)s %(message)s")
    log.setLevel(levels.get(level_name, logging.INFO))


def _scenario_from_args(args) -> Scenario:
    if args.config:
        scenario = load_config(args.config)
    elif args.preset:
        scenario = preset(args.preset)
    else:
        scenario = default_scenario()
    flags = {"grid": {"n_nodes": args.nodes}, "step": {"dt": args.dt},
             "params": {"inv_peclet": args.delta_s}}
    overrides = {section: {k: v for k, v in keys.items() if v is not None}
                 for section, keys in flags.items()}
    if args.variant:
        overrides["variant"] = args.variant
    return _from_dict(scenario, overrides, "command line")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lubrisim",
        description="Contaminated thin-film lubrication solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_flags(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--config", help="YAML scenario file")
        source.add_argument("--preset", help="built-in scenario name")
        p.add_argument("--variant", choices=[v.value for v in ModelVariant])
        p.add_argument("--nodes", type=int, help="override grid.n_nodes")
        p.add_argument("--dt", type=float, help="override the (first) time step")
        p.add_argument("--delta-s", dest="delta_s", type=float,
                       help="override inverse Peclet number")

    p_sim = sub.add_parser("simulate", help="run one scenario, write snapshots")
    add_scenario_flags(p_sim)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--t-end", dest="t_end", type=float,
                       help="override end time (default: last snapshot)")

    p_disp = sub.add_parser("dispersion", help="export the dispersion curve")
    p_disp.add_argument("--out", required=True, help="output CSV path")
    p_disp.add_argument("--delta-s", dest="delta_s", type=float, default=1e-4)
    p_disp.add_argument("--k-max", dest="k_max", type=float, default=2.0)
    p_disp.add_argument("--n-points", dest="n_points", type=int, default=201)

    p_cmp = sub.add_parser("compare", help="difference two variants over Peclet numbers")
    add_scenario_flags(p_cmp)
    p_cmp.add_argument("--out", required=True, help="output directory")
    p_cmp.add_argument("--variants", default="full,dewit",
                       help="comma-separated pair, e.g. full,dewit")
    p_cmp.add_argument("--peclet", default="3,30,300",
                       help="comma-separated Peclet numbers")
    p_cmp.add_argument("--t-compare", dest="t_compare", type=float, default=10.0)

    sub.add_parser("preset-list", help="list built-in scenario presets")
    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "preset-list":
            for name in preset_names():
                print(name)
            return 0
        if args.command == "dispersion":
            return cmd_dispersion(args.delta_s, args.k_max, args.n_points, args.out)
        scenario = _scenario_from_args(args)
        if args.command == "simulate":
            return cmd_simulate(scenario, args.out, args.t_end)
        variants = _convert(tuple[ModelVariant, ...],
                            [v.strip() for v in args.variants.split(",")], "--variants")
        peclets = _convert(tuple[float, ...], args.peclet.split(","), "--peclet")
        return cmd_compare(scenario, variants, peclets, args.t_compare, args.out)
    except ConfigError as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
