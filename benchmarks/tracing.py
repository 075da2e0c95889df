"""Outside-in layer trace: spans around the public functions the solver calls.

The package is not modified.  ``Tracer.install`` replaces module and class
attributes of lubrisim with wrappers that record one span per call (name,
parent span, start, end) in flat in-memory arrays; ``Tracer.close`` puts
the originals back.  The layers are the package modules:

  cli             cmd_simulate, and the run_simulation name it calls
  timestepper     advance, jacobian_fd, residual, FdJacobian.solve
  models          rhs, as seen (imported) by the timestepper
  discretization  the public StencilOps methods, film_mass, surfactant_mass
  core            State.__post_init__ (validation of every State built)

fields and stability are diagnostics on no workload's timed path and stay
unwrapped.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np

from lubrisim import cli, core, discretization, timestepper

STENCIL_METHODS = ("d1", "d2", "d3", "halo", "halo_d1", "halo_d2",
                   "d1_center", "div_flux", "integrate")

# (owner, attribute, span name); owners are looked up at install time.
FULL = (
    (cli, "cmd_simulate", "cli.cmd_simulate"),
    (cli, "run_simulation", "timestepper.run_simulation"),
    (timestepper, "advance", "timestepper.advance"),
    (timestepper, "jacobian_fd", "timestepper.jacobian_fd"),
    (timestepper, "residual", "timestepper.residual"),
    (timestepper.FdJacobian, "solve", "timestepper.solve"),
    (timestepper, "rhs", "models.rhs"),
    (timestepper, "film_mass", "discretization.film_mass"),
    (timestepper, "surfactant_mass", "discretization.surfactant_mass"),
    (core.State, "__post_init__", "core.State"),
) + tuple((discretization.StencilOps, m, f"discretization.{m}")
          for m in STENCIL_METHODS)

# Step times only: one span per step, so the solve runs effectively untraced.
STEPS_ONLY = ((timestepper, "advance", "timestepper.advance"),)


class Tracer:
    """Span recorder; spans are kept in memory until ``spans()`` is read."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("i")
        self._stack = [-1]
        self._patches: list = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        failed, stack, clock = self.failed, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception:
                failed.append(i)
                raise
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self, points) -> "Tracer":
        for owner, attr, name in points:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        return self

    def close(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> "Spans":
        return Spans(self)


class Spans:
    """Array view of a finished trace with the per-layer derived quantities."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name_id, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.start = np.frombuffer(tracer.start, dtype=float).copy()
        self.end = np.frombuffer(tracer.end, dtype=float).copy()
        self.dur = self.end - self.start
        self.failed = np.zeros(self.name.size, dtype=bool)
        self.failed[np.frombuffer(tracer.failed, dtype=np.int32)] = True
        has_parent = self.parent >= 0
        self.child_time = np.bincount(self.parent[has_parent],
                                      weights=self.dur[has_parent],
                                      minlength=self.name.size)

    def save(self, path: str) -> None:
        """Write the spans (perf_counter seconds) as a compressed .npz file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), name=self.name,
                            parent=self.parent, start=self.start, end=self.end,
                            failed=self.failed)

    def named(self, *names: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(self.name, ids)

    def layer(self, prefix: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix + ".")]
        return np.isin(self.name, ids)

    def under(self, mask: np.ndarray) -> np.ndarray:
        """Spans with an ancestor in ``mask`` (parents precede children)."""
        inside = np.zeros(self.name.size, dtype=bool)
        cur = self.parent.copy()
        live = cur >= 0
        while live.any():
            idx = np.nonzero(live)[0]
            inside[idx] |= mask[cur[idx]]
            cur[idx] = self.parent[cur[idx]]
            live = cur >= 0
        return inside

    def child_time_of(self, child_mask: np.ndarray) -> np.ndarray:
        """Per span, the time covered by its direct children in child_mask."""
        sel = child_mask & (self.parent >= 0)
        return np.bincount(self.parent[sel], weights=self.dur[sel],
                           minlength=self.name.size)


def tail_percentile(n_samples: int) -> float:
    """Highest of the usual percentiles with at least 10 samples beyond it."""
    best = 50.0
    for pct in (75.0, 90.0, 95.0, 99.0, 99.9):
        if n_samples * (1.0 - pct / 100.0) >= 10.0:
            best = pct
    return best


def step_metrics(step_seconds, steps_per_solve: int) -> dict:
    """Median and tail step time.  The tail percentile is fixed by the steps
    in one solve, so it does not move when a faster program fits more
    solves into the window."""
    steps = np.asarray(step_seconds) * 1e3
    pct = tail_percentile(steps_per_solve)
    return {
        "timestepper.step_ms_p50": float(np.median(steps)),
        "timestepper.step_ms_tail": float(np.percentile(steps, pct)),
        "timestepper.step_tail_pct": pct,
        "timestepper.step_samples": int(steps.size),
    }


def layer_metrics(sp: Spans, n_nodes: int) -> dict:
    """Per-layer counts, shares and times from the full trace of one solve."""
    advance = sp.named("timestepper.advance")
    loop = advance | sp.named("timestepper.run_simulation")
    in_step = sp.under(advance)
    jac = sp.named("timestepper.jacobian_fd")
    lin = sp.named("timestepper.solve")
    rhs = sp.named("models.rhs")
    state = sp.named("core.State")
    stencil = sp.named(*(f"discretization.{m}" for m in STENCIL_METHODS))
    disc = sp.layer("discretization")
    disc_top = disc & ~sp.under(disc)
    cmd = sp.named("cli.cmd_simulate")

    steps = int(advance.sum())
    step_time = float(sp.dur[advance].sum())
    jac_calls = int(jac.sum())
    probes = int((rhs & np.isin(sp.parent, np.nonzero(jac)[0])).sum()) - jac_calls
    jac_self = sp.dur[jac] - sp.child_time_of(rhs)[jac]
    rhs_self = sp.dur[rhs] - sp.child_time[rhs]
    stencil_in_rhs = stencil & np.isin(sp.parent, np.nonzero(rhs)[0])
    cmd_self = sp.dur[cmd] - sp.child_time[cmd]

    return {
        "timestepper.steps": steps,
        "timestepper.newton_iters": int((jac & in_step).sum()) / steps,
        "timestepper.accepted_ratio": int((advance & ~sp.failed).sum()) / steps,
        "timestepper.rhs_calls_per_step": int((rhs & in_step).sum()) / steps,
        "timestepper.columns_per_rhs": 2 * n_nodes * jac_calls / probes,
        "timestepper.jacobian_share": float(sp.dur[jac].sum()) / step_time,
        "timestepper.jacobian_self_ms": float(np.median(jac_self)) * 1e3,
        "timestepper.solve_ms": float(np.median(sp.dur[lin])) * 1e3,
        "timestepper.solve_share": float(sp.dur[lin].sum()) / step_time,
        "models.rhs_us": float(np.median(sp.dur[rhs])) * 1e6,
        "models.rhs_calls": int(rhs.sum()),
        "models.rhs_self_share": float(rhs_self.sum() / sp.dur[rhs].sum()),
        "discretization.stencil_calls_per_rhs":
            int(stencil_in_rhs.sum()) / int(rhs.sum()),
        "discretization.share": float(sp.dur[disc_top & in_step].sum()) / step_time,
        "core.state_builds_per_step": int((state & sp.under(loop)).sum()) / steps,
        "core.state_share": float(sp.dur[state & in_step].sum()) / step_time,
        "cli.output_ms": float(np.median(cmd_self)) * 1e3 if cmd_self.size else 0.0,
        "trace.spans_per_step": sp.name.size / steps,
    }
