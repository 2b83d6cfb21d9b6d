"""Spans around calls into each ``susypep`` layer, and the per-layer metrics.

The tracer wraps public functions from outside the program. Several of them
are imported by name into other modules (``solve_bound_state`` into cli,
transform and fitting, for example), so a wrapper is installed in every
``susypep`` namespace that holds the original function; otherwise nested
calls would go uncounted. Spans stay in memory and are written out at exit.
"""
from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

# (layer, module, attribute); io methods are patched on the class.
TARGETS = (
    ("kernels", "susypep._kernels", "sweep_outward"),
    ("kernels", "susypep._kernels", "sweep_inward"),
    ("solver", "susypep.solver", "solve_bound_state"),
    ("solver", "susypep.solver", "count_bound_states"),
    ("solver", "susypep.solver", "solve_at_energy"),
    ("observables", "susypep.observables", "phase_shift_curve"),
    ("observables", "susypep.observables", "rms_radius"),
    ("observables", "susypep.observables", "zero_range_strength"),
    ("transform", "susypep.transform", "iterate_removals"),
    ("transform", "susypep.transform", "remove_lowest"),
    ("fitting", "susypep.fitting", "fit_parameters"),
    ("cli", "susypep.cli", "main"),
)
IO_METHODS = ("write_csv", "write_json", "finalize_manifest")


@dataclass
class Span:
    id: int
    layer: str
    name: str
    parent: int | None
    job: str | None
    start: float
    end: float = 0.0
    error: bool = False
    steps: int = 0          # kernel: rows x points swept
    bytes: int = 0          # kernel: computed from array sizes; io: file size
    rescaled: bool = False  # kernel: returned log_scale != 0
    count: int = 0          # curve: energies; fit: iterations


def _kernel_accounting(span, args, result):
    f, stop = args[0], args[-1]
    shape = getattr(f, "shape", (len(f),))
    rows, points = (shape[0], shape[-1]) if len(shape) == 2 else (1, shape[0])
    # outward sweeps span u[1..stop]; inward ones u[stop..n-1]
    span.steps = rows * (stop if span.name == "sweep_outward" else points - stop)
    u, log_scale = result
    span.bytes = 8 * (rows * points + np.size(u))
    span.rescaled = bool(np.any(np.asarray(log_scale) != 0.0))


def _curve_accounting(span, args, result):
    span.count = len(result.energies)


def _fit_accounting(span, args, result):
    span.count = result.iterations


def _io_accounting(span, args, result):
    span.bytes = result.stat().st_size


ACCOUNTING = {
    "sweep_outward": _kernel_accounting,
    "sweep_inward": _kernel_accounting,
    "phase_shift_curve": _curve_accounting,
    "fit_parameters": _fit_accounting,
    "write_csv": _io_accounting,
    "write_json": _io_accounting,
    "finalize_manifest": _io_accounting,
}


class Tracer:
    """Records spans while installed; ``job`` tags the spans of one job."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: str | None = None
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer, name, fn):
        account = ACCOUNTING.get(name)

        def wrapper(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), layer, name, parent, self.job, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if account is not None:
                account(span, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target in every loaded ``susypep`` namespace."""
        modules = [m for key, m in list(sys.modules.items())
                   if (key == "susypep" or key.startswith("susypep.")) and m is not None]
        for layer, module_name, attr in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(layer, attr, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)
        writer = sys.modules["susypep.io"].OutputWriter
        for attr in IO_METHODS:
            original = vars(writer)[attr]
            self._patches.append((writer, attr, original))
            setattr(writer, attr, self._wrap("io", attr, original))

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.id] = (span.end - span.start) - covered
    return out


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Per-layer metrics per pass over the traced jobs.

    ``busy`` sums a layer's outermost spans, so a layer calling itself is
    not counted twice; ``self`` subtracts the time its children cover.
    """
    by_id = {span.id: span for span in spans}
    selfs = self_times(spans)
    kernels_below: dict[int, int] = {}
    solves_below: dict[int, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for span in spans:
        chain = []
        parent = span.parent
        while parent is not None:
            chain.append(by_id[parent])
            parent = chain[-1].parent
        if all(a.layer != span.layer for a in chain):
            busy[span.layer] = busy.get(span.layer, 0.0) + span.end - span.start
        self_s[span.layer] = self_s.get(span.layer, 0.0) + selfs[span.id]
        below = kernels_below if span.layer == "kernels" else (
            solves_below if span.name == "solve_bound_state" else None)
        for a in chain if below is not None else ():
            below[a.id] = below.get(a.id, 0) + 1

    def named(name):
        return [s for s in spans if s.name == name]

    def duration(group):
        return sum(s.end - s.start for s in group)

    def ratio(x, y):
        return x / y if y else 0.0

    kernels = [s for s in spans if s.layer == "kernels"]
    steps = sum(s.steps for s in kernels)
    solves = named("solve_bound_state")
    curves = named("phase_shift_curve")
    energies = sum(s.count for s in curves)
    fits = named("fit_parameters")
    ios = [s for s in spans if s.layer == "io"]
    io_bytes = sum(s.bytes for s in ios)
    jobs = named("main")
    totals = {
        "kernels.calls": len(kernels),
        "kernels.steps": steps,
        "kernels.busy_s": busy.get("kernels", 0.0),
        "kernels.rescaled_calls": sum(s.rescaled for s in kernels),
        "kernels.bytes_computed": sum(s.bytes for s in kernels),
        "solver.bound_solves": len(solves),
        "solver.bound_busy_s": duration(solves),
        "solver.bound_self_s": sum(selfs[s.id] for s in solves),
        "solver.energy_solves": len(named("solve_at_energy")),
        "solver.count_calls": len(named("count_bound_states")),
        "solver.errors": sum(s.error for s in spans if s.layer == "solver"),
        "observables.curves": len(curves),
        "observables.energies": energies,
        "observables.curve_busy_s": duration(curves),
        "observables.self_s": self_s.get("observables", 0.0),
        "transform.removals": len(named("remove_lowest")),
        "transform.busy_s": busy.get("transform", 0.0),
        "transform.self_s": self_s.get("transform", 0.0),
        "fitting.fits": len(fits),
        "fitting.iterations": sum(s.count for s in fits),
        "fitting.busy_s": busy.get("fitting", 0.0),
        "io.files": len(ios),
        "io.bytes": io_bytes,
        "io.busy_s": busy.get("io", 0.0),
        "cli.jobs": len(jobs),
        "cli.self_s": self_s.get("cli", 0.0),
    }
    metrics = {name: value / passes for name, value in totals.items()}
    metrics.update({
        "kernels.msteps_per_s": ratio(steps, busy.get("kernels", 0.0)) / 1e6,
        "solver.sweeps_per_solve": ratio(sum(kernels_below.get(s.id, 0) for s in solves),
                                         len(solves)),
        "observables.s_per_energy": ratio(duration(curves), energies),
        "observables.sweeps_per_energy": ratio(sum(kernels_below.get(s.id, 0) for s in curves),
                                               energies),
        "fitting.solves_per_fit": ratio(sum(solves_below.get(s.id, 0) for s in fits), len(fits)),
        "io.mb_per_s": ratio(io_bytes, busy.get("io", 0.0)) / 1e6,
        "cli.bound_solves_per_job": ratio(len(solves), len(jobs)),
    })
    return metrics
