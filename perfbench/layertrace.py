"""Outside-in layer trace for one benchmark pass.

``install`` wraps every public function of every public sandlab module, and
the FFT entry points of ``numpy.fft`` and ``scipy.fft``, in a timing wrapper,
and rebinds every reference the sandlab modules hold to them
(``cli.stabilize`` as well as ``toppling.stabilize``).  Nothing inside
sandlab changes.  A module is a layer; the FFT entry points form the layer
``fft``.  A span
is one wrapped call; its self time is its duration minus the time covered by
the wrapped calls it made, so the self times of one pass add up to the time
the pass spent inside sandlab.  Counts come from return values and argument
sizes at the same boundaries.  Spans stay in memory until ``write_spans``.

The wrappers patch the process for its lifetime, so they are only installed
in a worker process that runs a single pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import pkgutil
import sys
import time
from collections import defaultdict

import numpy.fft
import scipy.fft

FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn",
    "dct", "idct", "dst", "idst", "dctn", "idctn", "dstn", "idstn",
)

# Manifest kinds the workloads run; each gets a per-kind cli.run time.
KINDS = (
    "mean-odometer", "variance", "charfun", "kernel-decay", "topple",
    "density-probe", "odometer", "idla", "rotor", "point-source", "obstacle-shape",
)

# Metric name -> unit, in the order the benchmark reports them.
PER_LAYER = {
    "sampling.sigma_chunk.s": "s",
    "sampling.sample_sigma.s": "s",
    "sampling.sites": "count",
    "sampling.ns_per_site": "ns",
    "sampling.self_s": "s",
    "fft.s": "s",
    "fft.calls": "count",
    "fft.points": "count",
    "fft.bytes_computed": "B",
    "operators.lr_kernel.s": "s",
    "operators.lr_kernel.calls": "count",
    "operators.solve_poisson.s": "s",
    "operators.eigenvalues.s": "s",
    "operators.self_s": "s",
    "odometer.eta_sample_batch.s": "s",
    "odometer.replicates": "count",
    "odometer.closed_form.s": "s",
    "odometer.self_s": "s",
    "lattice.dft.s": "s",
    "lattice.idft.s": "s",
    "lattice.cell_integral_field.s": "s",
    "lattice.self_s": "s",
    "fieldstats.self_s": "s",
    "toppling.stabilize.s": "s",
    "toppling.stabilize.calls": "count",
    "toppling.steps": "count",
    "toppling.us_per_step": "us",
    "toppling.self_s": "s",
    "growth.idla.s": "s",
    "growth.rotor.s": "s",
    "growth.point_source.s": "s",
    "growth.point_source.steps": "count",
    "growth.obstacle.s": "s",
    "growth.obstacle.iterations": "count",
    "growth.self_s": "s",
    "fieldio.s": "s",
    "fieldio.bytes": "B",
    **{f"cli.run.{kind}.s": "s" for kind in KINDS},
    "cli.run.self_s": "s",
    "cli.criteria_failed": "count",
    "cli.cpu_s": "s",
    "trace.spans": "count",
    "trace.self_s": "s",
    "trace.overhead_frac": "frac",
}


class Tracer:
    """Spans and counts of the wrapped calls made in one process."""

    def __init__(self):
        self.spans = []  # (id, parent id or None, name, start, end, self seconds)
        self.counts = defaultdict(float)
        self._stack = []  # [start, seconds covered by child spans, id]
        self._ids = itertools.count()

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def wrap(self, name, fn, count=None):
        """Timing wrapper around fn; count(counts, args, result, seconds) adds counts."""
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        counts = self.counts
        ids = self._ids

        def traced(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            frame = [clock(), 0.0, next(ids)]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                seconds = end - frame[0]
                if stack:
                    stack[-1][1] += seconds
                spans.append((frame[2], parent, name, frame[0], end, seconds - frame[1]))
            if count is not None:
                count(counts, args, result, seconds)
            return result

        return functools.wraps(fn)(traced)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for _, _, name, _, _, own in self.spans:
            self_s[name] += own
            calls[name] += 1
        layer_s = defaultdict(float)
        for name, own in self_s.items():
            layer_s[name.split(".", 1)[0]] += own
        c = self.counts
        steps = c["toppling.steps"]
        sites = c["sampling.sites"]
        m = {
            "sampling.sigma_chunk.s": self_s["sampling.sigma_chunk"],
            "sampling.sample_sigma.s": self_s["sampling.sample_sigma"],
            "sampling.sites": sites,
            "sampling.ns_per_site": 1e9 * layer_s["sampling"] / sites if sites else 0.0,
            "fft.s": layer_s["fft"],
            "fft.calls": sum(n for name, n in calls.items() if name.startswith("fft.")),
            "fft.points": c["fft.points"],
            "fft.bytes_computed": c["fft.bytes_computed"],
            "operators.lr_kernel.s": self_s["operators.lr_kernel"],
            "operators.lr_kernel.calls": calls["operators.lr_kernel"],
            "operators.solve_poisson.s": self_s["operators.solve_poisson"],
            "operators.eigenvalues.s": self_s["operators.nn_eigenvalues"]
            + self_s["operators.lr_eigenvalues"],
            "odometer.eta_sample_batch.s": self_s["odometer.eta_sample_batch"],
            "odometer.replicates": c["odometer.replicates"],
            "odometer.closed_form.s": sum(
                self_s[f"odometer.{f}"]
                for f in ("eta_field", "odometer_spectral", "obstacle_gamma", "torus_obstacle_odometer")
            ),
            "lattice.dft.s": self_s["lattice.dft"],
            "lattice.idft.s": self_s["lattice.idft"],
            "lattice.cell_integral_field.s": self_s["lattice.cell_integral_field"],
            "fieldstats.self_s": layer_s["fieldstats"],
            "toppling.stabilize.s": self_s["toppling.stabilize"],
            "toppling.stabilize.calls": calls["toppling.stabilize"],
            "toppling.steps": steps,
            "toppling.us_per_step": 1e6 * self_s["toppling.stabilize"] / steps if steps else 0.0,
            "growth.idla.s": self_s["growth.idla_aggregate"],
            "growth.rotor.s": self_s["growth.rotor_router_aggregate"],
            "growth.point_source.s": self_s["growth.point_source_sandpile"],
            "growth.point_source.steps": c["growth.point_source.steps"],
            "growth.obstacle.s": self_s["growth.continuum_obstacle_solve"],
            "growth.obstacle.iterations": c["growth.obstacle.iterations"],
            "fieldio.s": layer_s["fieldio"],
            "fieldio.bytes": c["fieldio.bytes"],
            "cli.run.self_s": layer_s["cli"],
            "cli.criteria_failed": c["cli.criteria_failed"],
            "trace.spans": len(self.spans),
            "trace.self_s": sum(layer_s.values()),
        }
        for layer in ("sampling", "operators", "odometer", "lattice", "toppling", "growth"):
            m[f"{layer}.self_s"] = layer_s[layer]
        for kind in KINDS:
            m[f"cli.run.{kind}.s"] = c[f"cli.run.{kind}.s"]
        return m


def _count_fft(counts, args, result, seconds):
    x = args[0] if args else None
    counts["fft.points"] += getattr(x, "size", 0)
    counts["fft.bytes_computed"] += getattr(x, "nbytes", 0) + getattr(result, "nbytes", 0)


def _count_sites(counts, args, result, seconds):
    counts["sampling.sites"] += getattr(result, "values", result).size


def _count_file(counts, args, result, seconds):
    counts["fieldio.bytes"] += os.path.getsize(args[0])


def _count_run(counts, args, result, seconds):
    counts[f"cli.run.{args[0].kind}.s"] += seconds
    counts["cli.criteria_failed"] += sum(not c.passed for c in result.criteria)


def _add(key, value_of):
    def count(counts, args, result, seconds):
        counts[key] += value_of(result)
    return count


COUNTERS = {
    "sampling.sigma_chunk": _count_sites,
    "sampling.sample_sigma": _count_sites,
    "odometer.eta_sample_batch": _add("odometer.replicates", lambda r: r.shape[0]),
    "toppling.stabilize": _add("toppling.steps", lambda r: r[1].steps),
    "growth.point_source_sandpile": _add("growth.point_source.steps", lambda r: r.steps),
    "growth.continuum_obstacle_solve": _add("growth.obstacle.iterations", lambda r: r.iterations),
    "fieldio.write_field": _count_file,
    "fieldio.write_csv": _count_file,
    "fieldio.heatmap_bytes": _add("fieldio.bytes", len),
    "cli.run": _count_run,
}


def install(tracer: Tracer):
    """Wrap sandlab's public functions and the FFT entry points, in place."""
    import sandlab

    wrappers = {}
    for info in pkgutil.iter_modules(sandlab.__path__):
        if info.name.startswith("_"):
            continue
        mod = importlib.import_module(f"sandlab.{info.name}")
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                span = f"{info.name}.{name}"
                wrappers[obj] = tracer.wrap(span, obj, COUNTERS.get(span))
    for label, ns in (("numpy", numpy.fft), ("scipy", scipy.fft)):
        for name in FFT_NAMES:
            fn = getattr(ns, name, None)
            if fn is not None:
                wrappers[fn] = tracer.wrap(f"fft.{label}.{name}", fn, _count_fft)
    namespaces = [m for n, m in sys.modules.items() if n == "sandlab" or n.startswith("sandlab.")]
    for mod in namespaces + [numpy.fft, scipy.fft]:
        for name, obj in list(vars(mod).items()):
            try:
                wrapper = wrappers.get(obj)
            except TypeError:  # unhashable module attribute
                continue
            if wrapper is not None:
                setattr(mod, name, wrapper)
