"""Command-line front end: manifests, batch runs, snapshots, heatmaps.

A manifest is a flat key-value text file (``key = value`` lines, ``#``
comments).  Values are typed: integers, floats, booleans, bare strings, or
comma-separated lists of these.  ``run`` executes the experiment the manifest
describes, writes CSV tables (and field snapshots or PGM images on request)
into the output directory, and prints one machine-parsable line per
criterion.  Exit codes: 0 all criteria pass, 2 some criterion failed, 1
usage or validation error.

Every output byte is determined by the manifest content and the seed; thread
count never changes results, only wall time.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import math
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._util import parallel_map, thread_count
from .fieldio import (
    format_float,
    heatmap_bytes,
    points_to_csv,
    read_field,
    write_csv,
    write_field,
    write_heatmap,
)
from .fieldstats import (
    ScalingMode,
    covariance_decay_slope,
    mean_odometer_curve,
    mean_odometer_exponent,
    run_charfun_experiment,
    run_variance_experiment,
    variance_structure_curve,
)
from .growth import (
    ball_volume_constant,
    continuum_obstacle_solve,
    idla_aggregate,
    point_source_sandpile,
    rotor_router_aggregate,
    shape_metrics,
)
from .lattice import TorusShape
from .odometer import odometer_spectral, torus_obstacle_odometer
from .operators import OperatorSpec, power_law_multiplier
from .sampling import SigmaSpec, make_initial_config, sample_sigma
from .testfun import TestFunction
from .toppling import SandpileState, density_probe, stabilize

VERSION = "0.1.0"

KINDS = (
    "topple",
    "odometer",
    "variance",
    "charfun",
    "mean-odometer",
    "variance-structure",
    "kernel-decay",
    "idla",
    "rotor",
    "point-source",
    "obstacle-shape",
    "density-probe",
)


class ManifestError(ValueError):
    pass


@dataclass(frozen=True)
class Manifest:
    kind: str
    values: dict


_INT_RE = re.compile(r"[+-]?\d+$")


def _parse_scalar(tok: str):
    tok = tok.strip()
    if tok in ("true", "false"):
        return tok == "true"
    if _INT_RE.match(tok):
        return int(tok)
    try:
        value = float(tok)
    except ValueError:
        return tok
    if not math.isfinite(value):
        raise ManifestError(f"value {tok!r} is not a finite number")
    return value


def _format_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def parse_manifest(text: str) -> Manifest:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ManifestError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if not key or not rhs:
            raise ManifestError(f"line {lineno}: empty key or value")
        if key in values:
            raise ManifestError(f"line {lineno}: duplicate key {key!r}")
        if "," in rhs:
            values[key] = tuple(_parse_scalar(t) for t in rhs.split(","))
        else:
            values[key] = _parse_scalar(rhs)
    kind = values.pop("kind", None)
    if kind is None:
        raise ManifestError("manifest is missing the 'kind' key")
    if kind not in KINDS:
        raise ManifestError(f"unknown experiment kind {kind!r}; expected one of {', '.join(KINDS)}")
    return Manifest(kind, values)


def serialize_manifest(m: Manifest) -> str:
    lines = [f"kind = {m.kind}"]
    for key in sorted(m.values):
        v = m.values[key]
        if isinstance(v, tuple):
            lines.append(f"{key} = {', '.join(_format_scalar(x) for x in v)}")
        else:
            lines.append(f"{key} = {_format_scalar(v)}")
    return "\n".join(lines) + "\n"


def manifest_hash(m: Manifest) -> str:
    return hashlib.sha256(serialize_manifest(m).encode("ascii")).hexdigest()


def load_manifest(path) -> Manifest:
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: manifest must be ASCII ({exc.reason} at byte {exc.start})")
    return parse_manifest(text)


# --- typed key schemas ---------------------------------------------------

@dataclass(frozen=True)
class Key:
    name: str
    typ: str  # int | float | bool | str | ints | floats
    required: bool = False
    default: object = None
    choices: tuple = None


_COMMON = (
    Key("seed", "int", default=0),
    Key("out", "str", default="runs"),
)

_OPERATOR_KEYS = (
    Key("operator", "str", default="nn", choices=("nn", "lr")),
    Key("alpha", "float"),
)

_SIGMA_KEYS = (
    Key("sigma", "str", default="gaussian",
        choices=("gaussian", "uniform", "correlated", "stable", "pareto")),
    Key("stable_alpha", "float"),
    Key("pareto_index", "float"),
    Key("scale", "float", default=1.0),
    Key("delta", "float"),
)

_SCHEMAS = {
    "topple": _COMMON + _OPERATOR_KEYS + _SIGMA_KEYS + (
        Key("d", "int", required=True),
        Key("n", "int", required=True),
        Key("write_fields", "bool", default=True),
        Key("heatmap", "bool", default=False),
    ),
    "odometer": _COMMON + _OPERATOR_KEYS + _SIGMA_KEYS + (
        Key("d", "int", required=True),
        Key("n", "int", required=True),
        Key("write_fields", "bool", default=True),
        Key("heatmap", "bool", default=False),
    ),
    "variance": _COMMON + _OPERATOR_KEYS + (
        Key("sigma", "str", default="gaussian",
            choices=("gaussian", "uniform", "correlated", "stable", "pareto")),
        Key("delta", "float"),
        Key("d", "int", required=True),
        Key("n", "ints", required=True),
        Key("f", "str", required=True),
        Key("f2", "str"),
        Key("samples", "int", required=True),
        Key("tol_flatness", "float", default=0.15),
        Key("tol_agreement", "float", default=0.10),
    ),
    "charfun": _COMMON + (
        Key("d", "int", required=True),
        Key("n", "int", required=True),
        Key("alpha", "float", required=True),
        Key("f", "str", required=True),
        Key("samples", "int", required=True),
        Key("t", "floats", default=(0.5, 1.0, 2.0)),
        Key("quad_points", "int", default=256),
        Key("tol_magnitude", "float", default=0.15),
        Key("tol_doubling", "float", default=0.10),
    ),
    "mean-odometer": _COMMON + _OPERATOR_KEYS + (
        Key("d", "int", required=True),
        Key("n", "ints", required=True),
        Key("samples", "int", required=True),
        Key("slope_tol", "float"),
    ),
    "variance-structure": _COMMON + _OPERATOR_KEYS + (
        Key("d", "int", required=True),
        Key("n", "int", required=True),
        Key("r", "ints", required=True),
        Key("tol", "float", default=0.2),
    ),
    "kernel-decay": _COMMON + _OPERATOR_KEYS + (
        Key("d", "int", required=True),
        Key("n", "int", required=True),
        Key("r", "ints", required=True),
        Key("tol", "float", default=0.3),
    ),
    "idla": _COMMON + (
        Key("particles", "int", required=True),
        Key("d", "int", required=True),
        Key("trials", "int", default=20),
        Key("box", "int"),
        Key("tol_deviation", "float", default=0.15),
        Key("tol_radius", "float", default=0.05),
        Key("heatmap", "bool", default=False),
    ),
    "rotor": _COMMON + (
        Key("particles", "int", required=True),
        Key("d", "int", required=True),
        Key("box", "int"),
        Key("tol_deviation", "float", default=0.05),
        Key("heatmap", "bool", default=False),
    ),
    "point-source": _COMMON + (
        Key("mass", "float", required=True),
        Key("d", "int", required=True),
        Key("tau", "float", default=1e-6),
        Key("box", "int"),
        Key("tol_deviation", "float", default=0.10),
        Key("tol_radius", "float", default=0.05),
        Key("heatmap", "bool", default=False),
    ),
    "obstacle-shape": _COMMON + (
        Key("d", "int", required=True),
        Key("h", "float", required=True),
        Key("box", "float", required=True),
        Key("source", "str", required=True),
        Key("tol_area", "float", default=0.15),
    ),
    "density-probe": _COMMON + (
        Key("d", "int", required=True),
        Key("n", "int", required=True),
        Key("density", "float", required=True),
        Key("trials", "int", default=50),
        Key("expect", "str", default="auto", choices=("auto", "stabilize", "explode", "none")),
    ),
}


def _coerce(key: Key, value):
    def fail(msg):
        raise ManifestError(f"key {key.name!r}: {msg}")

    if key.typ == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            fail(f"expected an integer, got {value!r}")
        return value
    if key.typ == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fail(f"expected a number, got {value!r}")
        return float(value)
    if key.typ == "bool":
        if not isinstance(value, bool):
            fail(f"expected true or false, got {value!r}")
        return value
    if key.typ == "str":
        if not isinstance(value, str):
            fail(f"expected a string, got {value!r}")
        if key.choices and value not in key.choices:
            fail(f"expected one of {', '.join(key.choices)}, got {value!r}")
        return value
    if key.typ == "ints":
        items = value if isinstance(value, tuple) else (value,)
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in items):
            fail(f"expected integers, got {value!r}")
        return tuple(items)
    if key.typ == "floats":
        items = value if isinstance(value, tuple) else (value,)
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in items):
            fail(f"expected numbers, got {value!r}")
        return tuple(float(v) for v in items)
    raise AssertionError(key.typ)


def validate_manifest(m: Manifest) -> dict:
    """Type-check keys, apply defaults, and enforce cross-key compatibility."""
    schema = _SCHEMAS[m.kind]
    by_name = {k.name: k for k in schema}
    unknown = sorted(set(m.values) - set(by_name))
    if unknown:
        raise ManifestError(f"unknown keys for kind {m.kind!r}: {', '.join(unknown)}")
    params = {"kind": m.kind}
    for key in schema:
        if key.name in m.values:
            params[key.name] = _coerce(key, m.values[key.name])
        elif key.required:
            raise ManifestError(f"kind {m.kind!r} requires key {key.name!r}")
        else:
            params[key.name] = key.default
    _cross_validate(params)
    return params


def _cross_validate(p: dict):
    kind = p["kind"]
    if p.get("operator") == "lr" and not p.get("alpha"):
        raise ManifestError("long-range operator needs an 'alpha' key")
    if p.get("operator") == "nn" and p.get("alpha") is not None:
        raise ManifestError("'alpha' only applies to the long-range operator")
    if kind in ("topple", "odometer"):
        _check_sigma_keys(p)
    if kind == "variance":
        if p["sigma"] == "stable":
            raise ManifestError(
                "stable noise has no variance; use the charfun experiment for stable limits"
            )
        if p["sigma"] in ("uniform", "pareto"):
            raise ManifestError("the variance experiment covers the Gaussian regimes only")
        if p["sigma"] == "correlated":
            if p["operator"] != "nn":
                raise ManifestError("correlated noise pairs with the nearest-neighbour operator")
            if p.get("delta") is None:
                raise ManifestError("correlated noise needs the spectral decay key 'delta'")
        if len(p["n"]) < 2:
            raise ManifestError("the variance experiment needs at least two sizes")
    if kind == "charfun" and not (0 < p["alpha"] < 2):
        raise ManifestError("charfun needs a stable index alpha in (0, 2)")
    if kind == "mean-odometer" and len(p["n"]) < 2:
        raise ManifestError("the mean-odometer curve needs at least two sizes")
    if kind in ("variance-structure", "kernel-decay") and len(p["r"]) < 2:
        raise ManifestError("need at least two separations to fit a slope")
    if kind == "obstacle-shape":
        _parse_obstacle_source(p["source"])  # raises on malformed text
    if kind == "density-probe" and p["trials"] < 1:
        raise ManifestError("density-probe needs at least one trial")


def _check_sigma_keys(p: dict):
    sigma = p["sigma"]
    if sigma == "stable" and not (p.get("stable_alpha") and 0 < p["stable_alpha"] <= 2):
        raise ManifestError("stable noise needs 'stable_alpha' in (0, 2]")
    if sigma == "pareto" and not (p.get("pareto_index") and p["pareto_index"] > 0):
        raise ManifestError("pareto noise needs a positive 'pareto_index'")
    if sigma == "correlated" and p.get("delta") is None:
        raise ManifestError("correlated noise needs the spectral decay key 'delta'")


def parse_test_function(text: str, d: int) -> TestFunction:
    """Parse 'cos 1 0' or 'sin 2 1' with an optional trailing amplitude.

    The wave vector must have exactly d integer components; a final
    non-integer token scales the mode.
    """
    tokens = text.split()
    if not tokens or tokens[0] not in ("cos", "sin"):
        raise ManifestError(f"test function must start with cos or sin, got {text!r}")
    rest = tokens[1:]
    amplitude = 1.0
    if len(rest) == d + 1:
        amplitude = float(rest[-1])
        rest = rest[:-1]
    if len(rest) != d:
        raise ManifestError(f"test function {text!r} needs {d} integer frequencies")
    try:
        wave = tuple(int(t) for t in rest)
    except ValueError:
        raise ManifestError(f"test function {text!r} has non-integer frequencies")
    if all(w == 0 for w in wave):
        raise ManifestError("test function frequency must be nonzero")
    factory = TestFunction.cosine if tokens[0] == "cos" else TestFunction.sine
    return factory(wave, amplitude)


def _operator(p: dict, shape: TorusShape) -> OperatorSpec:
    if p["operator"] == "nn":
        return OperatorSpec.nearest_neighbour(shape)
    return OperatorSpec.long_range(shape, p["alpha"])


def _sigma_spec(p: dict, shape: TorusShape) -> SigmaSpec:
    sigma = p["sigma"]
    if sigma == "gaussian":
        return SigmaSpec.iid_gaussian()
    if sigma == "uniform":
        return SigmaSpec.iid_uniform()
    if sigma == "stable":
        return SigmaSpec.stable(p["stable_alpha"], p.get("scale", 1.0))
    if sigma == "pareto":
        return SigmaSpec.pareto(p["pareto_index"])
    khat = power_law_multiplier(shape, -4.0 * p["delta"], at_zero=1.0)
    return SigmaSpec.correlated_gaussian(khat)


# --- run records ---------------------------------------------------------

@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class RunRecord:
    manifest_sha: str
    version: str
    wall_seconds: float
    outputs: tuple
    criteria: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.criteria)


def _write_summary(outdir: Path, sha: str, criteria, outputs) -> Path:
    lines = [f"manifest-sha256 = {sha}", f"version = {VERSION}"]
    for c in criteria:
        lines.append(f"criterion {c.name} = {'pass' if c.passed else 'fail'} ({c.detail})")
    for name in outputs:
        lines.append(f"output = {name}")
    path = outdir / "summary.txt"
    path.write_bytes(("\n".join(lines) + "\n").encode("ascii"))
    return path


# --- runners -------------------------------------------------------------

def _run_topple(p, outdir, workers):
    shape = TorusShape(p["d"], p["n"])
    op = _operator(p, shape)
    sigma = sample_sigma(_sigma_spec(p, shape), shape, p["seed"])
    config = make_initial_config(sigma)
    mass_before = float(config.values.sum())
    final, report = stabilize(SandpileState.initial(op, config))
    mass_after = float(final.s.values.sum())
    drift = abs(mass_after - mass_before) / mass_before
    outputs = []
    write_csv(outdir / "topple.csv",
              ["status", "steps", "max_excess", "total_excess", "mass_before", "mass_after"],
              [[report.status, report.steps, report.max_excess, report.total_excess,
                mass_before, mass_after]])
    outputs.append("topple.csv")
    if p["write_fields"]:
        write_field(outdir / "odometer.dsf1", final.u)
        write_field(outdir / "config_final.dsf1", final.s)
        outputs += ["odometer.dsf1", "config_final.dsf1"]
    if p["heatmap"] and shape.d == 2:
        write_heatmap(outdir / "odometer.pgm", final.u)
        outputs.append("odometer.pgm")
    criteria = [
        CriterionResult("stabilized", report.status == "stabilized",
                        f"status={report.status} steps={report.steps}"),
        CriterionResult("mass-conserved", drift <= 1e-10,
                        f"relative drift={drift:.3e}"),
    ]
    return criteria, outputs


def _run_odometer(p, outdir, workers):
    shape = TorusShape(p["d"], p["n"])
    op = _operator(p, shape)
    sigma = sample_sigma(_sigma_spec(p, shape), shape, p["seed"])
    config = make_initial_config(sigma)
    u_direct = odometer_spectral(config, op)
    u_obstacle = torus_obstacle_odometer(config, op)
    gap = float(np.max(np.abs(u_direct.values - u_obstacle.values)))
    outputs = []
    write_csv(outdir / "odometer.csv",
              ["max_u", "mean_u", "obstacle_gap"],
              [[float(u_direct.values.max()), float(u_direct.values.mean()), gap]])
    outputs.append("odometer.csv")
    if p["write_fields"]:
        write_field(outdir / "odometer.dsf1", u_direct)
        outputs.append("odometer.dsf1")
    if p["heatmap"] and shape.d == 2:
        write_heatmap(outdir / "odometer.pgm", u_direct)
        outputs.append("odometer.pgm")
    criteria = [CriterionResult("obstacle-identity", gap <= 1e-12, f"gap={gap:.3e}")]
    return criteria, outputs


def _variance_mode(p) -> ScalingMode:
    if p["operator"] == "lr":
        return ScalingMode("lr-ind", alpha=p["alpha"])
    if p["sigma"] == "correlated":
        return ScalingMode("nn-cor", delta=p["delta"])
    return ScalingMode("nn-ind")


def _run_variance(p, outdir, workers):
    mode = _variance_mode(p)
    f = parse_test_function(p["f"], p["d"])
    exp = run_variance_experiment(mode, f, p["n"], p["samples"], p["seed"], workers=workers)
    rows = [[r.n, r.variance.point, r.variance.stderr, exp.limit, r.ratio, r.exact_ratio]
            for r in exp.rows]
    write_csv(outdir / "variance.csv",
              ["n", "estimate", "stderr", "target", "ratio", "exact_ratio"], rows)
    outputs = ["variance.csv"]
    flat = exp.ratio_flatness()
    criteria = [CriterionResult("ratio-flat", flat <= p["tol_flatness"],
                                f"max deviation={flat:.4f} tol={p['tol_flatness']}")]
    if p["f2"]:
        f2 = parse_test_function(p["f2"], p["d"])
        n_top = max(p["n"])
        exp2 = run_variance_experiment(mode, f2, [n_top], p["samples"], p["seed"], workers=workers)
        r1 = next(r.ratio for r in exp.rows if r.n == n_top)
        r2 = exp2.rows[0].ratio
        gap = abs(r1 - r2) / r1
        write_csv(outdir / "variance_f2.csv",
                  ["n", "estimate", "stderr", "target", "ratio", "exact_ratio"],
                  [[exp2.rows[0].n, exp2.rows[0].variance.point, exp2.rows[0].variance.stderr,
                    exp2.limit, exp2.rows[0].ratio, exp2.rows[0].exact_ratio]])
        outputs.append("variance_f2.csv")
        criteria.append(CriterionResult("f-agreement", gap <= p["tol_agreement"],
                                        f"relative gap={gap:.4f} tol={p['tol_agreement']}"))
    return criteria, outputs


def _run_charfun(p, outdir, workers):
    shape = TorusShape(p["d"], p["n"])
    f = parse_test_function(p["f"], p["d"])
    base = run_charfun_experiment(p["alpha"], f, shape, p["samples"], p["seed"],
                                  ts=p["t"], quad_points=p["quad_points"])
    doubled = run_charfun_experiment(p["alpha"], f.scaled(2.0), shape, p["samples"], p["seed"],
                                     ts=p["t"], quad_points=p["quad_points"])
    rows = []
    for r, r2 in zip(base.rows, doubled.rows):
        rows.append([r.t, r.cf_abs, r.stderr, r.measured_exponent, r.exact_exponent,
                     r.target_exponent, r2.measured_exponent])
    write_csv(outdir / "charfun.csv",
              ["t", "cf_abs", "stderr", "log_cf", "exact", "target", "log_cf_doubled"], rows)
    magnitude_ok = True
    details = []
    for r in base.rows:
        se_log = r.stderr / max(r.cf_abs, 1e-300)
        bound = p["tol_magnitude"] * r.target_exponent + 3.0 * se_log
        err = abs(r.measured_exponent - r.target_exponent)
        magnitude_ok &= err <= bound
        details.append(f"t={r.t:g} err={err:.4f} bound={bound:.4f}")
    scale_factor = 2.0 ** p["alpha"]
    try:
        ratio = doubled.fitted_scale() / base.fitted_scale()
        doubling_ok = abs(ratio - scale_factor) / scale_factor <= p["tol_doubling"]
        doubling_detail = f"fitted ratio={ratio:.4f} target={scale_factor:g} tol={p['tol_doubling']}"
    except ValueError as exc:
        doubling_ok = False
        doubling_detail = str(exc)
    criteria = [
        CriterionResult("cf-magnitude", magnitude_ok, "; ".join(details)),
        CriterionResult("cf-doubling", doubling_ok, doubling_detail),
    ]
    return criteria, ["charfun.csv"]


def _run_mean_odometer(p, outdir, workers):
    kind = p["operator"]
    curve = mean_odometer_curve(kind, p["d"], p["n"], p["samples"], p["seed"],
                                alpha=p.get("alpha"), workers=workers)
    rows = [[r.n, r.value.point, r.value.stderr, pred]
            for r, pred in zip(curve.rows, curve.predicted_values)]
    write_csv(outdir / "mean_odometer.csv", ["n", "estimate", "stderr", "prediction"], rows)
    expected = mean_odometer_exponent(kind, p["d"], p.get("alpha"))
    if expected is None:
        criteria = [CriterionResult("slope", True,
                                    f"fitted={curve.slope:.4f}; logarithmic regime, no power law asserted")]
    else:
        tol = p["slope_tol"]
        if tol is None:
            tol = 0.1 if (kind == "lr" or p["d"] >= 3) else 0.15
        criteria = [CriterionResult("slope", abs(curve.slope - expected) <= tol,
                                    f"fitted={curve.slope:.4f} expected={expected:g} tol={tol}")]
    return criteria, ["mean_odometer.csv"]


def _run_variance_structure(p, outdir, workers):
    curve = variance_structure_curve(p["operator"], p["d"], p["n"], p["r"], alpha=p.get("alpha"))
    rows = [[r, v] for r, v in zip(curve.rs, curve.values)]
    write_csv(outdir / "variance_structure.csv", ["r", "increment_variance"], rows)
    gap = abs(curve.slope - curve.target_slope)
    criteria = [CriterionResult("structure-exponent", gap <= p["tol"],
                                f"fitted={curve.slope:.4f} target={curve.target_slope:.4f} tol={p['tol']}")]
    return criteria, ["variance_structure.csv"]


def _run_kernel_decay(p, outdir, workers):
    result = covariance_decay_slope(p["operator"], p["d"], p["n"], p["r"], alpha=p.get("alpha"))
    if not result.valid and result.predicted_slope is None:
        write_csv(outdir / "kernel_decay.csv", ["r", "covariance"], [])
        criteria = [CriterionResult("decay-regime-flag", True, result.reason)]
        return criteria, ["kernel_decay.csv"]
    rows = [[r, v] for r, v in zip(p["r"], result.values)]
    write_csv(outdir / "kernel_decay.csv", ["r", "covariance"], rows)
    if not result.valid:
        criteria = [CriterionResult("decay-slope", False, result.reason)]
    else:
        gap = abs(result.slope - result.predicted_slope)
        criteria = [CriterionResult("decay-slope", gap <= p["tol"],
                                    f"fitted={result.slope:.4f} predicted={result.predicted_slope:g} tol={p['tol']}")]
    return criteria, ["kernel_decay.csv"]


def _run_idla(p, outdir, workers):
    predicted = (p["particles"] / ball_volume_constant(p["d"])) ** (1.0 / p["d"])

    def one(i):
        agg = idla_aggregate(p["particles"], p["d"], seed=p["seed"] + i, box_radius=p["box"])
        return shape_metrics(agg, predicted), agg

    results = parallel_map(one, range(p["trials"]), workers)
    rows = []
    for i, (m, _) in enumerate(results):
        rows.append([p["seed"] + i, m.volume, m.inradius, m.outradius, m.ball_deviation])
    write_csv(outdir / "idla.csv", ["seed", "volume", "inradius", "outradius", "deviation"], rows)
    outputs = ["idla.csv"]
    if p["heatmap"] and p["d"] == 2:
        (outdir / "idla.pgm").write_bytes(
            heatmap_bytes(results[0][1].occupied.astype(np.float64)))
        outputs.append("idla.pgm")
    mean_dev = float(np.mean([m.ball_deviation for m, _ in results]))
    mean_radius = float(np.mean([(m.inradius + m.outradius) / 2.0 for m, _ in results]))
    radius_err = abs(mean_radius - predicted) / predicted
    criteria = [
        CriterionResult("ball-deviation", mean_dev <= p["tol_deviation"],
                        f"mean deviation={mean_dev:.4f} tol={p['tol_deviation']}"),
        CriterionResult("radius", radius_err <= p["tol_radius"],
                        f"mean radius={mean_radius:.3f} predicted={predicted:.3f} err={radius_err:.4f}"),
    ]
    return criteria, outputs


def _run_rotor(p, outdir, workers):
    predicted = (p["particles"] / ball_volume_constant(p["d"])) ** (1.0 / p["d"])
    agg = rotor_router_aggregate(p["particles"], p["d"], box_radius=p["box"])
    m = shape_metrics(agg, predicted)
    write_csv(outdir / "rotor.csv", ["volume", "inradius", "outradius", "deviation"],
              [[m.volume, m.inradius, m.outradius, m.ball_deviation]])
    points_to_csv(outdir / "rotor_points.csv", agg.points())
    outputs = ["rotor.csv", "rotor_points.csv"]
    if p["heatmap"] and p["d"] == 2:
        (outdir / "rotor.pgm").write_bytes(heatmap_bytes(agg.occupied.astype(np.float64)))
        outputs.append("rotor.pgm")
    criteria = [CriterionResult("ball-deviation", m.ball_deviation <= p["tol_deviation"],
                                f"deviation={m.ball_deviation:.4f} tol={p['tol_deviation']}")]
    return criteria, outputs


def _run_point_source(p, outdir, workers):
    predicted = (p["mass"] / ball_volume_constant(p["d"])) ** (1.0 / p["d"])
    result = point_source_sandpile(p["mass"], p["d"], box_radius=p["box"], tol=p["tau"])
    outputs = []
    if result.aggregate.count == 0:
        write_csv(outdir / "point_source.csv",
                  ["volume", "inradius", "outradius", "deviation", "steps"],
                  [[0, 0.0, 0.0, 0.0, result.steps]])
        criteria = [CriterionResult("ball-deviation", p["mass"] <= 1.0,
                                    "no site toppled; mass fits in one cell")]
        return criteria, ["point_source.csv"]
    m = shape_metrics(result.aggregate, predicted)
    write_csv(outdir / "point_source.csv",
              ["volume", "inradius", "outradius", "deviation", "steps"],
              [[m.volume, m.inradius, m.outradius, m.ball_deviation, result.steps]])
    outputs.append("point_source.csv")
    if p["heatmap"] and p["d"] == 2:
        (outdir / "point_source.pgm").write_bytes(heatmap_bytes(result.odometer))
        outputs.append("point_source.pgm")
    radius = (m.inradius + m.outradius) / 2.0
    radius_err = abs(radius - predicted) / predicted
    criteria = [
        CriterionResult("ball-deviation", m.ball_deviation <= p["tol_deviation"],
                        f"deviation={m.ball_deviation:.4f} tol={p['tol_deviation']}"),
        CriterionResult("radius", radius_err <= p["tol_radius"],
                        f"radius={radius:.3f} predicted={predicted:.3f} err={radius_err:.4f}"),
    ]
    return criteria, outputs


def _parse_obstacle_source(text: str):
    tokens = text.split()
    if tokens and tokens[0] == "point" and len(tokens) == 2:
        return ("point", float(tokens[1]))
    if tokens and tokens[0] == "ball" and len(tokens) == 3:
        return ("ball", float(tokens[1]), float(tokens[2]))
    raise ManifestError(
        f"source {text!r} not understood; use 'point <mass>' or 'ball <radius> <height>'"
    )


def _run_obstacle_shape(p, outdir, workers):
    source_spec = _parse_obstacle_source(p["source"])
    h = p["h"]
    d = p["d"]
    cells = int(round(p["box"] / h))
    side = 2 * cells + 1
    axis = (np.arange(side) - cells) * h
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    norm2 = sum(m * m for m in mesh)
    source = np.zeros((side,) * d)
    if source_spec[0] == "point":
        mass = source_spec[1]
        source[(cells,) * d] = mass / h**d
        target_area = mass
        ball_mask = np.zeros_like(source, dtype=bool)
    else:
        _, radius, height = source_spec
        ball_mask = norm2 <= radius * radius
        source[ball_mask] = height
        target_area = height * float(ball_mask.sum()) * h**d
    sol = continuum_obstacle_solve(source, h)
    covered = sol.occupied | ball_mask
    area = float(covered.sum()) * h**d
    area_err = abs(area - target_area) / target_area
    symmetric = True
    for perm, signs in _signed_symmetries(d):
        if not np.array_equal(_symmetry_image(source, perm, signs), source):
            continue  # only symmetries that fix the source constrain the shape
        if not np.array_equal(_symmetry_image(sol.occupied, perm, signs), sol.occupied):
            symmetric = False
    write_csv(outdir / "obstacle.csv",
              ["area", "target_area", "iterations", "residual"],
              [[area, target_area, sol.iterations, sol.residual]])
    criteria = [
        CriterionResult("area", area_err <= p["tol_area"],
                        f"area={area:.4f} target={target_area:.4f} err={area_err:.4f}"),
        CriterionResult("symmetry", symmetric, "occupied set equals all its lattice-symmetry images"),
    ]
    return criteria, ["obstacle.csv"]


def _signed_symmetries(d: int):
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1, -1), repeat=d):
            if perm == tuple(range(d)) and all(s > 0 for s in signs):
                continue
            yield perm, signs


def _symmetry_image(arr: np.ndarray, perm, signs) -> np.ndarray:
    out = np.transpose(arr, perm)
    for ax, sg in enumerate(signs):
        if sg < 0:
            out = np.flip(out, axis=ax)
    return out


def _run_density_probe(p, outdir, workers):
    shape = TorusShape(p["d"], p["n"])
    result = density_probe(p["density"], shape, trials=p["trials"], seed=p["seed"])
    write_csv(outdir / "density_probe.csv",
              ["density", "trials", "fraction_stabilized", "mean_odometer"],
              [[result.density, result.trials, result.fraction_stabilized, result.mean_odometer]])
    expect = p["expect"]
    if expect == "auto":
        expect = "stabilize" if p["density"] < 1.0 else ("explode" if p["density"] > 1.0 else "none")
    if expect == "stabilize":
        ok = result.fraction_stabilized == 1.0
        detail = f"stabilized fraction={result.fraction_stabilized:g} (expected 1)"
    elif expect == "explode":
        ok = result.fraction_stabilized == 0.0
        detail = f"stabilized fraction={result.fraction_stabilized:g} (expected 0)"
    else:
        ok = True
        detail = f"stabilized fraction={result.fraction_stabilized:g} (no expectation)"
    return [CriterionResult("dichotomy", ok, detail)], ["density_probe.csv"]


_RUNNERS = {
    "topple": _run_topple,
    "odometer": _run_odometer,
    "variance": _run_variance,
    "charfun": _run_charfun,
    "mean-odometer": _run_mean_odometer,
    "variance-structure": _run_variance_structure,
    "kernel-decay": _run_kernel_decay,
    "idla": _run_idla,
    "rotor": _run_rotor,
    "point-source": _run_point_source,
    "obstacle-shape": _run_obstacle_shape,
    "density-probe": _run_density_probe,
}


def run(manifest: Manifest, outdir=None, workers: int = 1) -> RunRecord:
    """Execute a validated manifest and write its outputs."""
    params = validate_manifest(manifest)
    out = Path(outdir if outdir is not None else params["out"])
    out.mkdir(parents=True, exist_ok=True)
    sha = manifest_hash(manifest)
    started = time.monotonic()
    criteria, outputs = _RUNNERS[manifest.kind](params, out, workers)
    _write_summary(out, sha, criteria, outputs)
    wall = time.monotonic() - started
    return RunRecord(sha, VERSION, wall, tuple(outputs) + ("summary.txt",), tuple(criteria))


# --- entry point ---------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sandlab",
        description="divisible sandpile laboratory: experiments, snapshots, heatmaps",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute an experiment manifest")
    p_run.add_argument("manifest")
    p_run.add_argument("--out", default=None, help="override the manifest's output directory")
    p_run.add_argument("--single-thread", action="store_true",
                       help="force serial execution (bit-reproducibility audits)")

    p_val = sub.add_parser("validate", help="check a manifest without running it")
    p_val.add_argument("manifest")

    p_heat = sub.add_parser("heatmap", help="render a d=2 field snapshot to PGM")
    p_heat.add_argument("field")
    p_heat.add_argument("out")

    p_info = sub.add_parser("info", help="describe a field snapshot")
    p_info.add_argument("field")

    args = parser.parse_args(argv)

    if args.verb == "validate":
        try:
            manifest = load_manifest(args.manifest)
            validate_manifest(manifest)
        except (OSError, ManifestError) as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return 1
        print(f"ok: kind={manifest.kind} sha256={manifest_hash(manifest)}")
        return 0

    if args.verb == "heatmap":
        try:
            field = read_field(args.field)
            write_heatmap(args.out, field)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {args.out}")
        return 0

    if args.verb == "info":
        try:
            field = read_field(args.field)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        v = field.values
        payload = hashlib.sha256(np.ascontiguousarray(v, dtype="<f8").tobytes()).hexdigest()
        print(f"d = {field.shape.d}")
        print(f"n = {field.shape.n}")
        print(f"min = {format_float(float(v.min()))}")
        print(f"max = {format_float(float(v.max()))}")
        print(f"mean = {format_float(float(v.mean()))}")
        print(f"sha256 = {payload}")
        return 0

    # run
    try:
        manifest = load_manifest(args.manifest)
        workers = 1 if args.single_thread else thread_count(None)
        record = run(manifest, outdir=args.out, workers=workers)
    except (OSError, ManifestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for c in record.criteria:
        print(f"criterion {c.name} = {'pass' if c.passed else 'fail'} ({c.detail})")
    print(f"manifest-sha256 = {record.manifest_sha}")
    print(f"wall-seconds = {record.wall_seconds:.3f}")
    return 0 if record.ok else 2


if __name__ == "__main__":
    sys.exit(main())
