"""Command-line front end: manifests, batch runs, snapshots, heatmaps.

A manifest is a flat key-value text file (``key = value`` lines, ``#``
comments).  Values are typed: integers, floats, booleans, bare strings, or
comma-separated lists of these.  ``run`` executes the experiment the manifest
describes and prints one machine-parsable line per criterion.  Only once the
experiment has finished does it create the output directory and write the
CSV tables (and field snapshots or PGM images on request) into it, so a run
that exits 1 leaves no output directory.  Exit codes: 0 all criteria pass,
2 some criterion failed, 1 a bad command line, manifest or file, or a failed
experiment.  Every exit 1 prints one line on standard error, ``invalid: ...``
from ``validate`` and ``error: ...`` from ``run``, ``heatmap``, ``info`` and
a usage error, and never a traceback.

Every output byte is determined by the manifest content and the seed.

This module holds the four growth kinds, which need numpy alone.  The eight
torus kinds live in ``torus_kinds``; ``validate_manifest`` imports it, and
with it scipy, the first time it meets one.  So a process that runs only
growth kinds never loads scipy, and a timed ``run`` imports nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._util import axis_sum
from .fieldio import (
    format_cell,
    format_float,
    heatmap_bytes,
    read_field,
    write_csv,
    write_field,
    write_heatmap,
)
from .growth import (
    continuum_obstacle_solve,
    idla_aggregate,
    point_source_sandpile,
    predicted_radius,
    rotor_router_aggregate,
    shape_metrics,
)
from .testfun import TestFunction

VERSION = "0.1.0"


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


def parse_manifest(text: str) -> Manifest:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ManifestError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key, rhs = key.strip(), rhs.strip()
        if not key or not rhs:
            raise ManifestError(f"line {lineno}: empty key or value")
        if key in values:
            raise ManifestError(f"line {lineno}: duplicate key {key!r}")
        values[key] = tuple(map(_parse_scalar, rhs.split(","))) if "," in rhs else _parse_scalar(rhs)
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
        lines.append(f"{key} = {', '.join(map(format_cell, v if isinstance(v, tuple) else (v,)))}")
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
    """One manifest key: its type, default, choices, range and owner.

    ``bound`` is written as in the README: ``>= 1``, ``> 0`` or an interval
    such as ``(0, 2]``.  A list key writes ``len >= k, each <bound>``: at
    least k entries, each within the bound; ``len >= k, distinct, each
    <bound>`` also asks for no entry to repeat.  ``regime`` names the ``sigma``
    value that owns a noise key; under any other regime the key is rejected,
    under its own it is required or defaulted.  A schema lists ``sigma``
    before the keys it owns.
    """
    name: str
    typ: str  # int | float | bool | str | ints | floats
    required: bool = False
    default: object = None
    choices: tuple = None
    bound: str = None
    regime: str = None


def _within(bound: str, x) -> bool:
    """Whether x satisfies one bound: ``> a``, ``>= a`` or an interval."""
    if bound[0] in "([":
        lo, hi = (float(v) for v in bound[1:-1].split(","))
        return (lo < x if bound[0] == "(" else lo <= x) and (x < hi if bound[-1] == ")" else x <= hi)
    op, limit = bound.split()
    return x > float(limit) if op == ">" else x >= float(limit)


# Keys that several kinds share, declared once.
_D = Key("d", "int", required=True, bound=">= 1")
_BOX = Key("box", "int", bound=">= 1")
_HEATMAP = Key("heatmap", "bool", default=False)

_COMMON = (
    Key("seed", "int", default=0, bound=">= 0"),
    Key("out", "str", default="runs"),
)

# Every kind, in the order error messages list them.  The growth kinds
# register below; the torus kinds register in torus_kinds, which
# validate_manifest imports the first time it meets one.
KINDS = ("topple", "odometer", "variance", "charfun", "mean-odometer", "variance-structure",
         "kernel-decay", "idla", "rotor", "point-source", "obstacle-shape", "density-probe")

# kind -> (schema, runner) of every kind registered so far
_EXPERIMENTS = {}


def _experiment(kind: str, *keys: Key):
    """Register a runner for kind; its schema is _COMMON plus keys."""
    def register(runner):
        _EXPERIMENTS[kind] = (_COMMON + keys, runner)
        return runner
    return register


# scalar type -> (check, what one value is expected to be, what a list of them is)
_TYPES = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer", "integers"),
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number", "numbers"),
    "bool": (lambda v: isinstance(v, bool), "true or false", None),
    "str": (lambda v: isinstance(v, str), "a string", None),
}


def _coerce(key: Key, value):
    """value checked against key.typ; a list type (``ints``, ``floats``)
    checks each entry with its scalar type and takes a scalar as one entry."""
    listed = key.typ in ("ints", "floats")
    check, one, many = _TYPES[key.typ[:-1] if listed else key.typ]
    items = value if listed and isinstance(value, tuple) else (value,)
    if not all(map(check, items)):
        raise ManifestError(f"key {key.name!r}: expected {many if listed else one}, got {value!r}")
    if key.choices and value not in key.choices:
        raise ManifestError(f"key {key.name!r}: expected one of {', '.join(key.choices)}, got {value!r}")
    if key.typ.startswith("float"):
        items = tuple(map(float, items))
    return tuple(items) if listed else items[0]


def _split_bound(key: Key):
    """(least, distinct, bound): a list key's minimum length (None for a
    scalar), whether its entries must differ, and its per-entry bound."""
    head, _, bound = key.bound.rpartition("each ")
    least = head.removeprefix("len >= ").split(",")[0]
    return (int(least) if head else None), "distinct" in head, bound


def _check_bound(key: Key, value):
    """Return value if it lies within key.bound, entry by entry for a list."""
    if key.bound is None:
        return value
    least, distinct, bound = _split_bound(key)
    items, each = (value,), ""
    if least is not None:
        if len(value) < least:
            raise ManifestError(f"key {key.name!r}: expected at least {least} entries, got {len(value)}")
        if distinct and len(set(value)) < len(value):
            raise ManifestError(f"key {key.name!r}: expected distinct entries, got {value!r}")
        items, each = value, "each "
    if not all(_within(bound, v) for v in items):
        where = "in " if bound[0] in "([" else ""
        raise ManifestError(f"key {key.name!r}: expected {each}{key.name} {where}{bound}, got {value!r}")
    return value


def validate_manifest(m: Manifest) -> dict:
    """Type-check keys against the schema, apply defaults, then cross-key rules."""
    if m.kind not in _EXPERIMENTS:
        from . import torus_kinds  # noqa: F401  registers the torus kinds, loading scipy
    schema, _ = _EXPERIMENTS[m.kind]
    by_name = {k.name: k for k in schema}
    unknown = sorted(set(m.values) - set(by_name))
    if unknown:
        raise ManifestError(f"unknown keys for kind {m.kind!r}: {', '.join(unknown)}")
    params = {"kind": m.kind}
    for key in schema:
        owned = key.regime is None or params["sigma"] == key.regime
        if key.name in m.values:
            if not owned:
                raise ManifestError(
                    f"key {key.name!r} only applies to sigma = {key.regime}, not {params['sigma']}"
                )
            params[key.name] = _check_bound(key, _coerce(key, m.values[key.name]))
        elif key.required and owned:
            owner = f"sigma = {key.regime}" if key.regime else f"kind {m.kind!r}"
            raise ManifestError(f"{owner} requires key {key.name!r}")
        else:
            params[key.name] = key.default if owned else None
    _cross_validate(params)
    return params


def _cross_validate(p: dict):
    """Rules that relate two keys, and the obstacle source text; one-key rules live in Key."""
    if p.get("operator") == "lr" and p["alpha"] is None:
        raise ManifestError("long-range operator needs an 'alpha' key")
    if p.get("operator") == "nn" and p["alpha"] is not None:
        raise ManifestError("'alpha' only applies to the long-range operator")
    if p["kind"] == "variance" and p["sigma"] == "correlated" and p["operator"] != "nn":
        raise ManifestError("correlated noise pairs with the nearest-neighbour operator")
    if p.get("heatmap") and p["d"] != 2:
        raise ManifestError(f"key 'heatmap' needs d = 2, got d = {p['d']}")
    if p.get("slope_tol") is not None:
        from .fieldstats import mean_odometer_exponent  # loaded with the torus kinds

        if mean_odometer_exponent(p["operator"], p["d"], p["alpha"]) is None:
            raise ManifestError(f"key 'slope_tol' does not apply: the {p['operator']} mean odometer "
                                f"at d = {p['d']} is in a logarithmic regime, with no slope to check")
    if "f" in p:  # f pairs at every size, f2 at the largest
        sizes = p["n"] if isinstance(p["n"], tuple) else (p["n"],)
        for name, paired in (("f", sizes), ("f2", (max(sizes),))):
            if p.get(name) is None:
                continue
            wave, _, sine = parse_test_function(p[name], p["d"]).modes[0]
            # on the n lattice a sine with every 2k = 0 mod n is zero, a cosine with every k = 0 mod n is constant
            step = 2 if sine else 1
            for n in paired:
                if all(step * k % n == 0 for k in wave):
                    raise ManifestError(f"key {name!r}: {p[name]!r} is {'zero' if sine else 'constant'} "
                                        f"on the n = {n} lattice, so its pairing carries no signal")
    if "source" in p:
        _parse_obstacle_source(p["source"])


def parse_test_function(text: str, d: int) -> TestFunction:
    """Parse 'cos 1 0' or 'sin 2 1' with an optional trailing amplitude.

    The wave vector must have exactly d integer components; a final extra
    token is an amplitude, of magnitude 1e-100 to 1e100, that scales the mode.
    """
    tokens = text.split()
    if not tokens or tokens[0] not in ("cos", "sin"):
        raise ManifestError(f"test function must start with cos or sin, got {text!r}")
    rest = tokens[1:]
    if len(rest) not in (d, d + 1):
        raise ManifestError(f"test function {text!r} needs {d} integer frequencies")
    try:
        wave = tuple(int(t) for t in rest[:d])
        amplitude = float(rest[d]) if len(rest) > d else 1.0
    except ValueError:
        raise ManifestError(f"test function {text!r} has non-integer frequencies or a non-numeric amplitude")
    if all(w == 0 for w in wave):
        raise ManifestError("test function frequency must be nonzero")
    if not 1e-100 <= abs(amplitude) <= 1e100:  # beyond, the pairing variance leaves float range
        raise ManifestError(f"test function {text!r} needs an amplitude of magnitude in [1e-100, 1e100]")
    factory = TestFunction.cosine if tokens[0] == "cos" else TestFunction.sine
    return factory(wave, amplitude)


# --- run records ---------------------------------------------------------

@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"criterion {self.name} = {'pass' if self.passed else 'fail'} ({self.detail})"


def _within_tol(name: str, label: str, value: float, tol: float) -> CriterionResult:
    """Pass when value <= tol; the detail reads ``<label>=<value> tol=<tol>``."""
    return CriterionResult(name, value <= tol, f"{label}={value:.4f} tol={tol}")


def _growth_criteria(p, metrics, predicted: float, mean: str = "") -> list:
    """ball-deviation, and radius where the kind has tol_radius, over the
    mean of one or more aggregates' ShapeMetrics; ``mean`` prefixes the labels."""
    deviation = float(np.mean([m.ball_deviation for m in metrics]))
    criteria = [_within_tol("ball-deviation", f"{mean}deviation", deviation, p["tol_deviation"])]
    if "tol_radius" in p:
        radius = float(np.mean([(m.inradius + m.outradius) / 2.0 for m in metrics]))
        err = abs(radius - predicted) / predicted
        criteria.append(CriterionResult("radius", err <= p["tol_radius"],
                                        f"{mean}radius={radius:.3f} predicted={predicted:.3f} err={err:.4f}"))
    return criteria


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


def _write_outputs(outdir: Path, sha: str, criteria, artifacts: dict):
    """Write every artifact, in order, then a summary.txt that lists them.

    The file suffix picks the format: ``.csv`` takes a (header, rows) pair,
    ``.dsf1`` a LatticeField and ``.pgm`` a 2d array.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    for name, payload in artifacts.items():
        path = outdir / name
        if path.suffix == ".csv":
            write_csv(path, *payload)
        elif path.suffix == ".dsf1":
            write_field(path, payload)
        elif path.suffix == ".pgm":
            path.write_bytes(heatmap_bytes(np.asarray(payload, dtype=np.float64)))
        else:
            raise AssertionError(f"no writer for artifact {name!r}")
    lines = [f"manifest-sha256 = {sha}", f"version = {VERSION}"]
    lines += [c.line() for c in criteria]
    lines += [f"output = {name}" for name in artifacts]
    (outdir / "summary.txt").write_bytes(("\n".join(lines) + "\n").encode("ascii"))


# --- runners -------------------------------------------------------------
#
# Each runner returns (criteria, artifacts): artifacts maps file names, in
# the order summary.txt lists them, to what _write_outputs writes there.

@_experiment("idla",
             Key("particles", "int", required=True, bound=">= 1"),
             _D,
             Key("trials", "int", default=20, bound=">= 1"),
             _BOX,
             Key("tol_deviation", "float", default=0.15),
             Key("tol_radius", "float", default=0.05),
             _HEATMAP)
def _run_idla(p):
    predicted = predicted_radius(p["particles"], p["d"])
    seeds = range(p["seed"], p["seed"] + p["trials"])
    aggs = [idla_aggregate(p["particles"], p["d"], seed=s, box_radius=p["box"]) for s in seeds]
    metrics = [shape_metrics(agg, predicted) for agg in aggs]
    rows = [[s, m.volume, m.inradius, m.outradius, m.ball_deviation] for s, m in zip(seeds, metrics)]
    artifacts = {"idla.csv": (["seed", "volume", "inradius", "outradius", "deviation"], rows)}
    if p["heatmap"]:
        artifacts["idla.pgm"] = aggs[0].occupied
    return _growth_criteria(p, metrics, predicted, mean="mean "), artifacts


@_experiment("rotor",
             Key("particles", "int", required=True, bound=">= 1"),
             _D,
             _BOX,
             Key("tol_deviation", "float", default=0.05),
             _HEATMAP)
def _run_rotor(p):
    predicted = predicted_radius(p["particles"], p["d"])
    agg = rotor_router_aggregate(p["particles"], p["d"], box_radius=p["box"])
    m = shape_metrics(agg, predicted)
    artifacts = {
        "rotor.csv": (["volume", "inradius", "outradius", "deviation"],
                      [[m.volume, m.inradius, m.outradius, m.ball_deviation]]),
        # one occupied lattice site per row, origin-centred
        "rotor_points.csv": ([f"x{k + 1}" for k in range(agg.d)], agg.points().tolist()),
    }
    if p["heatmap"]:
        artifacts["rotor.pgm"] = agg.occupied
    return _growth_criteria(p, [m], predicted), artifacts


@_experiment("point-source",
             Key("mass", "float", required=True, bound=">= 0"),
             _D,
             Key("tau", "float", default=1e-6, bound=">= 0"),
             _BOX,
             Key("tol_deviation", "float", default=0.10),
             Key("tol_radius", "float", default=0.05),
             _HEATMAP)
def _run_point_source(p):
    predicted = predicted_radius(p["mass"], p["d"])
    result = point_source_sandpile(p["mass"], p["d"], box_radius=p["box"], tol=p["tau"])
    toppled = result.aggregate.count > 0
    if toppled:
        m = shape_metrics(result.aggregate, predicted)
        row = [m.volume, m.inradius, m.outradius, m.ball_deviation, result.steps]
        criteria = _growth_criteria(p, [m], predicted)
    else:
        row = [0, 0.0, 0.0, 0.0, result.steps]
        criteria = [CriterionResult("ball-deviation", p["mass"] <= 1.0,
                                    "no site toppled; mass fits in one cell")]
    artifacts = {"point_source.csv": (["volume", "inradius", "outradius", "deviation", "steps"], [row])}
    if toppled and p["heatmap"]:
        artifacts["point_source.pgm"] = result.odometer
    return criteria, artifacts


def _parse_obstacle_source(text: str):
    tokens = text.split()
    try:
        numbers = tuple(float(t) for t in tokens[1:])
    except ValueError:
        numbers = ()
    if len(numbers) != {"point": 1, "ball": 2}.get(tokens[0] if tokens else "", -1):
        raise ManifestError(
            f"source {text!r} not understood; use 'point <mass>' or 'ball <radius> <height>'"
        )
    if not all(math.isfinite(v) and v > 0 for v in numbers):
        raise ManifestError("obstacle source mass, radius and height must be positive")
    return (tokens[0],) + numbers


@_experiment("obstacle-shape",
             _D,
             Key("h", "float", required=True, bound="> 0"),
             Key("box", "float", required=True, bound="> 0"),
             Key("source", "str", required=True),
             Key("tol_area", "float", default=0.15))
def _run_obstacle_shape(p):
    source_spec = _parse_obstacle_source(p["source"])
    h = p["h"]
    d = p["d"]
    cells = int(round(p["box"] / h))
    side = 2 * cells + 1
    axis = (np.arange(side) - cells) * h
    norm2 = axis_sum(axis * axis, d)
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
    artifacts = {"obstacle.csv": (["area", "target_area", "iterations", "residual"],
                                  [[area, target_area, sol.iterations, sol.residual]])}
    criteria = [
        CriterionResult("area", area_err <= p["tol_area"],
                        f"area={area:.4f} target={target_area:.4f} err={area_err:.4f}"),
        CriterionResult("symmetry", sol.is_symmetric(), "occupied set equals all its lattice-symmetry images"),
    ]
    return criteria, artifacts



def run(manifest: Manifest, outdir=None, workers: int = 1) -> RunRecord:
    """Execute a validated manifest, then write its artifacts and summary.

    Every experiment runs serially.  ``workers`` is kept only because callers
    written for the former thread pool pass ``workers=1`` (the benchmark's
    ``perfbench/worker.py`` does); any other value raises ``ValueError``.
    """
    if workers != 1:
        raise ValueError("sandlab runs serially; workers must be 1")
    params = validate_manifest(manifest)
    out = Path(outdir if outdir is not None else params["out"])
    sha = manifest_hash(manifest)
    started = time.monotonic()
    _, runner = _EXPERIMENTS[manifest.kind]
    criteria, artifacts = runner(params)
    _write_outputs(out, sha, criteria, artifacts)
    wall = time.monotonic() - started
    return RunRecord(sha, VERSION, wall, tuple(artifacts) + ("summary.txt",), tuple(criteria))


# --- entry point ---------------------------------------------------------

def _run_verb(args):
    manifest = load_manifest(args.manifest)
    record = run(manifest, outdir=args.out)
    lines = [c.line() for c in record.criteria]
    lines.append(f"manifest-sha256 = {record.manifest_sha}")
    lines.append(f"wall-seconds = {record.wall_seconds:.3f}")
    return lines, 0 if record.ok else 2


def _validate_verb(args):
    manifest = load_manifest(args.manifest)
    validate_manifest(manifest)
    return [f"ok: kind={manifest.kind} sha256={manifest_hash(manifest)}"], 0


def _heatmap_verb(args):
    write_heatmap(args.out, read_field(args.field))
    return [f"wrote {args.out}"], 0


def _info_verb(args):
    field = read_field(args.field)
    v = field.values
    payload = hashlib.sha256(np.ascontiguousarray(v, dtype="<f8").tobytes()).hexdigest()
    return [
        f"d = {field.shape.d}",
        f"n = {field.shape.n}",
        f"min = {format_float(float(v.min()))}",
        f"max = {format_float(float(v.max()))}",
        f"mean = {format_float(float(v.mean()))}",
        f"sha256 = {payload}",
    ], 0


# verb -> (handler, prefix of its one error line, help, positional arguments);
# a handler returns (stdout lines, exit code)
_VERBS = {
    "run": (_run_verb, "error", "execute an experiment manifest", ("manifest",)),
    "validate": (_validate_verb, "invalid", "check a manifest without running it", ("manifest",)),
    "heatmap": (_heatmap_verb, "error", "render a d=2 field snapshot to PGM", ("field", "out")),
    "info": (_info_verb, "error", "describe a field snapshot", ("field",)),
}


class _Parser(argparse.ArgumentParser):
    """A usage error exits 1 with one ``error: ...`` line: exit 2 means a failed criterion."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="sandlab",
        description="divisible sandpile laboratory: experiments, snapshots, heatmaps",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, (_, _, about, positionals) in _VERBS.items():
        verb_parser = sub.add_parser(verb, help=about)
        for name in positionals:
            verb_parser.add_argument(name)
    p_run = sub.choices["run"]
    p_run.add_argument("--out", default=None, help="override the manifest's output directory")

    args = parser.parse_args(argv)
    handler, prefix, _, _ = _VERBS[args.verb]
    try:
        lines, code = handler(args)
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so that the flush at
        # interpreter exit cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output closed", file=sys.stderr)
        return 1
    except (OSError, ValueError, ArithmeticError, RuntimeError, MemoryError) as exc:
        print(f"{prefix}: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
