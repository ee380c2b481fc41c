"""Output checks that decide whether a manifest run counts as failed.

Each check reads the artifacts one manifest run wrote and compares them with
an independent computation or an invariant that holds for every seed.  The
manifests' own criteria are not checks: they are statistical and are counted
as ``cli.criteria_failed`` instead.  Byte identity across passes is checked
by the caller.  Requires sandlab on ``sys.path``.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from sandlab.fieldio import read_field
from sandlab.growth import point_source_sandpile
from sandlab.lattice import LatticeField, TorusShape
from sandlab.odometer import odometer_spectral
from sandlab.operators import OperatorSpec
from sandlab.sampling import (
    CHUNK_REPLICATES,
    SigmaSpec,
    make_initial_config,
    replicate_sigma,
    sample_sigma,
    sigma_chunk,
)

# Criterion 01's bound on max |u_topple - u_closed| / (1 + max |u_closed|).
ODOMETER_REL_TOL = 1e-6
MASS_DRIFT_TOL = 1e-10
OBSTACLE_GAP_TOL = 1e-12
# Two spectral routes to the same mean odometer differ only by rounding.
MEAN_ODOMETER_REL_TOL = 1e-9
STDERRS = 5.0


def _rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _operator(p, shape: TorusShape) -> OperatorSpec:
    if p["operator"] == "lr":
        return OperatorSpec.long_range(shape, p["alpha"])
    return OperatorSpec.nearest_neighbour(shape)


def _topple(p, out):
    problems = []
    row = _rows(out / "topple.csv")[0]
    before, after = float(row["mass_before"]), float(row["mass_after"])
    drift = abs(after - before) / before
    if not drift <= MASS_DRIFT_TOL:
        problems.append(f"relative mass drift {drift:.3e} > {MASS_DRIFT_TOL:g}")
    if p["sigma"] != "gaussian":
        raise ValueError("the topple check covers Gaussian noise only")
    shape = TorusShape(p["d"], p["n"])
    sigma = sample_sigma(SigmaSpec.iid_gaussian(), shape, p["seed"])
    u_ref = odometer_spectral(make_initial_config(sigma), _operator(p, shape)).values
    u = read_field(out / "odometer.dsf1").values
    rel = float(np.max(np.abs(u - u_ref))) / (1.0 + float(np.max(np.abs(u_ref))))
    if not rel <= ODOMETER_REL_TOL:
        problems.append(f"toppled odometer differs from the closed form by {rel:.3e} (relative)")
    return problems


def _odometer(p, out):
    gap = float(_rows(out / "odometer.csv")[0]["obstacle_gap"])
    return [] if gap <= OBSTACLE_GAP_TOL else [f"obstacle gap {gap:.3e} > {OBSTACLE_GAP_TOL:g}"]


def _density_probe(p, out):
    row = _rows(out / "density_probe.csv")[0]
    trials = int(row["trials"])
    stabilized = float(row["fraction_stabilized"]) * trials
    problems = []
    if trials != p["trials"] or abs(stabilized - round(stabilized)) > 1e-9:
        problems.append(f"inconsistent trial counts in {row}")
    # At density exactly 1 a trial stabilizes iff its noise sum is not
    # positive, so with tens of trials both outcomes occur for any seed.
    if p["density"] == 1.0 and not 0 < stabilized < trials:
        problems.append(f"{stabilized:g} of {trials} critical trials stabilized; expected some of each")
    if not float(row["mean_odometer"]) >= 0.0:
        problems.append("negative mean odometer")
    return problems


def _mean_odometer(p, out):
    """Recompute the smallest size's estimate replicate by replicate.

    The batched path draws a prefix of chunk 0 at the smallest size, which by
    the chunk-prefix property equals replicates 0..samples-1.
    """
    n = min(p["n"])
    row = next(r for r in _rows(out / "mean_odometer.csv") if int(r["n"]) == n)
    shape = TorusShape(p["d"], n)
    op = _operator(p, shape)
    spec = SigmaSpec.iid_gaussian()
    samples = p["samples"]
    chunks = {}
    values = []
    for r in range(samples):
        index = r // CHUNK_REPLICATES
        if index not in chunks:
            chunks[index] = sigma_chunk(spec, shape, p["seed"], index)
        sigma = chunks[index][r % CHUNK_REPLICATES]
        config = make_initial_config(LatticeField(shape, sigma))
        values.append(float(odometer_spectral(config, op).values.mean()))
    problems = []
    if not np.array_equal(replicate_sigma(spec, shape, p["seed"], samples - 1), sigma):
        problems.append("replicate_sigma disagrees with the chunk layout")
    expected = float(np.mean(values))
    got = float(row["estimate"])
    if not abs(got - expected) <= MEAN_ODOMETER_REL_TOL * abs(expected):
        problems.append(f"mean odometer at n={n} is {got!r}, replicate recomputation gives {expected!r}")
    return problems


def _variance(p, out):
    problems = []
    paths = [out / "variance.csv"] + ([out / "variance_f2.csv"] if p["f2"] else [])
    for path in paths:
        for row in _rows(path):
            exact = float(row["exact_ratio"]) * float(row["target"])
            est, se = float(row["estimate"]), float(row["stderr"])
            if not abs(est - exact) <= STDERRS * se:
                problems.append(f"{path.name} n={row['n']}: estimate {est:.6g} is "
                                f"{abs(est - exact) / se:.1f} stderr from the exact {exact:.6g}")
    return problems


def _charfun(p, out):
    problems = []
    for row in _rows(out / "charfun.csv"):
        exact = math.exp(-float(row["exact"]))
        cf, se = float(row["cf_abs"]), float(row["stderr"])
        if not abs(cf - exact) <= STDERRS * se:
            problems.append(f"t={row['t']}: |phi| {cf:.6g} is {abs(cf - exact) / se:.1f} stderr "
                            f"from the exact {exact:.6g}")
    return problems


def _idla(p, out):
    rows = _rows(out / "idla.csv")
    volumes = [int(r["volume"]) for r in rows]
    if len(rows) != p["trials"] or any(v != p["particles"] for v in volumes):
        return [f"idla volumes {volumes}, expected {p['trials']} x {p['particles']}"]
    return []


def _rotor(p, out):
    volume = int(_rows(out / "rotor.csv")[0]["volume"])
    points = len(_rows(out / "rotor_points.csv"))
    if volume != p["particles"] or points != p["particles"]:
        return [f"rotor volume {volume} with {points} points, expected {p['particles']}"]
    return []


def _point_source(p, out):
    row = _rows(out / "point_source.csv")[0]
    ref = point_source_sandpile(p["mass"], p["d"], box_radius=p["box"], tol=p["tau"])
    problems = []
    mass = float(ref.final.sum())
    if not abs(mass - p["mass"]) <= 1e-9 * p["mass"]:
        problems.append(f"final mass {mass!r} differs from the input mass {p['mass']!r}")
    if int(row["volume"]) != ref.aggregate.count or int(row["steps"]) != ref.steps:
        problems.append(f"volume {row['volume']} / steps {row['steps']} differ from a fresh run "
                        f"({ref.aggregate.count} / {ref.steps})")
    return problems


CHECKS = {
    "topple": _topple,
    "odometer": _odometer,
    "density-probe": _density_probe,
    "mean-odometer": _mean_odometer,
    "variance": _variance,
    "charfun": _charfun,
    "idla": _idla,
    "rotor": _rotor,
    "point-source": _point_source,
}


def check(params: dict, out) -> list[str]:
    """Problems with one manifest run's artifacts in directory out; [] if none.

    Kinds without an entry in CHECKS (kernel-decay, obstacle-shape) are
    deterministic and covered by the byte-identity check alone.
    """
    fn = CHECKS.get(params["kind"])
    return fn(params, out) if fn else []
