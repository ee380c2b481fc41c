"""The command line's eight torus experiments: their schemas and runners.

topple, odometer, variance, charfun, mean-odometer, variance-structure,
kernel-decay and density-probe run on the torus engine, and this module
imports it, scipy.fft and scipy.special included.  Importing the module
registers the eight kinds in ``cli``'s registry.  ``cli.validate_manifest``
does that the first time it meets a torus kind, so a process that runs only
growth kinds never loads scipy, and a timed ``cli.run`` imports nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .cli import _D, _HEATMAP, CriterionResult, Key, _experiment, _within_tol, parse_test_function
from .fieldstats import (
    ScalingMode,
    covariance_decay_slope,
    mean_odometer_curve,
    mean_odometer_exponent,
    run_charfun_experiment,
    run_variance_experiment,
    variance_structure_curve,
)
from .lattice import TorusShape
from .odometer import odometer_routes
from .operators import OperatorSpec, power_law_multiplier
from .sampling import SigmaSpec, make_initial_config, sample_sigma
from .toppling import SandpileState, density_probe, stabilize

# Keys that several torus kinds share; cli declares those shared with growth kinds.
_N = Key("n", "int", required=True, bound=">= 2")
_NS = Key("n", "ints", required=True, bound="len >= 2, distinct, each >= 2")
_R = Key("r", "ints", required=True, bound="len >= 2, distinct, each >= 1")
_F = Key("f", "str", required=True)
_SAMPLES = Key("samples", "int", required=True, bound=">= 2")

_OPERATOR_KEYS = (
    Key("operator", "str", default="nn", choices=("nn", "lr")),
    Key("alpha", "float", bound="> 0"),
)

# sigma -> its SigmaSpec from the params and the torus shape, the only list of regimes
_SIGMAS = {
    "gaussian": lambda p, shape: SigmaSpec.iid_gaussian(),
    "uniform": lambda p, shape: SigmaSpec.iid_uniform(),
    "correlated": lambda p, shape: SigmaSpec.correlated_gaussian(
        power_law_multiplier(shape, -4.0 * p["delta"])),
    "stable": lambda p, shape: SigmaSpec.stable(p["stable_alpha"], p["scale"]),
    "pareto": lambda p, shape: SigmaSpec.pareto(p["pareto_index"]),
}

_DELTA = Key("delta", "float", required=True, regime="correlated")
_SIGMA_KEYS = (
    Key("sigma", "str", default="gaussian", choices=tuple(_SIGMAS)),
    Key("stable_alpha", "float", required=True, bound="(0, 2]", regime="stable"),
    Key("pareto_index", "float", required=True, bound="> 0", regime="pareto"),
    Key("scale", "float", default=1.0, bound="> 0", regime="stable"),
    _DELTA,
)

# topple and odometer: one sampled configuration on the torus
_FIELD_KEYS = _OPERATOR_KEYS + _SIGMA_KEYS + (
    _D,
    _N,
    Key("write_fields", "bool", default=True),
    _HEATMAP,
)


def _field_setup(p):
    """The operator and the sampled initial configuration of topple and odometer."""
    shape = TorusShape(p["d"], p["n"])
    op = OperatorSpec(p["operator"], shape, alpha=p["alpha"])
    return op, make_initial_config(sample_sigma(_SIGMAS[p["sigma"]](p, shape), shape, p["seed"]))


@_experiment("topple", *_FIELD_KEYS)
def _run_topple(p):
    op, config = _field_setup(p)
    mass_before = float(config.values.sum())
    final, report = stabilize(SandpileState.initial(op, config))
    mass_after = float(final.s.values.sum())
    # relative to |mass_before|: a sum that cancels to zero or below must not pass
    if mass_before:
        drift = abs(mass_after - mass_before) / abs(mass_before)
    else:
        drift = 0.0 if mass_after == 0.0 else math.inf
    artifacts = {"topple.csv": (
        ["status", "steps", "max_excess", "total_excess", "mass_before", "mass_after"],
        [[report.status, report.steps, report.max_excess, report.total_excess,
          mass_before, mass_after]])}
    if p["write_fields"]:
        artifacts["odometer.dsf1"] = final.u
        artifacts["config_final.dsf1"] = final.s
    if p["heatmap"]:
        artifacts["odometer.pgm"] = final.u.values
    criteria = [
        CriterionResult("stabilized", report.status == "stabilized",
                        f"status={report.status} steps={report.steps}"),
        CriterionResult("mass-conserved", drift <= 1e-10,
                        f"relative drift={drift:.3e}"),
    ]
    return criteria, artifacts


@_experiment("odometer", *_FIELD_KEYS)
def _run_odometer(p):
    op, config = _field_setup(p)
    u_direct, u_obstacle = odometer_routes(config, op)
    gap = float(np.max(np.abs(u_direct.values - u_obstacle.values)))
    artifacts = {"odometer.csv": (
        ["max_u", "mean_u", "obstacle_gap"],
        [[float(u_direct.values.max()), float(u_direct.values.mean()), gap]])}
    if p["write_fields"]:
        artifacts["odometer.dsf1"] = u_direct
    if p["heatmap"]:
        artifacts["odometer.pgm"] = u_direct.values
    criteria = [CriterionResult("obstacle-identity", gap <= 1e-12, f"gap={gap:.3e}")]
    return criteria, artifacts


def _variance_mode(p) -> ScalingMode:
    if p["operator"] == "lr":
        return ScalingMode("lr-ind", alpha=p["alpha"])
    if p["sigma"] == "correlated":
        return ScalingMode("nn-cor", delta=p["delta"])
    return ScalingMode("nn-ind")


def _variance_table(exp):
    return (["n", "estimate", "stderr", "target", "ratio", "exact_ratio"],
            [[r.n, r.variance.point, r.variance.stderr, exp.limit, r.ratio, r.exact_ratio]
             for r in exp.rows])


@_experiment("variance",
             *_OPERATOR_KEYS,
             Key("sigma", "str", default="gaussian", choices=("gaussian", "correlated")),
             _DELTA,
             _D,
             _NS,
             _F,
             Key("f2", "str"),
             _SAMPLES,
             Key("tol_flatness", "float", default=0.15),
             Key("tol_agreement", "float", default=0.10))
def _run_variance(p):
    fs = [parse_test_function(p[name], p["d"]) for name in ("f", "f2") if p[name]]
    exps = run_variance_experiment(_variance_mode(p), fs, p["n"], p["samples"], p["seed"])
    exp = exps[0]
    artifacts = {"variance.csv": _variance_table(exp)}
    flat = exp.ratio_flatness()
    criteria = [_within_tol("ratio-flat", "max deviation", flat, p["tol_flatness"])]
    if p["f2"]:  # f2 pairs at the largest size only, in the same pass
        exp2 = exps[1]
        r1 = next(r.ratio for r in exp.rows if r.n == exp2.rows[0].n)
        gap = abs(r1 - exp2.rows[0].ratio) / r1
        artifacts["variance_f2.csv"] = _variance_table(exp2)
        criteria.append(_within_tol("f-agreement", "relative gap", gap, p["tol_agreement"]))
    return criteria, artifacts


@_experiment("charfun",
             _D,
             _N,
             Key("alpha", "float", required=True, bound="(0, 2)"),
             _F,
             _SAMPLES,
             Key("t", "floats", default=(0.5, 1.0, 2.0), bound="len >= 1, each > 0"),
             Key("tol_magnitude", "float", default=0.15),
             Key("tol_doubling", "float", default=0.10))
def _run_charfun(p):
    shape = TorusShape(p["d"], p["n"])
    f = parse_test_function(p["f"], p["d"])
    base, doubled = run_charfun_experiment(p["alpha"], (f, f.scaled(2.0)), shape, p["samples"],
                                           p["seed"], ts=p["t"])
    rows = []
    for r, r2 in zip(base.rows, doubled.rows):
        rows.append([r.t, r.cf_abs, r.stderr, r.measured_exponent, r.exact_exponent,
                     r.target_exponent, r2.measured_exponent])
    artifacts = {"charfun.csv": (
        ["t", "cf_abs", "stderr", "log_cf", "exact", "target", "log_cf_doubled"], rows)}
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
    return criteria, artifacts


@_experiment("mean-odometer",
             *_OPERATOR_KEYS,
             _D,
             _NS,
             _SAMPLES,
             Key("slope_tol", "float"))
def _run_mean_odometer(p):
    kind = p["operator"]
    curve = mean_odometer_curve(kind, p["d"], p["n"], p["samples"], p["seed"],
                                alpha=p["alpha"])
    rows = [[r.n, r.value.point, r.value.stderr, pred]
            for r, pred in zip(curve.rows, curve.predicted_values)]
    artifacts = {"mean_odometer.csv": (["n", "estimate", "stderr", "prediction"], rows)}
    expected = mean_odometer_exponent(kind, p["d"], p["alpha"])
    if expected is None:
        criteria = [CriterionResult("slope", True,
                                    f"fitted={curve.slope:.4f}; logarithmic regime, no power law asserted")]
    else:
        tol = p["slope_tol"]
        if tol is None:
            tol = 0.1 if (kind == "lr" or p["d"] >= 3) else 0.15
        criteria = [CriterionResult("slope", abs(curve.slope - expected) <= tol,
                                    f"fitted={curve.slope:.4f} expected={expected:g} tol={tol}")]
    return criteria, artifacts


@_experiment("variance-structure",
             *_OPERATOR_KEYS,
             _D,
             _N,
             _R,
             Key("tol", "float", default=0.2))
def _run_variance_structure(p):
    curve = variance_structure_curve(p["operator"], p["d"], p["n"], p["r"], alpha=p["alpha"])
    rows = [[r, v] for r, v in zip(curve.rs, curve.values)]
    artifacts = {"variance_structure.csv": (["r", "increment_variance"], rows)}
    gap = abs(curve.slope - curve.target_slope)
    criteria = [CriterionResult("structure-exponent", gap <= p["tol"],
                                f"fitted={curve.slope:.4f} target={curve.target_slope:.4f} tol={p['tol']}")]
    return criteria, artifacts


@_experiment("kernel-decay",
             *_OPERATOR_KEYS,
             _D,
             _N,
             _R,
             Key("tol", "float", default=0.3))
def _run_kernel_decay(p):
    result = covariance_decay_slope(p["operator"], p["d"], p["n"], p["r"], alpha=p["alpha"])
    # below the critical dimension result.values is empty, and so is the table
    rows = [[r, v] for r, v in zip(p["r"], result.values)]
    artifacts = {"kernel_decay.csv": (["r", "covariance"], rows)}
    if not result.valid and result.predicted_slope is None:
        criteria = [CriterionResult("decay-regime-flag", True, result.reason)]
    elif not result.valid:
        criteria = [CriterionResult("decay-slope", False, result.reason)]
    else:
        gap = abs(result.slope - result.predicted_slope)
        criteria = [CriterionResult("decay-slope", gap <= p["tol"],
                                    f"fitted={result.slope:.4f} predicted={result.predicted_slope:g} tol={p['tol']}")]
    return criteria, artifacts


@_experiment("density-probe",
             _D,
             _N,
             Key("density", "float", required=True),
             Key("trials", "int", default=50, bound=">= 1"),
             Key("expect", "str", default="auto", choices=("auto", "stabilize", "explode", "none")))
def _run_density_probe(p):
    shape = TorusShape(p["d"], p["n"])
    result = density_probe(p["density"], shape, trials=p["trials"], seed=p["seed"])
    artifacts = {"density_probe.csv": (
        ["density", "trials", "fraction_stabilized", "mean_odometer"],
        [[result.density, result.trials, result.fraction_stabilized, result.mean_odometer]])}
    expect = p["expect"]
    if expect == "auto":
        expect = "stabilize" if p["density"] < 1.0 else ("explode" if p["density"] > 1.0 else "none")
    want = {"stabilize": 1.0, "explode": 0.0}.get(expect)
    ok = want is None or result.fraction_stabilized == want
    detail = f"stabilized fraction={result.fraction_stabilized:g} " + (
        "(no expectation)" if want is None else f"(expected {want:g})")
    return [CriterionResult("dichotomy", ok, detail)], artifacts
