"""Numerical laboratory for divisible sandpile models on the discrete torus.

Submodules: lattice (torus geometry and frequency tables), operators (graph
Laplacians and spectral solves), sampling (initial-configuration noise),
toppling (stabilization dynamics), odometer (closed-form odometers and
covariances), fieldstats (scaling-limit experiments), testfun (trigonometric
test functions), growth (aggregation models and the obstacle-problem shape
predictor), fieldio (snapshots and images), cli (manifest runner),
torus_kinds (the CLI's torus experiments).

``import sandlab`` loads no submodule: each exported name imports the
submodule that defines it on first use, so code that touches only the growth
models never loads scipy.
"""

import importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "lattice": ("LatticeField", "TorusShape"),
    "operators": ("OperatorSpec", "power_law_multiplier", "solve_poisson"),
    "sampling": ("SigmaSpec", "make_initial_config", "sample_sigma"),
    "testfun": ("TestFunction",),
    "toppling": ("SandpileState", "density_probe", "stabilize"),
    "odometer": ("eta_covariance_exact", "eta_field", "odometer_spectral"),
    "fieldstats": ("ScalingMode", "hurst_classify", "run_charfun_experiment", "run_variance_experiment"),
    "growth": ("AggregateSet", "continuum_obstacle_solve", "idla_aggregate", "point_source_sandpile",
               "rotor_router_aggregate", "shape_metrics"),
}
# exported name -> (submodule, attribute)
_HOME = {name: (module, name) for module, names in _EXPORTS.items() for name in names}
_HOME["__version__"] = ("cli", "VERSION")

__all__ = sorted(_HOME)


def __getattr__(name):
    """Import an exported name's submodule on first use (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _HOME[name]
    value = getattr(importlib.import_module(f".{module}", __name__), attr)
    globals()[name] = value
    return value
