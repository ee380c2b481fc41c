"""Numerical laboratory for divisible sandpile models on the discrete torus.

Submodules: lattice (torus geometry and frequency tables), operators (graph
Laplacians and spectral solves), sampling (initial-configuration noise),
toppling (stabilization dynamics), odometer (closed-form odometers and
covariances), fieldstats (scaling-limit experiments), testfun (trigonometric
test functions), growth (aggregation models and the obstacle-problem shape
predictor), fieldio (snapshots and images), cli (manifest runner).
"""

from .cli import VERSION as __version__
from .lattice import LatticeField, TorusShape
from .operators import OperatorSpec, power_law_multiplier, solve_poisson
from .sampling import SigmaSpec, make_initial_config, sample_sigma
from .testfun import TestFunction
from .toppling import SandpileState, density_probe, stabilize
from .odometer import (
    eta_covariance_exact,
    eta_field,
    odometer_spectral,
)
from .fieldstats import (
    ScalingMode,
    hurst_classify,
    run_charfun_experiment,
    run_variance_experiment,
)
from .growth import (
    AggregateSet,
    continuum_obstacle_solve,
    idla_aggregate,
    point_source_sandpile,
    rotor_router_aggregate,
    shape_metrics,
)

__all__ = [
    "__version__",
    "AggregateSet",
    "LatticeField",
    "OperatorSpec",
    "SandpileState",
    "ScalingMode",
    "SigmaSpec",
    "TestFunction",
    "TorusShape",
    "continuum_obstacle_solve",
    "density_probe",
    "eta_covariance_exact",
    "eta_field",
    "hurst_classify",
    "idla_aggregate",
    "make_initial_config",
    "odometer_spectral",
    "point_source_sandpile",
    "power_law_multiplier",
    "rotor_router_aggregate",
    "run_charfun_experiment",
    "run_variance_experiment",
    "sample_sigma",
    "shape_metrics",
    "solve_poisson",
    "stabilize",
]
