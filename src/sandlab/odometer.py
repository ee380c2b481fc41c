"""Closed-form odometers through the Poisson equation on the torus.

For a configuration s with total mass equal to the site count, the limit
odometer of the toppling dynamics is

    u = eta - min(eta),   where  (-L) eta = s - 1  and  eta is mean-zero.

The same field solves an obstacle problem: with gamma = -eta, the only
superharmonic majorants of gamma on the torus are constants, so the least
majorant is the constant max(gamma) and u = max(gamma) - gamma.

For Gaussian noise the covariance of eta is exact and diagonal in frequency:
each mode w != 0 carries weight(w) / lambda(w)^2, where weight is 1/nsites
for independent unit-variance noise and the covariance multiplier itself for
spectrally colored noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .lattice import LatticeField, TorusShape, _reverse_indices, wrap_coord
from .operators import OperatorSpec, solve_poisson
from .sampling import validate_multiplier


@dataclass(frozen=True)
class EtaField:
    """Mean-zero potential of a configuration under a chosen generator."""

    op: OperatorSpec
    field: LatticeField

    def residual(self, s: LatticeField) -> float:
        """Max deviation of (-L) eta from s - 1, for auditing."""
        lhs = -self.op.apply(self.field).values
        return float(np.max(np.abs(lhs - (s.values - 1.0))))


def eta_field(s: LatticeField, op: OperatorSpec, mass_tol: float = 1e-9) -> EtaField:
    """Solve (-L) eta = s - 1 with mean-zero eta.

    The configuration must carry total mass nsites up to mass_tol * nsites,
    otherwise the charge s - 1 is not solvable.
    """
    charge = LatticeField(s.shape, s.values - 1.0)
    eta = solve_poisson(charge, op, mass_tol=mass_tol)
    return EtaField(op, eta)


def _shift_to_zero(eta: np.ndarray) -> np.ndarray:
    return eta - eta.min()


def _least_majorant_gap(gamma: np.ndarray) -> np.ndarray:
    return gamma.max() - gamma


def odometer_spectral(s: LatticeField, op: OperatorSpec) -> LatticeField:
    """Limit odometer eta - min(eta); nonnegative with minimum zero."""
    eta = eta_field(s, op).field
    return LatticeField(s.shape, _shift_to_zero(eta.values))


def obstacle_gamma(s: LatticeField, op: OperatorSpec) -> LatticeField:
    """Obstacle -eta for the torus obstacle-problem route to the odometer."""
    eta = eta_field(s, op).field
    return LatticeField(s.shape, -eta.values)


def torus_obstacle_odometer(s: LatticeField, op: OperatorSpec) -> LatticeField:
    """Odometer as max(gamma) - gamma.

    On the torus every superharmonic function is constant, so the least
    superharmonic majorant of gamma is the constant max(gamma).
    """
    gamma = obstacle_gamma(s, op).values
    return LatticeField(s.shape, _least_majorant_gap(gamma))


def odometer_routes(s: LatticeField, op: OperatorSpec) -> tuple[LatticeField, LatticeField]:
    """(odometer_spectral, torus_obstacle_odometer) of s from one Poisson solve."""
    eta = eta_field(s, op).field.values
    return (LatticeField(s.shape, _shift_to_zero(eta)),
            LatticeField(s.shape, _least_majorant_gap(-eta)))


@dataclass(frozen=True)
class CovarianceTable:
    """Stationary covariance C(x) = E[eta(z) eta(z+x)] on offset x."""

    op: OperatorSpec
    values: LatticeField

    def at_offset(self, x) -> float:
        return float(self.values.values[wrap_coord(x, self.op.shape)])

    def increment_variance(self, x) -> float:
        """E[(eta(x) - eta(0))^2] = 2 (C(0) - C(x)) by stationarity."""
        return 2.0 * (self.at_offset([0] * self.op.shape.d) - self.at_offset(x))


def eta_covariance_exact(op: OperatorSpec, khat: np.ndarray | None = None) -> CovarianceTable:
    """Exact covariance of eta under Gaussian noise.

    khat = None means independent unit-variance noise, mode weight 1/nsites.
    A multiplier array means colored noise whose transform carries weight
    khat(w) per mode, matching the colored sampler's convention; it must pass
    ``validate_multiplier``.  The table is one inverse real transform from the
    half grid.
    """
    mode = mode_weight(op.shape, khat) * op.inverse_symbol() ** 2
    values = scipy.fft.irfftn(mode, s=op.shape.dims) * op.shape.nsites
    return CovarianceTable(op, LatticeField(op.shape, values))


def mode_weight(shape: TorusShape, khat: np.ndarray | None) -> float | np.ndarray:
    """Per-mode noise weight on the rfftn half grid: 1/nsites for white noise,
    else the multiplier's half.

    A half-grid inverse transform reads only half of the multiplier, so it
    would silently symmetrize an uneven one; such a khat raises ValueError.
    """
    if khat is None:
        return 1.0 / shape.nsites
    check = validate_multiplier(khat, shape)
    if not check.valid:
        raise ValueError(f"covariance multiplier rejected: {check.reason}")
    weight = np.asarray(khat, dtype=np.float64)
    return weight[..., : shape.n // 2 + 1]


def covariance_checks(table: CovarianceTable, tol: float = 1e-8) -> None:
    """Raise unless the table is even with positive variance at offset zero."""
    v = table.values.values
    if v.flat[0] <= 0:
        raise ValueError("variance at offset zero must be positive")
    if np.max(np.abs(_reverse_indices(v) - v)) > tol * max(1.0, float(np.max(np.abs(v)))):
        raise ValueError("covariance table is not even")


def eta_sample_batch(
    op: OperatorSpec, sigma_block: np.ndarray
) -> np.ndarray:
    """Vectorized eta fields for a block of sigma replicates.

    sigma_block has shape (count,) + dims.  Centering happens inside, so raw
    noise can be passed directly; the result is the block of mean-zero
    potentials of 1 + sigma - mean(sigma).
    """
    if sigma_block.shape[1:] != op.shape.dims:
        raise ValueError("sigma block does not match the operator's torus")
    return op.solve(sigma_block)
