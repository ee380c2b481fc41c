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

import numpy as np
import scipy.fft

from .lattice import LatticeField, TorusShape
from .operators import OperatorSpec, solve_poisson
from .sampling import validate_multiplier


def eta_field(s: LatticeField, op: OperatorSpec, mass_tol: float = 1e-9) -> LatticeField:
    """Solve (-L) eta = s - 1 with mean-zero eta.

    The configuration must carry total mass nsites up to mass_tol * nsites,
    otherwise the charge s - 1 is not solvable.
    """
    charge = LatticeField(s.shape, s.values - 1.0)
    return solve_poisson(charge, op, mass_tol=mass_tol)


def odometer_spectral(s: LatticeField, op: OperatorSpec) -> LatticeField:
    """Limit odometer eta - min(eta); nonnegative with minimum zero."""
    eta = eta_field(s, op).values
    return LatticeField(s.shape, eta - eta.min())


def odometer_routes(s: LatticeField, op: OperatorSpec) -> tuple[LatticeField, LatticeField]:
    """The toppling route eta - min(eta) and the obstacle route max(gamma) - gamma,
    gamma = -eta, to the odometer, from one Poisson solve."""
    eta = eta_field(s, op).values
    gamma = -eta
    return (LatticeField(s.shape, eta - eta.min()),
            LatticeField(s.shape, gamma.max() - gamma))


def eta_covariance_exact(op: OperatorSpec, khat: np.ndarray | None = None) -> LatticeField:
    """Exact covariance C(x) = E[eta(z) eta(z+x)] of eta under Gaussian noise.

    khat = None means independent unit-variance noise, mode weight 1/nsites.
    A multiplier array means colored noise whose transform carries weight
    khat(w) per mode, matching the colored sampler's convention; it must pass
    ``validate_multiplier``.  The table, indexed by the offset x, is one
    inverse real transform from the half grid.
    """
    mode = mode_weight(op.shape, khat) * op.inverse_symbol() ** 2
    values = scipy.fft.irfftn(mode, s=op.shape.dims) * op.shape.nsites
    return LatticeField(op.shape, values)


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
