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

from .lattice import LatticeField
from .operators import OperatorSpec, solve_poisson
from .sampling import half_multiplier


def eta_field(s: LatticeField, op: OperatorSpec) -> LatticeField:
    """Solve (-L) eta = s - 1 with mean-zero eta.

    The configuration must carry total mass nsites up to 1e-9 * nsites,
    otherwise the charge s - 1 is not solvable.
    """
    charge = LatticeField(s.shape, s.values - 1.0)
    return solve_poisson(charge, op)


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
    khat(w) per mode, matching the colored sampler's convention; one that
    ``half_multiplier`` rejects raises ValueError.  The table, indexed by
    the offset x, is one inverse real transform from the half grid.
    """
    weight = 1.0 / op.shape.nsites if khat is None else half_multiplier(khat, op.shape)
    values = scipy.fft.irfftn(weight * op.inverse_symbol() ** 2, s=op.shape.dims) * op.shape.nsites
    return LatticeField(op.shape, values)


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
