"""Divisible sandpile toppling dynamics.

A site with height above one is unstable; toppling emits its full excess
through the generator's redistribution rule.  For the nearest-neighbour rule
the excess splits equally over the 2d neighbours, for the long-range rule it
spreads by the jump kernel (a toppling site keeps the p(0) fraction through
its self-loop).  The odometer accumulates everything a site has emitted.

Stabilization succeeds exactly when the total mass is at most the number of
sites, so the entry test ``sum(s) > nsites + tol`` certifies explosion without
running the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import generator
from .lattice import LatticeField, TorusShape
from .operators import BufferedGenerator, OperatorSpec


@dataclass(frozen=True)
class SandpileState:
    """Heights, odometer, and step count of one toppling run."""

    op: OperatorSpec
    s: LatticeField
    u: LatticeField
    t: int = 0

    def __post_init__(self):
        if self.s.shape != self.op.shape or self.u.shape != self.op.shape:
            raise ValueError("state fields must live on the operator's torus")
        if np.any(self.u.values < 0):
            raise ValueError("odometer must be nonnegative")

    @classmethod
    def initial(cls, op: OperatorSpec, s: LatticeField) -> "SandpileState":
        return cls(op, s, LatticeField.zeros(op.shape), 0)


@dataclass(frozen=True)
class StabilizationReport:
    status: str  # "stabilized" | "exploded" | "step-limit"
    steps: int
    max_excess: float
    total_excess: float


def _excess(values: np.ndarray) -> np.ndarray:
    return np.clip(values - 1.0, 0.0, None)


def _excess_into(gen: BufferedGenerator, s: np.ndarray) -> np.ndarray:
    """Overwrite and return the generator's input buffer with max(s - 1, 0)."""
    np.subtract(s, 1.0, out=gen.x)
    return np.maximum(gen.x, 0.0, out=gen.x)


def _topple(gen: BufferedGenerator, s: np.ndarray, u: np.ndarray) -> None:
    """Topple the excess last written by ``_excess_into``: s += L e, u += e."""
    np.add(s, gen.apply(), out=s)
    np.add(u, gen.x, out=u)


def sequential_topple_pass(state: SandpileState, order) -> SandpileState:
    """Topple sites one at a time in the given order, using current heights.

    The order is a sequence of flat site indices in canonical raveling; each
    listed site is toppled once if unstable when its turn arrives.
    """
    op = state.op
    shape = op.shape
    s = state.s.values.copy()
    u = state.u.values.copy()
    order = np.asarray(order, dtype=np.int64)
    if order.ndim != 1:
        raise ValueError("order must be a flat sequence of site indices")
    if order.size and (order.min() < 0 or order.max() >= shape.nsites):
        raise ValueError("order contains an out-of-range site index")

    if op.kind == "nn":
        sf = s.reshape(-1)
        uf = u.reshape(-1)
        neigh = _neighbour_index_table(shape)
        share = 1.0 / (2.0 * shape.d)
        for x in order:
            e = sf[x] - 1.0
            if e <= 0.0:
                continue
            sf[x] -= e
            np.add.at(sf, neigh[x], e * share)
            uf[x] += e
        s = sf.reshape(shape.dims)
        u = uf.reshape(shape.dims)
    else:
        p = op.kernel()
        # offset[x, y] = (y - x) mod n: indexing p by the rows of the site's
        # coordinates gives the kernel centred on that site
        ar = np.arange(shape.n)
        offset = (ar[None, :] - ar[:, None]) % shape.n
        for x in order:
            idx = np.unravel_index(int(x), shape.dims)
            e = s[idx] - 1.0
            if e <= 0.0:
                continue
            s += e * p[np.ix_(*offset[list(idx)])]
            s[idx] -= e
            u[idx] += e

    return SandpileState(op, LatticeField(shape, s), LatticeField(shape, u), state.t + 1)


def _neighbour_index_table(shape: TorusShape) -> np.ndarray:
    """Flat indices of the 2d directional neighbours of every site.

    Directions that coincide on a small torus appear twice, which keeps the
    redistribution weights right at n = 2.
    """
    coords = np.stack(
        np.meshgrid(*[np.arange(shape.n)] * shape.d, indexing="ij"), axis=-1
    ).reshape(-1, shape.d)
    cols = []
    for axis in range(shape.d):
        for step in (1, -1):
            shifted = coords.copy()
            shifted[:, axis] = (shifted[:, axis] + step) % shape.n
            cols.append(np.ravel_multi_index(shifted.T, shape.dims))
    return np.stack(cols, axis=1)


def stabilize(
    state: SandpileState,
    tol: float = None,
    step_limit: int = 500_000,
) -> tuple[SandpileState, StabilizationReport]:
    """Run parallel toppling until the total excess falls below tol.

    tol defaults to 1e-10 * nsites.  A configuration carrying more than
    nsites + tol of mass can never stabilize (mass is conserved and a stable
    state holds at most one per site), so it is reported as exploded without
    stepping.

    Each step applies the operator's one generator implementation,
    ``operators.BufferedGenerator``, whose buffers are allocated once per
    call and overwritten on every step: the excess is written into its
    input buffer and L e is read from its output buffer.  Heights and
    odometer are updated in place on copies of the input fields.  The
    generator's fixed summation order (nearest neighbour) and once-per-call
    kernel transform (long range, two FFTs a step) keep every report,
    odometer and final field bit-identical to the reference engine frozen in
    the tests.  ``step_limit=k`` runs at most k parallel steps, so k = 1 is
    a single step in which every unstable site topples at once.
    """
    shape = state.op.shape
    if tol is None:
        tol = 1e-10 * shape.nsites
    total_mass = float(state.s.values.sum())
    # The explosion margin never drops below the rounding noise of summing
    # nsites heights, so a critical configuration (mass exactly nsites) is
    # not misread as exploding when tol is tiny or zero.
    if total_mass > shape.nsites + max(tol, 1e-12 * shape.nsites):
        e = _excess(state.s.values)
        report = StabilizationReport("exploded", 0, float(e.max()), float(e.sum()))
        return state, report

    op = state.op
    gen = BufferedGenerator(op)
    s = state.s.values.copy()
    u = state.u.values.copy()
    steps = 0
    while True:
        e = _excess_into(gen, s)
        total = float(e.sum())
        if total <= tol:
            status = "stabilized"
            break
        if steps >= step_limit:
            status = "step-limit"
            break
        _topple(gen, s, u)
        steps += 1
    final = SandpileState(op, LatticeField(shape, s), LatticeField(shape, u), state.t + steps)
    return final, StabilizationReport(status, steps, float(e.max()), total)


def stabilize_sequential(
    state: SandpileState,
    order,
    tol: float = None,
    pass_limit: int = 200_000,
) -> tuple[SandpileState, StabilizationReport]:
    """Repeat sequential passes in a fixed site order until the excess is gone."""
    shape = state.op.shape
    if tol is None:
        tol = 1e-10 * shape.nsites
    total_mass = float(state.s.values.sum())
    if total_mass > shape.nsites + max(tol, 1e-12 * shape.nsites):
        e = _excess(state.s.values)
        return state, StabilizationReport("exploded", 0, float(e.max()), float(e.sum()))
    current = state
    passes = 0
    while True:
        e = _excess(current.s.values)
        total = float(e.sum())
        if total <= tol:
            status = "stabilized"
            break
        if passes >= pass_limit:
            status = "step-limit"
            break
        current = sequential_topple_pass(current, order)
        passes += 1
    e = _excess(current.s.values)
    return current, StabilizationReport(status, passes, float(e.max()), float(e.sum()))


@dataclass(frozen=True)
class DensityProbeResult:
    density: float
    trials: int
    fraction_stabilized: float
    mean_odometer: float


def density_probe(
    density: float,
    shape: TorusShape,
    op: OperatorSpec = None,
    trials: int = 20,
    seed: int = 0,
    noise_scale: float = 0.01,
    tol: float = None,
    step_limit: int = 500_000,
) -> DensityProbeResult:
    """Stabilize i.i.d. configurations of mean ``density`` with no centering.

    Heights are density plus small Gaussian fluctuations, so subcritical
    densities stabilize and supercritical ones explode by the mass test.
    Reports the stabilized fraction and the mean odometer over all trials.
    """
    if op is None:
        op = OperatorSpec.nearest_neighbour(shape)
    stabilized = 0
    odometer_sum = 0.0
    for trial in range(trials):
        gen = generator(seed, 7, trial)
        s = density + noise_scale * gen.standard_normal(shape.dims)
        state = SandpileState.initial(op, LatticeField(shape, s))
        final, report = stabilize(state, tol=tol, step_limit=step_limit)
        if report.status == "stabilized":
            stabilized += 1
        odometer_sum += float(final.u.values.mean())
    return DensityProbeResult(density, trials, stabilized / trials, odometer_sum / trials)

