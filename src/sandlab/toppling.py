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
from .operators import OperatorSpec


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


class _ParallelToppler:
    """Excess and generator buffers for parallel steps, reused on every step.

    The nearest-neighbour stencil is a fixed list of (accumulator view,
    excess view) pairs; the long-range step uses the kernel transform
    computed here.
    """

    def __init__(self, op: OperatorSpec):
        self.e = np.empty(op.shape.dims)
        self._g = np.empty(op.shape.dims)
        self._phat = None
        if op.kind == "nn":
            self._share = 2.0 * op.shape.d
            self._pairs = []
            for axis in range(op.shape.d):
                g, e = np.moveaxis(self._g, axis, 0), np.moveaxis(self.e, axis, 0)
                # the shift by +1 reads e[i - 1], then the shift by -1 reads e[i + 1]
                self._pairs += [(g[1:], e[:-1]), (g[:1], e[-1:]), (g[:-1], e[1:]), (g[-1:], e[:1])]
        elif op.kind == "lr":
            self._phat = np.fft.fftn(op.kernel().p)
        else:
            raise ValueError("toppling needs a nearest-neighbour or long-range operator")

    def excess(self, s: np.ndarray) -> np.ndarray:
        """Overwrite and return the excess buffer with max(s - 1, 0)."""
        np.subtract(s, 1.0, out=self.e)
        return np.maximum(self.e, 0.0, out=self.e)

    def topple(self, s: np.ndarray, u: np.ndarray) -> None:
        """Topple the excess last computed by ``excess``: s += generator(e), u += e."""
        e, g = self.e, self._g
        if self._phat is None:
            g.fill(0.0)
            for dst, src in self._pairs:
                np.add(dst, src, out=dst)
            np.divide(g, self._share, out=g)
            np.subtract(g, e, out=g)
        else:
            ehat = np.fft.fftn(e)
            ehat *= self._phat
            np.subtract(np.fft.ifftn(ehat).real, e, out=g)
        np.add(s, g, out=s)
        np.add(u, e, out=u)


def parallel_topple_step(state: SandpileState) -> SandpileState:
    """Topple every unstable site at once; stable states are fixed points."""
    toppler = _ParallelToppler(state.op)
    if not toppler.excess(state.s.values).any():
        return state
    s_new = state.s.values.copy()
    u_new = state.u.values.copy()
    toppler.topple(s_new, u_new)
    return SandpileState(
        state.op,
        LatticeField(state.op.shape, s_new),
        LatticeField(state.op.shape, u_new),
        state.t + 1,
    )


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
    elif op.kind == "lr":
        p = op.kernel().p
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
    else:
        raise ValueError("toppling needs a nearest-neighbour or long-range operator")

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
    on_step=None,
) -> tuple[SandpileState, StabilizationReport]:
    """Run parallel toppling until the total excess falls below tol.

    tol defaults to 1e-10 * nsites.  A configuration carrying more than
    nsites + tol of mass can never stabilize (mass is conserved and a stable
    state holds at most one per site), so it is reported as exploded without
    stepping.

    The run allocates its excess and generator buffers once and overwrites
    them on every step; heights and odometer are updated in place on copies
    of the input fields.  The nearest-neighbour stencil adds the 2d shifted
    excesses in a fixed order (axis 0 by +1 then -1, then axis 1, ...) on
    purpose: floating-point addition is not associative, and this order keeps
    every report, odometer and final field bit-identical to the reference
    engine frozen in the tests.  The long-range kernel's transform is
    computed once per call, so a step costs two FFTs.  on_step, if given, is
    called after every step with a state holding copies of the fields, so
    mutating them cannot change the run.
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
    toppler = _ParallelToppler(op)
    s = state.s.values.copy()
    u = state.u.values.copy()
    steps = 0
    while True:
        e = toppler.excess(s)
        total = float(e.sum())
        if total <= tol:
            status = "stabilized"
            break
        if steps >= step_limit:
            status = "step-limit"
            break
        toppler.topple(s, u)
        steps += 1
        if on_step is not None:
            on_step(
                SandpileState(op, LatticeField(shape, s.copy()), LatticeField(shape, u.copy()), state.t + steps)
            )
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

