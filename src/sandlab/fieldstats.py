"""Statistical verification of scaling limits for odometer fluctuation fields.

The rescaled field a_n * Xi_n pairs against smooth mean-zero test functions
through cell integrals, and the pairing is a fixed linear functional of the
noise: <Xi_n, f> = sum_x sigma(x) k(x) with k the mean-zero potential of the
cell-integral field.  That identity powers everything here: Monte Carlo
pairings are one dot product per replicate, Gaussian pairing variances are
exact finite sums, and stable pairings have an exact finite-size
characteristic exponent sum |a_n k(x)|^alpha.

Limit predictions carry one deliberate normalization constant.  The package's
generator is 1/(2d) times the unnormalized neighbour-sum Laplacian that the
classical prefactors (the 4 pi^2 factors) are written for, so second-moment
predictions pick up (2d)^2 for nearest-neighbour modes and amplitude
predictions pick up 2d.  Long-range generators carry a kernel-dependent
constant with no closed form; there the experiments test flatness of the
ratio across sizes and agreement across test functions, with the exact
spectral variance reported alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from ._util import axis_sum, loglog_slope, parallel_map
from .lattice import (
    LatticeField,
    TorusShape,
    cell_integral_field,
)
from .odometer import eta_covariance_exact, eta_sample_batch, mode_weight
from .operators import OperatorSpec, power_law_multiplier, solve_poisson
from .sampling import CHUNK_REPLICATES, SigmaSpec, sigma_chunk
from .testfun import TestFunction


@dataclass(frozen=True)
class EstimateWithCI:
    point: float
    stderr: float
    count: int

    def __post_init__(self):
        if self.stderr < 0 or self.count <= 0:
            raise ValueError("estimate needs nonnegative stderr and positive count")


@dataclass(frozen=True)
class ScalingMode:
    """Which limit theorem an experiment targets."""

    kind: str  # "nn-ind" | "nn-cor" | "lr-ind" | "stable"
    alpha: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.kind not in ("nn-ind", "nn-cor", "lr-ind", "stable"):
            raise ValueError(f"unknown scaling mode {self.kind!r}")
        if self.kind in ("lr-ind", "stable") and not (self.alpha and self.alpha > 0):
            raise ValueError(f"mode {self.kind} needs alpha > 0")
        if self.kind == "stable" and not (self.alpha < 2):
            raise ValueError("stable mode needs alpha < 2")
        if self.kind == "nn-cor" and self.delta is None:
            raise ValueError("correlated mode needs the spectral decay delta")


def scaling_constant(mode: ScalingMode, shape: TorusShape) -> float:
    """Deterministic normalization a_n for the chosen limit."""
    n, d = float(shape.n), shape.d
    four_pi2 = 4.0 * math.pi**2
    if mode.kind == "nn-ind":
        return four_pi2 * n ** ((d - 4) / 2.0)
    if mode.kind == "nn-cor":
        return four_pi2 * n**-2.0
    if mode.kind == "lr-ind":
        a = mode.alpha
        if a < 2.0:
            return n ** ((d - 2.0 * a) / 2.0)
        if a == 2.0:
            return n ** ((d - 4.0) / 2.0) * math.log(n)
        return n ** ((d - 4.0) / 2.0)
    # stable
    return four_pi2 * n ** (d - d / mode.alpha - 2.0)


def pair_field(u: LatticeField, f: TestFunction) -> float:
    """Pairing sum_z u(z) * (integral of f over the cell of z); kills constants exactly."""
    c = cell_integral_field(f, u.shape)
    return float(np.dot(u.ravel(), c.ravel()))


def pairing_vector(op: OperatorSpec, f: TestFunction) -> LatticeField:
    """Weights k with <Xi_n, f> = sum_x sigma(x) k(x) for the potential field.

    k is the mean-zero potential of the cell-integral field, by self-adjointness
    of the generator; the centering of sigma drops out because k sums to zero.
    """
    return solve_poisson(cell_integral_field(f, op.shape), op)


def limit_variance(f: TestFunction, khat=None, e: float = 2.0) -> float:
    """Predicted limit variance sum_{z != 0} khat(z) ||z||^(-2e) |fhat(z)|^2.

    khat is a callable on integer frequency vectors (None means identically
    one).  The sum is finite because test functions have finitely many modes.
    """
    total = 0.0
    for z in f.support_frequencies():
        coeff = f.fourier_coefficient(z)
        if coeff == 0:
            continue
        norm2 = float(sum(v * v for v in z))
        weight = 1.0 if khat is None else float(khat(np.asarray(z, dtype=np.float64)))
        total += weight * norm2 ** (-e) * abs(coeff) ** 2
    return total


def exact_pairing_variance(op: OperatorSpec, f: TestFunction, khat: np.ndarray | None = None) -> float:
    """Exact Gaussian variance of <Xi_n, f> before any a_n rescaling.

    khat = None is independent unit-variance noise (mode weight 1/nsites);
    an array is the colored sampler's multiplier (mode weight khat(w)) and
    must pass ``validate_multiplier``.  The sum runs over the rfftn half grid.
    """
    c = cell_integral_field(f, op.shape)
    potential_hat = scipy.fft.rfftn(c.values) * op.inverse_symbol()
    power = mode_weight(op.shape, khat) * np.abs(potential_hat) ** 2
    # Each interior half-grid column stands for itself and its mirror image;
    # column 0 and, for even n, column n/2 are their own mirrors.
    columns = np.full(power.shape[-1], 2.0)
    columns[0] = 1.0
    if op.shape.n % 2 == 0:
        columns[-1] = 1.0
    return float(np.sum(power * columns))


def _mode_setup(mode: ScalingMode, shape: TorusShape):
    """Operator, sigma spec, lattice weight, continuum weight, exponent e."""
    if mode.kind == "nn-ind":
        op = OperatorSpec.nearest_neighbour(shape)
        return op, SigmaSpec.iid_gaussian(), None, None, 2.0
    if mode.kind == "nn-cor":
        op = OperatorSpec.nearest_neighbour(shape)
        khat_lattice = power_law_multiplier(shape, -4.0 * mode.delta, at_zero=1.0)
        khat_fn = lambda z: float(np.dot(z, z)) ** (-2.0 * mode.delta)
        return op, SigmaSpec.correlated_gaussian(khat_lattice), khat_lattice, khat_fn, 2.0
    if mode.kind == "lr-ind":
        op = OperatorSpec.long_range(shape, mode.alpha)
        return op, SigmaSpec.iid_gaussian(), None, None, min(2.0, mode.alpha)
    raise ValueError("stable mode pairs through run_charfun_experiment")


def gaussian_calibration(mode: ScalingMode, f: TestFunction, shape: TorusShape) -> float:
    """Deterministic ratio of exact rescaled variance to the limit prediction.

    For nearest-neighbour modes this approaches (2d)^2 as n grows, reflecting
    the generator normalization; for long-range modes it approaches the
    kernel's own constant.  Computed exactly from the spectral variance, no
    sampling involved.
    """
    op, _, khat_lattice, khat_fn, e = _mode_setup(mode, shape)
    a = scaling_constant(mode, shape)
    exact = a * a * exact_pairing_variance(op, f, khat_lattice)
    return exact / limit_variance(f, khat_fn, e)


@dataclass(frozen=True)
class VarianceRow:
    n: int
    variance: EstimateWithCI
    exact_variance: float
    ratio: float
    exact_ratio: float


@dataclass(frozen=True)
class VarianceExperiment:
    mode: ScalingMode
    limit: float
    rows: tuple[VarianceRow, ...]

    def ratio_flatness(self) -> float:
        """Max relative deviation of the measured ratios from their mean."""
        ratios = np.array([r.ratio for r in self.rows])
        return float(np.max(np.abs(ratios - ratios.mean())) / ratios.mean())


def run_variance_experiment(
    mode: ScalingMode,
    f: TestFunction,
    ns,
    samples: int,
    seed: int = 0,
    workers: int = 1,
) -> VarianceExperiment:
    """Estimate Var(a_n <Xi_n, f>) across sizes against the limit prediction.

    The ratio column should flatten in n; its level is the calibration
    constant of the mode, not one.  Sizes run independently (optionally in
    parallel); results do not depend on the worker count.
    """
    _, _, _, khat_fn, e = _mode_setup(mode, TorusShape(f.d, int(ns[0])))
    limit = limit_variance(f, khat_fn, e)

    def one_size(n: int) -> VarianceRow:
        shape = TorusShape(f.d, int(n))
        op, spec, khat_lattice, _, _ = _mode_setup(mode, shape)
        a = scaling_constant(mode, shape)
        k = pairing_vector(op, f).ravel()
        xs = _pairing_samples(spec, shape, seed, samples, [k])[0] * a
        var = float(np.var(xs, ddof=1))
        se = var * math.sqrt(2.0 / (samples - 1))
        exact = a * a * exact_pairing_variance(op, f, khat_lattice)
        return VarianceRow(
            int(n), EstimateWithCI(var, se, samples), exact, var / limit, exact / limit
        )

    rows = parallel_map(one_size, ns, workers)
    return VarianceExperiment(mode, limit, tuple(rows))


def _pairing_samples(
    spec: SigmaSpec, shape: TorusShape, seed: int, samples: int, ks: list[np.ndarray]
) -> list[np.ndarray]:
    """Samples of <sigma, k> for each pairing vector k, from one pass over the chunks.

    Each product runs over a whole chunk, and unlike the mean-odometer solves
    it is not split into sub-batches: the BLAS matrix-vector kernel sums a
    row in an order that depends on how rows are grouped, so row groups that
    are not a multiple of four change results in the last bits (at d = 2,
    n = 16 to 64 with OpenBLAS 0.3.31, groups of 1, 3, 5 or 7 rows moved 38
    to 241 of a chunk's 256 results by up to 2.4e-13).
    """
    outs = [np.empty(samples) for _ in ks]
    done = 0
    chunk_index = 0
    while done < samples:
        block = sigma_chunk(spec, shape, seed, chunk_index)
        take = min(samples - done, block.shape[0])
        for out, k in zip(outs, ks):
            out[done : done + take] = block[:take].reshape(take, -1) @ k
        done += take
        chunk_index += 1
    return outs


@dataclass(frozen=True)
class CharfunRow:
    t: float
    cf_abs: float
    stderr: float
    measured_exponent: float
    exact_exponent: float
    target_exponent: float


@dataclass(frozen=True)
class CharfunExperiment:
    alpha: float
    exact_scale: float        # finite-size sum |a_n k|^alpha
    continuum_integral: float  # grid integral of |G_f|^alpha
    calibration: float         # (2d)^alpha from the generator normalization
    rows: tuple[CharfunRow, ...]

    def fitted_scale(self, min_signal: float = 5.0) -> float:
        """Weighted through-origin fit of -log|phi| against t^alpha.

        Rows whose |phi| estimate sits below min_signal standard errors, or
        rounds to one, are dropped: the logarithm of a value consistent with
        zero, or of exactly one, carries no information about the decay
        exponent.
        """
        xs, ys, ws = [], [], []
        for r in self.rows:
            if r.cf_abs < min_signal * r.stderr or r.cf_abs >= 1.0:
                continue
            se_log = r.stderr / r.cf_abs
            xs.append(r.t ** self.alpha)
            ys.append(r.measured_exponent)
            ws.append(1.0 / (se_log * se_log))
        if not xs:
            raise ValueError("no characteristic-function row rises above the noise floor")
        x = np.asarray(xs)
        y = np.asarray(ys)
        w = np.asarray(ws)
        return float(np.sum(w * x * y) / np.sum(w * x * x))


def charfun_continuum_integral(f: TestFunction, alpha: float, quad_points: int = 256) -> float:
    """Midpoint-grid integral of |sum_z fhat(z) ||z||^-2 e^{-2 pi i z.x}|^alpha."""
    d = f.d
    axes = [(np.arange(quad_points) + 0.5) / quad_points] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    g = np.zeros_like(mesh[0], dtype=np.complex128)
    for z in f.support_frequencies():
        coeff = f.fourier_coefficient(z)
        if coeff == 0:
            continue
        norm2 = float(sum(v * v for v in z))
        phase = sum(zi * m for zi, m in zip(z, mesh))
        g += coeff / norm2 * np.exp(-2j * np.pi * phase)
    return float(np.mean(np.abs(g) ** alpha))


def run_charfun_experiment(
    alpha: float,
    fs: tuple[TestFunction, ...],
    shape: TorusShape,
    samples: int,
    seed: int = 0,
    ts=(0.5, 1.0, 2.0),
    quad_points: int = 256,
    scale: float = 1.0,
) -> tuple[CharfunExperiment, ...]:
    """Empirical characteristic function of the rescaled stable pairing.

    For exactly stable noise the pairing is itself stable, so the finite-size
    characteristic exponent is the exact sum |a_n k(x)|^alpha and the limit
    target is the continuum integral times the generator calibration.  Every
    test function in fs pairs with the same noise samples; one experiment
    comes back per function.
    """
    mode = ScalingMode("stable", alpha=alpha)
    op = OperatorSpec.nearest_neighbour(shape)
    a = scaling_constant(mode, shape)
    ks = [pairing_vector(op, f).ravel() for f in fs]
    pairings = _pairing_samples(SigmaSpec.stable(alpha, scale), shape, seed, samples, ks)
    calibration = (2.0 * shape.d) ** alpha * scale**alpha
    experiments = []
    for f, k, xs in zip(fs, ks, pairings):
        xs = xs * a
        exact_scale = float(np.sum(np.abs(k * a) ** alpha)) * scale**alpha
        cont = charfun_continuum_integral(f, alpha, quad_points)
        rows = []
        for t in ts:
            z = np.exp(1j * t * xs)
            cf = complex(z.mean())
            cf_abs = abs(cf)
            se_cf = math.sqrt(max(1.0 - cf_abs**2, 0.0) / (2.0 * samples)) + 1e-300
            measured = -math.log(max(cf_abs, 1e-300))
            rows.append(
                CharfunRow(
                    float(t),
                    cf_abs,
                    se_cf,
                    measured,
                    exact_scale * abs(t) ** alpha,
                    calibration * cont * abs(t) ** alpha,
                )
            )
        experiments.append(CharfunExperiment(alpha, exact_scale, cont, calibration, tuple(rows)))
    return tuple(experiments)


@dataclass(frozen=True)
class CurveRow:
    n: int
    value: EstimateWithCI


@dataclass(frozen=True)
class GrowthCurve:
    rows: tuple[CurveRow, ...]
    slope: float
    predicted_slope: float | None
    predicted_values: tuple[float, ...]


def mean_odometer_prediction(kind: str, d: int, n: float, alpha: float | None = None) -> float:
    """Growth-law prediction for the mean odometer, up to a constant.

    Nearest-neighbour: n^(2 - d/2) below dimension four, log n at four, and
    sqrt(log n) above.  Long-range with gamma = min(2, alpha): n^(gamma - d/2)
    when gamma exceeds d/2, log n at equality, sqrt(log n) below.  The last
    long-range case reads the evident regime ordering; see the package notes
    on the source table.
    """
    if kind == "nn":
        if d < 4:
            return float(n) ** (2.0 - d / 2.0)
        if d == 4:
            return math.log(n)
        return math.sqrt(math.log(n))
    if kind == "lr":
        g = min(2.0, float(alpha))
        if g > d / 2.0:
            return float(n) ** (g - d / 2.0)
        if g == d / 2.0:
            return math.log(n)
        return math.sqrt(math.log(n))
    raise ValueError(f"unknown operator kind {kind!r}")


def mean_odometer_exponent(kind: str, d: int, alpha: float | None = None) -> float | None:
    """Pure power exponent of the growth law, or None in a logarithmic regime."""
    if kind == "nn":
        return 2.0 - d / 2.0 if d < 4 else None
    g = min(2.0, float(alpha))
    return g - d / 2.0 if g > d / 2.0 else None


def mean_odometer_curve(
    kind: str,
    d: int,
    ns,
    samples: int,
    seed: int = 0,
    alpha: float | None = None,
    workers: int = 1,
) -> GrowthCurve:
    """Monte Carlo E[u(0)] = E[-min eta] across sizes, with the fitted slope.

    Gaussian noise throughout; eta is computed spectrally per replicate and
    the minimum taken over sites.  Sizes run independently; the worker count
    never changes the numbers.
    """
    def one_size(n: int) -> CurveRow:
        op = OperatorSpec(kind, TorusShape(d, int(n)), alpha=alpha)
        stats = _neg_min_eta_samples(op, samples, seed)
        mean = float(stats.mean())
        se = float(stats.std(ddof=1) / math.sqrt(samples))
        return CurveRow(int(n), EstimateWithCI(mean, se, samples))

    rows = parallel_map(one_size, ns, workers)
    slope = loglog_slope([r.n for r in rows], [r.value.point for r in rows])
    predicted = mean_odometer_exponent(kind, d, alpha)
    pred_vals = tuple(mean_odometer_prediction(kind, d, r.n, alpha) for r in rows)
    return GrowthCurve(tuple(rows), slope, predicted, pred_vals)


# Sites solved at once by _neg_min_eta_samples: the noise, its half spectrum
# and the potentials of one sub-batch are all that is held at a time.
SUB_BATCH_SITES = 1 << 20


def _neg_min_eta_samples(op: OperatorSpec, samples: int, seed: int) -> np.ndarray:
    shape = op.shape
    spec = SigmaSpec.iid_gaussian()
    out = np.empty(samples)
    # Chunk c supplies replicates c * per .. c * per + per - 1 from the head
    # of its stream; per caps the replicates a chunk is asked for at about
    # 4,000,000 sites, which fixes the stream every replicate comes from.
    per = min(CHUNK_REPLICATES, max(1, 4_000_000 // shape.nsites))
    step = max(1, SUB_BATCH_SITES // shape.nsites)
    for first in range(0, samples, per):
        stop = min(first + per, samples)
        for lo in range(first, stop, step):
            hi = min(lo + step, stop)
            out[lo:hi] = _neg_min_eta(op, spec, seed, first // per, lo - first, hi - lo)
    return out


def _neg_min_eta(op: OperatorSpec, spec: SigmaSpec, seed: int, chunk_index: int,
                 start: int, count: int) -> np.ndarray:
    """-min eta of chunk positions start .. start + count - 1; its buffers die on return."""
    block = sigma_chunk(spec, op.shape, seed, chunk_index, count=count, start=start)
    eta = eta_sample_batch(op, block)
    return -eta.reshape(count, -1).min(axis=1)


def structure_prediction(kind: str, d: int, n: float, r: float, alpha: float | None = None) -> float:
    """Tabulated growth shape of E[(eta(r e1) - eta(0))^2], up to a constant."""
    if kind == "nn":
        if d == 1:
            return n * r**2
        if d == 2:
            return r**2 * math.log(n / r)
        if d == 3:
            return float(r)
        if d == 4:
            return math.log(1.0 + r)
        return 1.0
    if kind == "lr":
        a = float(alpha)
        half = d / 2.0
        if a > half + 1.0:
            return float(n) ** (2.0 * a - d - 2.0) * r**2
        if a == half + 1.0:
            return math.log(n / r) * r**2
        if a > half:
            return r ** (2.0 * a - d)
        if a == half:
            return math.log(r)
        return 1.0  # flat regime; the evident reading of the source table
    raise ValueError(f"unknown operator kind {kind!r}")


@dataclass(frozen=True)
class StructureCurve:
    rs: tuple[int, ...]
    values: tuple[float, ...]
    slope: float
    target_slope: float


def variance_structure_curve(
    kind: str,
    d: int,
    n: int,
    rs,
    alpha: float | None = None,
) -> StructureCurve:
    """Exact increment variances along the first axis, with fitted exponents.

    Both the measured values (from the exact covariance) and the tabulated
    formula are fitted over the same separations, so logarithmic corrections
    enter both sides of the comparison identically.
    """
    rs = [int(r) for r in rs]
    cov = covariance_profile(kind, d, n, [0] + rs, alpha=alpha)
    c0 = cov[0]
    values = [2.0 * (c0 - c) for c in cov[1:]]
    slope = loglog_slope(rs, values)
    formula = [structure_prediction(kind, d, n, r, alpha) for r in rs]
    target = loglog_slope(rs, formula)
    return StructureCurve(tuple(rs), tuple(values), slope, target)


def covariance_profile(kind: str, d: int, n: int, rs, alpha: float | None = None) -> np.ndarray:
    """Exact eta covariance at offsets r e1 under independent Gaussian noise.

    Small grids go through the full covariance table.  Large nearest-neighbour
    grids (high dimension) sum 1/lambda^2 over the transverse frequencies one
    first-axis frequency at a time, in a single preallocated n^(d-1) buffer
    (add, scale, square and invert in place; the zero mode inverts to 0), so
    nothing of size n^d is ever materialized and the loop allocates nothing.
    """
    shape = TorusShape(d, n)
    rs = [int(r) for r in rs]
    if kind == "nn" and shape.nsites > 2_000_000:
        s1 = np.sin(np.pi * np.arange(n) / n) ** 2
        rest = axis_sum(s1, d - 1)
        sums = np.empty(n)
        buf = np.empty_like(rest)
        for w1 in range(n):
            np.add(rest, s1[w1], out=buf)
            np.multiply(buf, 2.0 / d, out=buf)  # |lambda|; its sign drops out when squared
            np.square(buf, out=buf)
            if w1 == 0:
                buf.flat[0] = np.inf  # the zero mode, the only zero of lambda: 1/inf = 0
            np.reciprocal(buf, out=buf)
            sums[w1] = buf.sum()
        phases = np.cos(2.0 * np.pi * np.outer(rs, np.arange(n)) / n)
        # Mode weight 1/nsites, matching eta_covariance_exact for white noise.
        return (phases @ sums) / shape.nsites
    table = eta_covariance_exact(OperatorSpec(kind, shape, alpha=alpha)).values
    out = []
    for r in rs:
        idx = tuple([int(r) % n] + [0] * (d - 1))
        out.append(table[idx])
    return np.asarray(out)


@dataclass(frozen=True)
class DecayResult:
    valid: bool
    reason: str
    slope: float | None
    predicted_slope: float | None
    values: tuple[float, ...]


def covariance_decay_slope(kind: str, d: int, n: int, rs, alpha: float | None = None) -> DecayResult:
    """Log-log decay rate of the covariance along the first axis.

    Polynomial decay only exists above the critical dimension (d > 4 for the
    nearest-neighbour kernel, d > 2 alpha for the long-range one); below it a
    flag comes back instead of a meaningless fit.
    """
    rs = [int(r) for r in rs]
    if kind == "nn":
        if d < 5:
            return DecayResult(False, f"no polynomial decay regime at d={d} (needs d >= 5)", None, None, ())
        predicted = 4.0 - d
    elif kind == "lr":
        if not (alpha and 2.0 * alpha < d):
            return DecayResult(
                False,
                f"no polynomial decay regime at d={d}, alpha={alpha} (needs d > 2 alpha)",
                None,
                None,
                (),
            )
        predicted = 2.0 * alpha - d
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    values = covariance_profile(kind, d, n, rs, alpha=alpha)
    if np.any(values <= 0):
        return DecayResult(False, "covariance is not positive over the requested range", None, predicted, tuple(values))
    slope = float(np.polyfit(np.log(rs), np.log(values), 1)[0])
    return DecayResult(True, "", slope, predicted, tuple(values))


@dataclass(frozen=True)
class HurstReport:
    """Smoothness classification of the long-range limit field."""

    h: float
    regime: str  # "distribution" | "boundary" | "function"
    derivatives_reported: int | None
    derivatives_usual: int | None
    ambiguous: bool


def hurst_classify(alpha: float, d: int) -> HurstReport:
    """Classify the limit field by H = alpha - d/2.

    Negative H is a genuine distribution, H = 0 the boundary case.  For
    non-integer H in (k, k+1) two derivative counts are reported: the
    convention this mirrors states k - 1 continuous derivatives, while the
    usual Holder counting gives k.  The pair is flagged ambiguous so callers
    surface both.
    """
    h = float(alpha) - d / 2.0
    if h < 0:
        return HurstReport(h, "distribution", None, None, False)
    if h == 0:
        return HurstReport(h, "boundary", None, None, False)
    if h == math.floor(h):
        # integer H sits between the open intervals the counting applies to
        return HurstReport(h, "function", None, None, False)
    k = int(math.floor(h))
    return HurstReport(h, "function", k - 1, k, True)
