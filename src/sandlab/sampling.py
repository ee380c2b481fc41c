"""Random initial configurations for the sandpile experiments.

A configuration is s = 1 + sigma - mean(sigma), so the total mass is exactly
the number of sites and stabilization is always on the table.  The noise field
sigma comes in five flavors: independent Gaussians, spectrally colored
Gaussians, symmetric alpha-stable, symmetrized Pareto, and centered uniforms.

Draws are keyed per (seed, site): every site owns a fixed block of
uniforms from a counter-based stream and variates are produced from those
uniforms by explicit inverse transforms.  Two calls with the same seed are
bit-identical no matter how the surrounding code is threaded or chunked.

The stream layout is two uniform planes per site, replicate after
replicate, whatever the regime.  A regime whose transform reads only the
first plane (Gaussian, uniform, correlated, and stable at alpha = 1) skips
the second by advancing the Philox counter, and a reader that starts inside
a chunk skips the replicates before it the same way.  Skipped draws are
never computed, and every draw that is read keeps its stream position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.special import ndtri

from ._util import generator
from .lattice import LatticeField, TorusShape, _reverse_indices

_DRAWS_PER_SITE = 2
_FIELD_STREAM = 0
_CHUNK_STREAM = 1
CHUNK_REPLICATES = 256

_U_LO = 1e-15
_U_HI = float(np.nextafter(1.0, 0.0))


@dataclass(frozen=True)
class SigmaSpec:
    """Noise regime plus the parameters that regime needs."""

    regime: str
    khat: np.ndarray | None = None
    alpha: float | None = None
    scale: float = 1.0
    index: float | None = None

    @classmethod
    def iid_gaussian(cls) -> "SigmaSpec":
        return cls("iid-gaussian")

    @classmethod
    def iid_uniform(cls) -> "SigmaSpec":
        return cls("iid-uniform-centered")

    @classmethod
    def correlated_gaussian(cls, khat) -> "SigmaSpec":
        return cls("correlated-gaussian", khat=np.asarray(khat, dtype=np.float64))

    @classmethod
    def stable(cls, alpha: float, scale: float = 1.0) -> "SigmaSpec":
        if not (0 < alpha <= 2):
            raise ValueError(f"stable exponent must lie in (0, 2], got {alpha}")
        if scale <= 0:
            raise ValueError("stable scale must be positive")
        return cls("stable", alpha=float(alpha), scale=float(scale))

    @classmethod
    def pareto(cls, index: float) -> "SigmaSpec":
        if index <= 0:
            raise ValueError("Pareto index must be positive")
        return cls("pareto", index=float(index))


@dataclass(frozen=True)
class MultiplierCheck:
    """Outcome of validating a covariance multiplier."""

    valid: bool
    reason: str = ""
    frequency: tuple[int, ...] | None = None


def validate_multiplier(khat, shape: TorusShape) -> MultiplierCheck:
    """Check that a frequency map is a legitimate covariance spectrum.

    Required: real entries, strictly positive away from frequency zero, and
    even under w -> -w.  Violations come back as a structured report with the
    first offending frequency.
    """
    k = np.asarray(khat)
    if np.iscomplexobj(k):
        if np.max(np.abs(k.imag)) > 1e-12 * max(1.0, np.max(np.abs(k.real))):
            return MultiplierCheck(False, "multiplier has a nonreal entry")
        k = k.real
    k = k.astype(np.float64)
    if k.shape != shape.dims:
        return MultiplierCheck(False, f"multiplier shape {k.shape} does not match {shape.dims}")
    if not np.all(np.isfinite(k)):
        idx = np.unravel_index(int(np.argmin(np.isfinite(k))), k.shape)
        return MultiplierCheck(False, "multiplier has a non-finite entry", idx)
    flat = k.ravel()
    bad = np.flatnonzero(flat[1:] <= 0)
    if bad.size:
        idx = np.unravel_index(int(bad[0]) + 1, k.shape)
        return MultiplierCheck(False, "multiplier must be positive away from frequency zero", idx)
    mism = np.abs(_reverse_indices(k) - k)
    scale = max(1.0, float(np.max(np.abs(k))))
    if np.max(mism) > 1e-9 * scale:
        idx = np.unravel_index(int(np.argmax(mism)), k.shape)
        return MultiplierCheck(False, "multiplier is not even under frequency negation", idx)
    return MultiplierCheck(True)


def _planes_read(spec: SigmaSpec) -> int:
    """Uniform planes the regime's transform reads: u0 alone, or u0 and u1."""
    if spec.regime == "pareto" or (spec.regime == "stable" and spec.alpha != 1.0):
        return _DRAWS_PER_SITE
    return 1


def _seek(gen: np.random.Generator, pos: int, to: int) -> None:
    """Move gen from double `pos` of its stream to double `to` >= pos.

    One Philox counter step yields four doubles.  The rest of the step in
    progress is drawn, whole steps are skipped with ``advance`` and the
    unaligned tail is drawn.
    """
    head = min(to, -(-pos // 4) * 4) - pos
    gen.random(head)
    rest = to - pos - head
    if rest:  # advance, even advance(0), drops the doubles left in the buffer
        gen.bit_generator.advance(rest // 4)
        gen.random(rest % 4)


def _site_uniform_block(seed, shape: TorusShape, count: int, stream, planes: int,
                        start: int = 0) -> np.ndarray:
    """Uniforms (count, planes) + dims of replicates start .. start + count - 1.

    Each replicate owns _DRAWS_PER_SITE planes of the stream; the first
    `planes` are read and everything else is skipped.
    """
    gen = generator(seed, *stream)
    u = np.empty((count, planes) + shape.dims)
    stride = _DRAWS_PER_SITE * shape.nsites
    pos = 0
    for r, row in enumerate(u.reshape(count, -1)):
        at = (start + r) * stride
        _seek(gen, pos, at)
        gen.random(out=row)
        pos = at + row.size
    return np.clip(u, _U_LO, _U_HI, out=u)


def _transform(spec: SigmaSpec, u: np.ndarray, shape: TorusShape) -> np.ndarray:
    """Map per-site uniforms (count, planes) + dims to sigma variates.

    Gaussian regimes overwrite the first plane of u.
    """
    u0 = u[:, 0]
    if spec.regime == "iid-gaussian":
        return ndtri(u0, out=u0)
    if spec.regime == "iid-uniform-centered":
        return (u0 - 0.5) * np.sqrt(12.0)
    if spec.regime == "stable":
        return spec.scale * _stable_standard(spec.alpha, u)
    if spec.regime == "pareto":
        magnitude = (1.0 - u[:, 1]) ** (-1.0 / spec.index)
        sign = np.where(u0 < 0.5, -1.0, 1.0)
        # random-sign symmetrization already has median zero, so no extra shift
        return sign * magnitude
    if spec.regime == "correlated-gaussian":
        check = validate_multiplier(spec.khat, shape)
        if not check.valid:
            raise ValueError(f"covariance multiplier rejected: {check.reason}")
        white = ndtri(u0, out=u0)
        # khat is even (checked above), so the half grid carries all of it.
        amp = np.sqrt(shape.nsites * np.asarray(spec.khat, dtype=np.float64)[..., : shape.n // 2 + 1])
        axes = tuple(range(1, white.ndim))
        coeffs = scipy.fft.rfftn(white, axes=axes)
        coeffs *= amp
        return scipy.fft.irfftn(coeffs, s=shape.dims, axes=axes)
    raise ValueError(f"unknown sigma regime {spec.regime!r}")


def _stable_standard(alpha: float, u: np.ndarray) -> np.ndarray:
    """Symmetric alpha-stable variates with unit scale from uniform pairs.

    Inverse construction from an angle U uniform on (-pi/2, pi/2) and an
    independent unit exponential W; the characteristic function of the result
    is exp(-|t|^alpha).  At alpha = 1 this is tan(U), a standard Cauchy, and
    the second plane of u is not read; at alpha = 2 it collapses to
    2 sqrt(W) sin(U), a centered Gaussian with variance two.
    """
    theta = np.pi * (u[:, 0] - 0.5)
    if alpha == 1.0:
        return np.tan(theta)
    w = -np.log(1.0 - u[:, 1])
    a = alpha
    x = np.sin(a * theta) / np.cos(theta) ** (1.0 / a)
    x = x * (np.cos((1.0 - a) * theta) / w) ** ((1.0 - a) / a)
    return x


def sample_sigma(spec: SigmaSpec, shape: TorusShape, seed: int) -> LatticeField:
    """One noise field; bit-identical for equal (spec, shape, seed)."""
    u = _site_uniform_block(seed, shape, 1, (_FIELD_STREAM,), _planes_read(spec))
    return LatticeField(shape, _transform(spec, u, shape)[0])


def sigma_chunk(spec: SigmaSpec, shape: TorusShape, seed: int, chunk_index: int,
                count: int = CHUNK_REPLICATES, start: int = 0) -> np.ndarray:
    """Replicates start .. start + count - 1 of a chunk, as (count,) + dims.

    Replicate r of an experiment lives at position r % count of chunk
    r // count, so chunked and monolithic consumers see identical fields,
    and any run of positions can be drawn on its own.  The chunk's stream
    keeps two uniform planes per site; the replicates before `start` and the
    planes the regime does not read are skipped, not drawn.
    """
    u = _site_uniform_block(seed, shape, count, (_CHUNK_STREAM, chunk_index),
                            _planes_read(spec), start)
    return _transform(spec, u, shape)


def replicate_sigma(spec: SigmaSpec, shape: TorusShape, seed: int, index: int) -> np.ndarray:
    """Field of a single replicate, consistent with sigma_chunk layout."""
    chunk_index, start = divmod(index, CHUNK_REPLICATES)
    return sigma_chunk(spec, shape, seed, chunk_index, count=1, start=start)[0]


def make_initial_config(sigma: LatticeField) -> LatticeField:
    """Height field 1 + sigma - mean(sigma); total mass is exactly the site count."""
    v = sigma.values
    return LatticeField(sigma.shape, 1.0 + v - v.mean())
