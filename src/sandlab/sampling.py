"""Random initial configurations for the sandpile experiments.

A configuration is s = 1 + sigma - mean(sigma), so the total mass is exactly
the number of sites and stabilization is always on the table.  The noise field
sigma comes in five flavors: independent Gaussians, spectrally colored
Gaussians, symmetric alpha-stable, symmetrized Pareto, and centered uniforms.

Draws are keyed per (seed, stream, replicate) in counter-based Philox
streams, so two calls with the same seed are bit-identical no matter how the
surrounding code is chunked.

Replicate r of a stream reads its own Philox substream, at counter offset
r << 64.  Gaussian regimes (independent, and correlated before its spectral
filter) fill it with ziggurat ``standard_normal`` draws; the others draw the
uniform planes their explicit inverse transforms read, one or two per site.
So any replicate can be drawn alone, and a shorter chunk is a prefix of a
longer one.

Every sampled experiment walks its replicates through `replicate_blocks`:
one layout (replicate r is position r % CHUNK_REPLICATES of chunk
r // CHUNK_REPLICATES) in blocks of at most SUB_BATCH_SITES sites, so the
noise held at a time does not grow with the replicate count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import generator
from .lattice import LatticeField, TorusShape, _reverse_indices, half_grid_product

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


def half_multiplier(khat, shape: TorusShape) -> np.ndarray:
    """khat on the rfftn half grid, once it is a legitimate covariance spectrum.

    Required: real entries, strictly positive away from frequency zero, and
    even under w -> -w.  A half-grid transform reads only this half, so it
    would silently symmetrize an uneven multiplier; any violation raises
    ValueError.
    """
    k = np.asarray(khat)
    if np.iscomplexobj(k):
        if np.max(np.abs(k.imag)) > 1e-12 * max(1.0, np.max(np.abs(k.real))):
            raise _rejected("multiplier has a nonreal entry")
        k = k.real
    k = k.astype(np.float64)
    if k.shape != shape.dims:
        raise _rejected(f"multiplier shape {k.shape} does not match {shape.dims}")
    if not np.all(np.isfinite(k)):
        raise _rejected("multiplier has a non-finite entry")
    if np.any(k.ravel()[1:] <= 0):
        raise _rejected("multiplier must be positive away from frequency zero")
    if np.max(np.abs(_reverse_indices(k) - k)) > 1e-9 * max(1.0, float(np.max(np.abs(k)))):
        raise _rejected("multiplier is not even under frequency negation")
    return k[..., : shape.n // 2 + 1]


def _rejected(reason: str) -> ValueError:
    return ValueError(f"covariance multiplier rejected: {reason}")


def _planes_read(spec: SigmaSpec) -> int:
    """Uniform planes the regime's transform reads: none (Gaussian), u0, or u0 and u1."""
    if spec.regime in ("iid-gaussian", "correlated-gaussian"):
        return 0
    if spec.regime == "pareto" or (spec.regime == "stable" and spec.alpha != 1.0):
        return 2
    return 1


def _site_block(seed, shape: TorusShape, count: int, stream, planes: int,
                start: int = 0) -> np.ndarray:
    """Draws of replicates start .. start + count - 1 of a stream.

    Replicate r reads a fresh copy of the stream from counter offset r << 64.
    With planes = 0 the block is standard normals (count,) + dims, else
    uniforms (count, planes) + dims clipped into the open unit interval.
    """
    gen = generator(seed, *stream)
    bits, state = gen.bit_generator, gen.bit_generator.state
    counter = state["state"]["counter"]  # zero in a fresh stream, so setting word 1 is advance(r << 64)
    x = np.empty((count,) + ((planes,) if planes else ()) + shape.dims)
    draw = gen.random if planes else gen.standard_normal
    for r, row in enumerate(x.reshape(count, -1)):
        counter[1] = start + r
        bits.state = state
        draw(out=row)
    return np.clip(x, _U_LO, _U_HI, out=x) if planes else x


def _transform(spec: SigmaSpec, x: np.ndarray, shape: TorusShape) -> np.ndarray:
    """Map the draws of `_site_block` to sigma variates (count,) + dims."""
    if spec.regime == "iid-gaussian":
        return x
    if spec.regime == "iid-uniform-centered":
        return (x[:, 0] - 0.5) * np.sqrt(12.0)
    if spec.regime == "stable":
        return spec.scale * _stable_standard(spec.alpha, x)
    if spec.regime == "pareto":
        magnitude = (1.0 - x[:, 1]) ** (-1.0 / spec.index)
        sign = np.where(x[:, 0] < 0.5, -1.0, 1.0)
        # random-sign symmetrization already has median zero, so no extra shift
        return sign * magnitude
    if spec.regime == "correlated-gaussian":
        return color(spec, shape, _transform(unfiltered(spec), x, shape))
    raise ValueError(f"unknown sigma regime {spec.regime!r}")


def unfiltered(spec: SigmaSpec) -> SigmaSpec:
    """The regime whose draws spec's noise is made of before any filter.

    Correlated noise is `color` applied to the iid Gaussian draws of the same
    stream, replicate for replicate; every other regime is its own.
    """
    return SigmaSpec.iid_gaussian() if spec.regime == "correlated-gaussian" else spec


def color(spec: SigmaSpec, shape: TorusShape, x: np.ndarray) -> np.ndarray:
    """The correlated regime's filter F over the trailing d axes of x.

    F multiplies frequency w by sqrt(nsites * khat(w)).  F is real, even and
    so symmetric: <F x, k> = <x, F k>.
    """
    amp = np.sqrt(shape.nsites * half_multiplier(spec.khat, shape))
    return half_grid_product(x, amp, shape)


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
    """One noise field; bit-identical for equal (spec, shape, seed).

    A draw that overflows (a heavy tail at a tiny stable alpha or Pareto
    index) raises ValueError naming the regime, its parameter and n.
    """
    x = _site_block(seed, shape, 1, (_FIELD_STREAM,), _planes_read(spec))
    with np.errstate(all="ignore"):  # a non-finite draw is refused below
        values = _transform(spec, x, shape)[0]
    if not np.all(np.isfinite(values)):
        name = {"stable": "alpha", "pareto": "index"}.get(spec.regime)
        label = spec.regime if name is None else f"{spec.regime} {name} = {getattr(spec, name):g}"
        raise ValueError(f"{label} at n = {shape.n} leaves float range")
    return LatticeField(shape, values)


def sigma_chunk(spec: SigmaSpec, shape: TorusShape, seed: int, chunk_index: int,
                count: int = CHUNK_REPLICATES, start: int = 0) -> np.ndarray:
    """Replicates start .. start + count - 1 of a chunk, as (count,) + dims.

    Replicate r of an experiment lives at position r % CHUNK_REPLICATES of
    chunk r // CHUNK_REPLICATES, so chunked and monolithic consumers see
    identical fields, and any run of positions can be drawn on its own:
    each replicate reads its own substream of the chunk's stream.
    """
    x = _site_block(seed, shape, count, (_CHUNK_STREAM, chunk_index), _planes_read(spec), start)
    return _transform(spec, x, shape)


def replicate_sigma(spec: SigmaSpec, shape: TorusShape, seed: int, index: int) -> np.ndarray:
    """Field of a single replicate, consistent with sigma_chunk layout."""
    chunk_index, start = divmod(index, CHUNK_REPLICATES)
    return sigma_chunk(spec, shape, seed, chunk_index, count=1, start=start)[0]


# Sites one block of `replicate_blocks` holds, unless a single field is larger.
SUB_BATCH_SITES = 1 << 18


def replicate_blocks(spec: SigmaSpec, shape: TorusShape, seed: int, samples: int):
    """Replicates 0 .. samples - 1 as (lo, block) pairs in replicate_sigma's layout.

    block is replicates lo .. lo + len(block) - 1, as (count,) + dims.  It
    stays inside one chunk and holds at most SUB_BATCH_SITES sites, or one
    replicate when a field is larger, so a consumer that drops each block
    before taking the next holds a bounded amount of noise.
    """
    step = max(1, SUB_BATCH_SITES // shape.nsites)
    lo = 0
    while lo < samples:
        chunk_index, start = divmod(lo, CHUNK_REPLICATES)
        count = min(step, CHUNK_REPLICATES - start, samples - lo)
        yield lo, sigma_chunk(spec, shape, seed, chunk_index, count=count, start=start)
        lo += count


def make_initial_config(sigma: LatticeField) -> LatticeField:
    """Height field 1 + sigma - mean(sigma), whose total mass is the site count.

    Refuses noise so heavy-tailed that centring it cancels in double precision:
    a mass off the site count by more than 1e-9 of it (or NaN) means nothing.
    """
    v = sigma.values
    heights = 1.0 + v - v.mean()
    mass, nsites = float(heights.sum()), sigma.shape.nsites
    if not abs(mass - nsites) <= 1e-9 * nsites:
        raise ValueError(f"initial heights sum to {mass!r}, not the site count {nsites}: "
                         "the noise is too heavy-tailed to center in double precision")
    return LatticeField(sigma.shape, heights)
