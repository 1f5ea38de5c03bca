"""Random draws: counter-based streams and the inverse Gaussian sampler.

Streams are Philox counter-based generators keyed by (seed, stream_id),
so the draw sequence of a stream depends only on that pair, never on
platform or scheduling.  Simulations consume one stream and draw whole
path-vectors per step in a fixed order; independent purposes (e.g. a
benchmark run) take a different stream_id of the same master seed.  The
step kernels take raw draws and transform them in their own blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RngStream",
    "sample_inverse_gaussian",
]


@dataclass
class RngStream:
    """Deterministic random stream keyed by (seed, stream_id)."""

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        # each fills one 64-bit half of the Philox key, so a larger value
        # would alias a smaller one
        if not (0 <= self.seed < 2**64 and 0 <= self.stream_id < 2**64):
            raise ValueError("seed and stream_id must be >= 0 and < 2**64")
        key = int(self.seed) | (int(self.stream_id) << 64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def uniform(self, size=None):
        return self._gen.random(size)


def sample_inverse_gaussian(stream: RngStream, mu, gamma, size=None):
    """Inverse Gaussian IG(mu, gamma) draws by the transformation method.

    The density is sqrt(gamma / (2 pi x^3)) exp(-gamma (x - mu)^2 /
    (2 mu^2 x)) on x > 0, with mean mu and variance mu^3 / gamma.  One
    squared standard normal y gives the smaller root of the defining
    quadratic,

        x_minus = mu / (1 + w/2 + sqrt(w + w^2/4)),   w = mu y / gamma,

    (the algebraically equivalent mu (1 + w/2 - sqrt(w + w^2/4)) suffers
    cancellation for large w; the roots multiply to mu^2), and a uniform
    picks x_minus with probability mu / (mu + x_minus), else mu^2 / x_minus.

    ``mu`` and ``gamma`` must be positive; both broadcast against ``size``
    so each draw can carry its own parameters.  The draws come first, the
    normal then the uniform, and ``_inverse_gaussian`` maps them.
    """
    y = stream.normal(size)
    pick = stream.uniform(size)
    mu = np.asarray(mu, dtype=float)
    if np.any(mu <= 0.0):
        raise ValueError("mu and gamma must be > 0")
    out = _inverse_gaussian(mu, np.asarray(gamma, dtype=float), y, pick)
    return float(out) if out.ndim == 0 else out


def _inverse_gaussian(mu, gamma, normal, uniform):
    """IG(mu, gamma) values from standard normals and uniforms already drawn.

    The transform of :func:`sample_inverse_gaussian`; the projection
    step calls it per block of paths on its own draws.  ``mu`` and
    ``gamma`` are float arrays, and ``mu`` must be positive, as the
    step's sampling mean is by construction.  A ``gamma`` at or below 0,
    such as a shape (alpha / beta)^2 that underflows, raises
    ``ValueError``; one reduction shows that there is none.
    """
    if not gamma.min(initial=np.inf) > 0.0 and np.any(gamma <= 0.0):
        raise ValueError("mu and gamma must be > 0")
    y = np.square(normal)
    w = mu * y / gamma
    x_minus = mu / (1.0 + 0.5 * w + np.sqrt(w + 0.25 * np.square(w)))
    take_minus = uniform <= mu / (mu + x_minus)
    return np.where(take_minus, x_minus, np.square(mu) / x_minus)
