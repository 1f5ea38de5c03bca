"""Random streams and the inverse Gaussian sampler."""

import numpy as np
import pytest
from scipy import stats

from liftedheston import (
    RngStream,
    sample_inverse_gaussian,
)


def test_stream_reproducibility():
    a = RngStream(123, stream_id=4).normal(64)
    b = RngStream(123, stream_id=4).normal(64)
    assert np.array_equal(a, b)


def test_streams_differ_by_seed_and_id():
    base = RngStream(123, stream_id=0).normal(256)
    other_seed = RngStream(124, stream_id=0).normal(256)
    other_id = RngStream(123, stream_id=1).normal(256)
    assert not np.array_equal(base, other_seed)
    assert not np.array_equal(base, other_id)
    # distinct streams should look independent, not shifted copies
    assert abs(np.corrcoef(base, other_id)[0, 1]) < 0.2


def test_stream_rejects_negative_keys():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(1, stream_id=-2)


def test_stream_rejects_keys_past_64_bits():
    # 2**64 + 5 used to be masked down to seed 5 and draw its numbers
    for seed, stream_id in ((2**64, 0), (2**64 + 5, 0), (1, 2**64)):
        with pytest.raises(ValueError, match=r"< 2\*\*64"):
            RngStream(seed, stream_id=stream_id)
    top = RngStream(2**64 - 1, stream_id=2**64 - 1).normal(8)
    assert not np.array_equal(top, RngStream(0).normal(8))


def test_normal_and_uniform_moments():
    stream = RngStream(9)
    z = stream.normal(200_000)
    assert abs(np.mean(z)) < 0.01
    assert abs(np.std(z) - 1.0) < 0.01
    u = stream.uniform(200_000)
    assert 0.0 < np.min(u) and np.max(u) < 1.0
    assert abs(np.mean(u) - 0.5) < 0.005


def test_inverse_gaussian_moments_and_support():
    rng_cases = [(1.0, 1.0), (0.1, 4.0), (2.0, 0.5), (5.0, 0.02)]
    for i, (mu, gam) in enumerate(rng_cases):
        x = sample_inverse_gaussian(RngStream(31, stream_id=i), mu, gam, size=100_000)
        assert np.all(x > 0)
        se = np.sqrt(mu**3 / gam / x.size)
        assert abs(np.mean(x) - mu) < 5 * se, f"mu={mu} gamma={gam}"
        assert abs(np.var(x, ddof=1) / (mu**3 / gam) - 1.0) < 0.1


def test_inverse_gaussian_distribution_ks():
    mu, gam = 0.7, 2.0
    x = sample_inverse_gaussian(RngStream(32), mu, gam, size=100_000)
    # scipy parametrizes IG(mean m, shape g) as invgauss(m/g, scale=g)
    ks = stats.kstest(x, stats.invgauss(mu / gam, scale=gam).cdf).statistic
    assert ks < 0.006, f"ks={ks}"


def test_inverse_gaussian_vector_parameters():
    mu = np.array([0.5, 1.0, 2.0, 4.0])
    gam = np.array([1.0, 2.0, 1.0, 0.5])
    x = sample_inverse_gaussian(RngStream(33), np.tile(mu, 25_000), np.tile(gam, 25_000), size=100_000)
    x = x.reshape(25_000, 4)
    for j in range(4):
        se = np.sqrt(mu[j] ** 3 / gam[j] / 25_000)
        assert abs(np.mean(x[:, j]) - mu[j]) < 5 * se


def test_inverse_gaussian_extreme_parameters_stay_finite():
    # the two-root selection must not cancel catastrophically
    x = sample_inverse_gaussian(RngStream(34), 1e4, 1e-3, size=10_000)
    assert np.all(np.isfinite(x)) and np.all(x > 0)
    y = sample_inverse_gaussian(RngStream(35), 1e-6, 1e3, size=10_000)
    assert np.all(np.isfinite(y)) and np.all(y > 0)


def test_inverse_gaussian_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sample_inverse_gaussian(RngStream(36), 0.0, 1.0, size=4)
    with pytest.raises(ValueError):
        sample_inverse_gaussian(RngStream(36), 1.0, -1.0, size=4)


def test_inverse_gaussian_draw_order_frozen():
    """Each draw consumes one normal then one uniform; reordering would
    silently change every downstream simulation, so pin a few values."""
    x = sample_inverse_gaussian(RngStream(1), 1.0, 1.0, size=3)
    stream = RngStream(1)
    y = np.square(stream.normal(3))
    u = stream.uniform(3)
    w = y
    x_minus = 1.0 / (1.0 + 0.5 * w + np.sqrt(w + 0.25 * w * w))
    expect = np.where(u <= 1.0 / (1.0 + x_minus), x_minus, 1.0 / x_minus)
    assert np.array_equal(x, expect)

