"""State containers, summary statistics and their standard errors."""

import math
import warnings

import numpy as np
import pytest

from liftedheston import (
    PathState,
    RngStream,
    SimDiagnostics,
    mean_se,
    simulate_clp,
    simulate_euler,
    variance_se,
)
from liftedheston.state import _BLOCK, _path_blocks


def test_initial_state_layout(set1):
    st = PathState.initial(set1, 7)
    assert st.t == set1.t0
    assert st.u.shape == (7, 5) and np.all(st.u == 0.0)
    assert np.allclose(st.v, set1.v0)
    assert np.allclose(st.log_s, np.log(set1.s0))
    assert np.all(st.x_cum == 0.0) and np.all(st.z_cum == 0.0)
    assert st.n_paths == 7


def test_state_copy_is_deep(set1):
    st = PathState.initial(set1, 3)
    cp = st.copy()
    cp.u[0, 0] = 99.0
    cp.v[1] = 99.0
    assert st.u[0, 0] == 0.0
    assert st.v[1] == set1.v0


def test_mean_se_values():
    m, se = mean_se(np.array([1.0, 2.0, 3.0, 4.0]))
    assert m == pytest.approx(2.5)
    assert se == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2.0)
    m1, se1 = mean_se(np.array([5.0]))
    assert m1 == 5.0 and se1 == np.inf


def _bootstrap_variance_se(samples, n_resamples=100, seed=603_217):
    """Reference: the bootstrap standard error that ``variance_se`` replaced."""
    n = samples.shape[0]
    gen = np.random.Generator(np.random.Philox(key=seed))
    stats = np.empty(n_resamples)
    for b in range(n_resamples):
        stats[b] = np.var(samples[gen.integers(0, n, size=n)], ddof=1)
    return float(np.std(stats, ddof=1))


def test_variance_se_exact_value():
    # mean 4, deviations -3 -2 -1 0 6: s^2 = 50 / 4, m4 = 1394 / 5
    var, se = variance_se(np.array([1.0, 2.0, 3.0, 4.0, 10.0]))
    assert var == 12.5
    n, s2, m4 = 5, 12.5, 1394 / 5
    assert se == pytest.approx(math.sqrt((m4 - (n - 3) / (n - 1) * s2**2) / n), rel=1e-15)
    assert se == pytest.approx(6.335219017524177, rel=1e-15)


def test_variance_se_normal_theory_and_bootstrap():
    rng = np.random.default_rng(44)
    x = rng.normal(size=20_000)
    var, se = variance_se(x)
    assert var == float(np.var(x, ddof=1))
    assert (var, se) == variance_se(x), "same array, same bits"
    theory = var * np.sqrt(2.0 / (x.size - 1))
    assert abs(se / theory - 1.0) < 0.1
    assert abs(se / _bootstrap_variance_se(x) - 1.0) < 0.15
    # a skewed law, where normal theory is off by half: the fourth
    # moment carries the error, as the bootstrap sees it too
    y = rng.exponential(size=20_000)
    assert abs(variance_se(y)[1] / _bootstrap_variance_se(y) - 1.0) < 0.15


def test_variance_se_few_samples():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        var1, se1 = variance_se(np.array([5.0]))
        var2, se2 = variance_se(np.array([1.0, 3.0]))
    assert math.isnan(var1) and se1 == np.inf
    assert var2 == 2.0 and math.isfinite(se2) and se2 > 0.0


def test_constrained_fraction_guard():
    d = SimDiagnostics()
    assert d.constrained_fraction == 0.0
    d.total_draws = 10
    d.constrained_draws = 4
    assert d.constrained_fraction == pytest.approx(0.4)


def test_summary_keys_and_consistency(set1, curve):
    out = simulate_clp(set1, curve, [0.0, 0.5, 1.0], 4000, 31)
    s = out.summary()
    for key in ("n_paths", "mean_s", "se_mean_s", "mean_v", "se_mean_v",
                "mean_x", "se_mean_x", "var_x", "se_var_x"):
        assert key in s
    assert s["n_paths"] == 4000.0 and isinstance(s["n_paths"], int)
    assert s["mean_x"] == pytest.approx(float(np.mean(out.x)))
    assert s["var_x"] == pytest.approx(float(np.var(out.x, ddof=1)))
    assert s["se_var_x"] > 0.0


@pytest.mark.parametrize("simulate", [simulate_clp, simulate_euler])
def test_restart_from_snapshot_is_bitwise(set1, curve, simulate):
    """A snapshot passed back as ``initial`` continues the run exactly."""
    full = simulate(set1, curve, [0.0, 0.25, 0.5, 0.75, 1.0], 1000, RngStream(13))
    stream = RngStream(13)
    leg1 = simulate(set1, curve, [0.0, 0.25, 0.5], 1000, stream, snapshot_times=(0.5,))
    snap = leg1.snapshots[0.5]
    leg2 = simulate(set1, curve, [0.5, 0.75, 1.0], 1000, stream, initial=snap)
    for name in ("s", "v", "x", "z"):
        assert np.array_equal(getattr(leg2, name), getattr(full, name)), name
    assert np.array_equal(snap.x_cum, leg1.x), "restarting must not touch the snapshot"


def _layout_sizes():
    """Path counts from 1 to 1e8: small ones, the edges around multiples
    of 1,024 and of 8,188 (where the block count steps up), a seeded
    sample, and the stretch near 1.7e7 where a ceiling-sized layout
    leaves its last block empty."""
    edges = {k * m + d for m in (1024, 8188) for k in range(1, 200) for d in range(-5, 6)}
    sample = np.random.default_rng(0).integers(1, 10**8, size=300, endpoint=True)
    near = range(16_998_400 - 40, 17_000_000 + 40, 7)
    return sorted(set(range(1, 101)) | edges | set(sample.tolist()) | set(near) | {10**8})


@pytest.mark.parametrize("workers", [1, 2, 3, 64])
def test_path_blocks_layout(workers):
    for n in _layout_sizes():
        blocks = _path_blocks(n, workers)
        starts = [lo for lo, _ in blocks]
        sizes = [hi - lo for lo, hi in blocks]
        assert starts[0] == 0 and blocks[-1][1] == n, n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:])), n
        assert all(lo % 4 == 0 for lo in starts), n
        assert min(sizes) >= min(n, _BLOCK), n
        assert max(sizes) < 2 * _BLOCK, n
        # the last block is the longest, as the docstring promises
        assert sizes[-1] == max(sizes), n
        if n < 2 * _BLOCK:
            assert len(blocks) == 1, n
        if len(blocks) * _BLOCK <= n - workers * _BLOCK:
            # room for another round of blocks, so each worker got as many
            assert len(blocks) % workers == 0, n
