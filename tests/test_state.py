"""State containers, summary statistics and their standard errors."""

import math
import sys
import threading
import warnings

import numpy as np
import pytest

from liftedheston import (
    ModelParams,
    PathState,
    RngStream,
    SimDiagnostics,
    mean_se,
    clp_step,
    euler_step,
    precompute_step,
    simulate_clp,
    simulate_euler,
    variance_se,
)
from liftedheston import state as state_module
from liftedheston.state import _BLOCK, _DrawAhead, _path_blocks, _run_blocks


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


# each step's calls on the stream: the inverse Gaussian's normal and
# uniform and the price normal, or Euler's z_perp and z2
_STEP_CALLS = {simulate_clp: ("normal", "uniform", "normal"), simulate_euler: ("normal", "normal")}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("simulate", [simulate_clp, simulate_euler])
def test_completed_run_leaves_the_stream_where_stepping_does(set1, curve, monkeypatch,
                                                             simulate, workers):
    """The driver draws each step's numbers during the step before, but
    not after the last step: the run gives the bits of calling the step
    kernels one by one on a plain stream, and leaves its stream where a
    fresh stream that made the same calls stands."""
    monkeypatch.setattr(state_module, "_WORKERS", workers)
    n, grid = 2 * _BLOCK + 37, [0.0, 0.1, 0.25, 0.5]
    stream = RngStream(17)
    out = simulate(set1, curve, grid, n, stream)

    plain = RngStream(17)
    state = PathState.initial(set1, n)
    for t, t_next in zip(grid, grid[1:]):
        if simulate is simulate_clp:
            state = clp_step(state, precompute_step(set1, curve, t, t_next), set1, plain)
        else:
            state = euler_step(state, t_next, set1, curve, plain)
    for got, want in ((out.v, state.v), (out.x, state.x_cum), (out.z, state.z_cum)):
        assert np.array_equal(got, want)

    fresh = RngStream(17)
    for _ in grid[1:]:
        for kind in _STEP_CALLS[simulate]:
            getattr(fresh, kind)(n)
    want = fresh.normal(9)
    assert np.array_equal(stream.normal(9), want) and np.array_equal(plain.normal(9), want)


@pytest.mark.parametrize("field,cut", [
    ("u", np.s_[:5]), ("u", np.s_[:, :3]), ("log_s", np.s_[:5]), ("v", np.s_[:5]),
    ("x_cum", np.s_[:5]), ("z_cum", np.s_[:5]),
])
@pytest.mark.parametrize("simulate", [simulate_clp, simulate_euler])
def test_restart_rejects_an_initial_state_of_the_wrong_shape(set1, curve, simulate, field, cut):
    """A restart state whose field does not hold one row per path, or
    whose factors are not N wide, is refused with the field's name."""
    initial = PathState.initial(set1, 10)
    setattr(initial, field, getattr(initial, field)[cut])
    with pytest.raises(ValueError, match=rf"^initial\.{field} has shape "):
        simulate(set1, curve, [0.0, 0.1], 10, RngStream(1), initial=initial)


@pytest.mark.parametrize("simulate", [simulate_clp, simulate_euler])
def test_restart_over_several_blocks_is_bitwise(set1, curve, monkeypatch, simulate):
    """As above, with the paths cut into blocks on two threads; a snapshot
    is a row-major copy, also of the Euler step's column-major state."""
    monkeypatch.setattr(state_module, "_WORKERS", 2)
    n, grid = 2 * _BLOCK + 37, [0.0, 0.25, 0.5, 0.75, 1.0]
    full = simulate(set1, curve, grid, n, RngStream(13), snapshot_times=(1.0,))
    stream = RngStream(13)
    snap = simulate(set1, curve, grid[:3], n, stream, snapshot_times=(0.5,)).snapshots[0.5]
    leg2 = simulate(set1, curve, grid[2:], n, stream, snapshot_times=(1.0,), initial=snap)
    for name in ("log_s", "u", "v", "x_cum", "z_cum"):
        assert np.array_equal(getattr(leg2.snapshots[1.0], name),
                              getattr(full.snapshots[1.0], name)), name


@pytest.mark.parametrize("n_states,n", [(20, _BLOCK + 1), (50, 17)])
@pytest.mark.parametrize("simulate", [simulate_clp, simulate_euler])
def test_restart_from_either_factor_layout_is_bitwise(curve, simulate, n_states, n):
    """Snapshots hold row-major factors, and a restart from a column-major
    copy of one gives the bits of the uninterrupted run too: set3 over
    two blocks, and a deep ladder whose C-LP products would round
    differently over column-major rows."""
    params = ModelParams.from_hurst(n_states, 0.3, lam=0.0, nu=0.31, v0=0.1, theta=0.02, rho=0.7)
    grid = [0.0, 0.25, 0.5, 0.75]
    full = simulate(params, curve, grid, n, RngStream(19), snapshot_times=(0.75,))
    for layout in (np.ascontiguousarray, np.asfortranarray):
        stream = RngStream(19)
        snap = simulate(params, curve, grid[:3], n, stream, snapshot_times=(0.5,)).snapshots[0.5]
        assert snap.u.flags.c_contiguous
        initial = PathState(snap.t, snap.log_s, layout(snap.u), snap.v, snap.x_cum, snap.z_cum)
        leg2 = simulate(params, curve, grid[2:], n, stream, snapshot_times=(0.75,), initial=initial)
        assert leg2.snapshots[0.75].u.flags.c_contiguous
        for name in ("log_s", "u", "v", "x_cum", "z_cum"):
            assert np.array_equal(getattr(leg2.snapshots[0.75], name),
                                  getattr(full.snapshots[0.75], name)), (layout, name)


class _ThreadRecorder:
    """A stream that notes the thread of each draw and draws zeros."""

    def __init__(self):
        self.threads = []

    def normal(self, size=None):
        self.threads.append(threading.current_thread())
        return np.zeros(size)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_blocks_runs_ahead_once_on_the_calling_thread(monkeypatch, workers):
    """Given the driver's stream, the dispatch draws the next step's
    numbers once, on the calling thread; given any other stream, it
    draws nothing."""
    monkeypatch.setattr(state_module, "_WORKERS", workers)
    n = 7 * _BLOCK + 39
    recorder = _ThreadRecorder()
    draws = _DrawAhead(recorder)
    draws.start_step(last=False)
    draws.normal(3)
    for _ in range(2):
        got = _run_blocks(n, lambda lo, hi: (lo, hi), draws)
        assert recorder.threads == [threading.current_thread()] * 2
        assert got == _path_blocks(n, workers)
    plain = _ThreadRecorder()
    assert _run_blocks(n, lambda lo, hi: (lo, hi), plain) == _path_blocks(n, workers)
    assert plain.threads == []


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_blocks_raises_the_first_failure_in_block_order(monkeypatch, workers):
    """Block 1 fails only after the last block has failed, on another
    thread; the error of block 1 is the one raised.  On one thread the
    blocks after block 1 are not run."""
    monkeypatch.setattr(state_module, "_WORKERS", workers)
    n = 7 * _BLOCK + 39
    blocks = _path_blocks(n, workers)
    last = len(blocks) - 1
    last_failed = threading.Event()
    ran = []

    def body(lo, hi):
        i = blocks.index((lo, hi))
        ran.append(i)
        if i == last:
            last_failed.set()
            raise ValueError(f"block {i}")
        if i == 1:
            if workers > 1:
                assert last_failed.wait(timeout=60)
            raise ValueError("block 1")
        return i

    with pytest.raises(ValueError, match="^block 1$"):
        _run_blocks(n, body)
    assert sorted(ran) == (list(range(len(blocks))) if workers > 1 else [0, 1])


def test_run_blocks_claims_each_block_once_under_contention(monkeypatch):
    """Eight threads on a short switch interval: every block runs once
    and the results stay in block order."""
    monkeypatch.setattr(state_module, "_WORKERS", 8)
    monkeypatch.setattr(state_module, "_pool", None)
    n = 40 * _BLOCK
    starts = [lo for lo, _ in _path_blocks(n, 8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            seen = []

            def body(lo, hi):
                seen.append(lo)
                return lo

            assert _run_blocks(n, body) == starts
            assert sorted(seen) == starts
    finally:
        sys.setswitchinterval(interval)
        if state_module._pool is not None:
            state_module._pool.shutdown()
