"""State containers, summary statistics, bootstrap standard errors."""

import numpy as np
import pytest

from liftedheston import (
    PathState,
    RngStream,
    SimDiagnostics,
    mean_se,
    simulate_clp,
    simulate_euler,
    variance_se_bootstrap,
)


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


def test_bootstrap_variance_se():
    rng = np.random.default_rng(44)
    x = rng.normal(size=20_000)
    se = variance_se_bootstrap(x)
    assert se == variance_se_bootstrap(x), "fixed resampling seed"
    theory = np.var(x, ddof=1) * np.sqrt(2.0 / (x.size - 1))
    assert 0.5 * theory < se < 2.0 * theory


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
    assert s["n_paths"] == 4000.0
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
