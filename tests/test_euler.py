"""Euler baseline: fixes, refinement behaviour, diagnostics."""

import numpy as np
import pytest

from liftedheston import (
    InitialCurve,
    ModelParams,
    RngStream,
    VarianceFix,
    simulate_euler,
)


def test_determinism_and_basic_diagnostics(set1, curve):
    grid = np.linspace(0.0, 1.0, 21)
    a = simulate_euler(set1, curve, grid, 3000, 55)
    b = simulate_euler(set1, curve, grid, 3000, 55)
    assert np.array_equal(a.s, b.s)
    assert np.array_equal(a.x, b.x)
    d = a.diagnostics
    assert d.total_draws == 3000 * 20
    assert d.constrained_draws == 0 and d.degenerate_mean_draws == 0
    assert np.all(np.diff([0.0] + [np.mean(a.x)]) >= 0.0)


def test_variance_fix_enum_round_trip():
    assert VarianceFix("full-truncation") is VarianceFix.FULL_TRUNCATION
    assert VarianceFix("reflection") is VarianceFix.REFLECTION
    assert VarianceFix("absorption") is VarianceFix.ABSORPTION
    with pytest.raises(ValueError):
        VarianceFix("clip")


def test_negative_variance_counting_by_fix(set2, curve):
    grid = np.linspace(0.0, 1.0, 101)
    counts = {}
    for fix in VarianceFix:
        out = simulate_euler(set2, curve, grid, 20_000, RngStream(3), fix=fix)
        d = out.diagnostics
        counts[fix] = d.negative_variance_paths
        if fix is VarianceFix.ABSORPTION:
            assert d.negative_variance_paths == 0
            assert d.min_variance >= 0.0
            assert np.all(out.v >= 0.0)
        else:
            assert d.negative_variance_paths > 0
            assert d.min_variance < 0.0
    # signed-state fixes see the same first excursion under the same seed
    assert counts[VarianceFix.FULL_TRUNCATION] > 0


def test_integrated_variance_nondecreasing(set2, curve):
    # the trapezoid uses the fixed (nonnegative) variances, so X never falls
    out = simulate_euler(set2, curve, np.linspace(0.0, 1.0, 51), 5000, RngStream(21),
                         snapshot_times=(0.5, 1.0))
    x_mid = out.snapshots[0.5].x_cum
    assert np.all(x_mid >= 0.0)
    assert np.all(out.x - x_mid >= 0.0)


def test_heston_collapse_terminal_mean():
    params = ModelParams(1, 2.0, 0.2, 0.09, 0.04, -0.3, np.array([1.0]), np.array([0.0]))
    curve = InitialCurve.HESTON_LINEAR
    out = simulate_euler(params, curve, np.linspace(0.0, 1.0, 201), 100_000, RngStream(57))
    ref = (0.09 - 0.04) * np.exp(-2.0) + 0.04
    m, se = np.mean(out.v), np.std(out.v, ddof=1) / np.sqrt(out.v.size)
    assert abs(m - ref) < 4 * se + 2e-4, f"mean={m} ref={ref}"


def test_refinement_restores_the_mean(set1, curve):
    """Coarse grids beyond the fastest factor's linear stability limit
    oscillate and blow up; refining under it converges.  The three grids
    must show strictly improving agreement with the finest one."""
    errs = {}
    means = {}
    for j, n_steps in enumerate((20, 100, 1000)):
        grid = np.linspace(0.0, 5.0, n_steps + 1)
        out = simulate_euler(set1, curve, grid, 50_000, RngStream(7, stream_id=j))
        means[n_steps] = float(np.mean(out.x))
    for n_steps in (20, 100):
        errs[n_steps] = abs(means[n_steps] - means[1000])
    assert errs[100] < errs[20], f"errors {errs}"
    dt_coarse = 5.0 / 20
    assert dt_coarse * float(np.max(set1.x)) > 2.0, "coarse grid should be unstable"
    assert errs[20] > 1.0, f"expected blow-up at dt=0.25, got err={errs[20]}"


def test_grid_validation_shared_with_projection(set1, curve):
    with pytest.raises(ValueError):
        simulate_euler(set1, curve, [0.0], 10, 1)
    with pytest.raises(ValueError):
        simulate_euler(set1, curve, [0.3, 1.0], 10, 1)
    with pytest.raises(ValueError):
        simulate_euler(set1, curve, [0.0, 0.5], 10, 1, snapshot_times=(0.25,))


def test_restart_from_interior_state(set1, curve):
    stream = RngStream(71)
    leg1 = simulate_euler(set1, curve, [0.0, 0.25, 0.5], 500, stream, snapshot_times=(0.5,))
    snap = leg1.snapshots[0.5]
    from liftedheston import PathState

    mid = PathState(t=0.5, log_s=snap.log_s.copy(), u=snap.u.copy(), v=snap.v.copy(),
                    x_cum=snap.x_cum.copy(), z_cum=snap.z_cum.copy())
    leg2 = simulate_euler(set1, curve, [0.5, 0.75, 1.0], 500, stream, initial=mid)
    full = simulate_euler(set1, curve, [0.0, 0.25, 0.5, 0.75, 1.0], 500, RngStream(71))
    assert np.array_equal(leg2.s, full.s)
    assert np.array_equal(leg2.v, full.v)
