"""Property tests: C-LP invariants over random admissible parameters.

Hypothesis draws the parameter set, the step and the curve; the examples
are derandomized, so every run tests the same sets.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from liftedheston import InitialCurve, ModelParams, RngStream, simulate_clp  # noqa: E402

_PATHS = 257  # not a multiple of 4, so the products' tail rows run too
_TINY = 1e-150  # a variance level far above any seen to be refused

_params = st.builds(
    ModelParams.from_hurst,
    n_states=st.integers(1, 30),
    hurst=st.floats(0.02, 0.48),
    lam=st.floats(0.0, 3.0),
    nu=st.floats(0.01, 3.2),
    v0=st.floats(0.0, 0.5),
    theta=st.floats(0.0, 0.5),
    rho=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    params=_params,
    dt=st.floats(1.0 / 252.0, 5.0),
    curve=st.sampled_from(list(InitialCurve)),
    seed=st.integers(0, 2**32),
)
def test_clp_keeps_variance_nonnegative_and_restarts_bitwise(params, dt, curve, seed):
    """Three C-LP steps keep every variance nonnegative and every value
    finite, and a restart from the step-1 snapshot on a stream advanced
    past that step's three draws (normal, uniform, normal) gives the same
    bits as the uninterrupted run."""
    grid = params.t0 + dt * np.arange(4.0)
    try:
        full = simulate_clp(params, curve, grid, _PATHS, RngStream(seed),
                            snapshot_times=(grid[1],))
    except (ValueError, FloatingPointError):
        # refused, as seen only near the underflow range: the inverse Gaussian
        # shape (alpha / beta_c)^2 underflows to 0, or a slope computed from
        # subnormal moments carries a path's log price out of the finite numbers
        assert max(params.v0, params.lam * params.theta) < _TINY
        return
    assert full.diagnostics.min_variance >= 0.0
    assert np.all(full.v >= 0.0)
    for values in (full.s, full.v, full.x):
        assert np.all(np.isfinite(values))

    stream = RngStream(seed)
    stream.normal(_PATHS)
    stream.uniform(_PATHS)
    stream.normal(_PATHS)
    rest = simulate_clp(params, curve, grid[1:], _PATHS, stream, initial=full.snapshots[grid[1]])
    assert np.array_equal(rest.s, full.s)
    assert np.array_equal(rest.v, full.v)
    assert np.array_equal(rest.x, full.x)
