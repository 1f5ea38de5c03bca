"""Projection scheme: coefficients, slope constraint, step and simulation."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

from liftedheston import (
    InitialCurve,
    ModelParams,
    PathState,
    RngStream,
    SimDiagnostics,
    build_drift_matrix,
    clp_step,
    g0,
    precompute_step,
    sample_inverse_gaussian,
    simulate_clp,
    step_coefficients,
)
from liftedheston import clp

from conftest import moments_of_x

N_PROP = 2000  # paths used by the randomized property checks


def interior_states(params, curve, t, n_paths, seed):
    """A batch of model-consistent states at time t, produced by simulating."""
    grid = np.linspace(params.t0, t, 11)
    out = simulate_clp(params, curve, grid, n_paths, RngStream(seed), snapshot_times=(t,))
    snap = out.snapshots[t]
    return PathState(t=t, log_s=snap.log_s.copy(), u=snap.u.copy(), v=snap.v.copy(),
                     x_cum=np.zeros(n_paths), z_cum=np.zeros(n_paths))


def factor_split(u, pre, params):
    """The per-factor means E_i[X^n] and the factor split E_i[X^n Z] / E_i[X Z]
    of a step, from its ``StepPrecompute``; the split is 1/omega_bar per
    factor where E_i[X Z] <= 0."""
    alpha_factors = u @ pre.phi1.T + pre.xi
    kappa = u @ pre.chi.T + pre.psi
    xz_mean = kappa @ params.omega
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where((xz_mean > 0.0)[:, None], kappa / xz_mean[:, None], 1.0 / params.omega_bar)
    return alpha_factors, ratio


def split_beta_limit(ratio, params):
    """The largest admissible slope for the factor split ``ratio``."""
    denom = ratio @ (params.omega * params.x) + params.lam * params.omega_bar
    return np.where(denom > 0.0, params.nu * params.omega_bar / np.where(denom > 0.0, denom, 1.0),
                    np.inf)


def row_masks(co):
    """The live rows (alpha > 0) of a ``ProjectionCoeffs`` and its rows that
    keep their raw slope, as masks over all rows; every other live row
    samples at the boundary slope."""
    live = np.ones(co.alpha.size, dtype=bool)
    live[co.degenerate_rows] = False
    feasible = np.zeros(co.alpha.size, dtype=bool)
    feasible[co.feasible_rows] = True
    return live, feasible


def test_alpha_recomputation(set1, curve):
    st = interior_states(set1, curve, 1.0, N_PROP, 60)
    pre = precompute_step(set1, curve, 1.0, 1.5)
    co = step_coefficients(st, pre, set1)
    manual = (st.u @ pre.phi1.T + pre.xi) @ set1.omega + pre.g0_int
    assert np.allclose(co.alpha, manual, atol=1e-14)
    alpha_factors, _ = factor_split(st.u, pre, set1)
    assert np.allclose(alpha_factors @ set1.omega + pre.g0_int, co.alpha, atol=1e-14)


def test_ratio_sums_to_one_over_weights(set1, curve):
    st = interior_states(set1, curve, 1.0, N_PROP, 61)
    pre = precompute_step(set1, curve, 1.0, 1.5)
    co = step_coefficients(st, pre, set1)
    _, ratio = factor_split(st.u, pre, set1)
    sums = ratio @ set1.omega
    assert np.allclose(sums, 1.0, atol=1e-12)
    # the step's slope bound is the one this split gives
    assert np.allclose(co.beta_limit, split_beta_limit(ratio, set1), rtol=1e-13, atol=0)


def test_ratio_fallback_when_cross_moment_nonpositive(set1, curve):
    # drive the factor cross moment negative with a deep negative state
    pre = precompute_step(set1, curve, 1.0, 1.5)
    u = np.tile(-np.linspace(1.0, 2.0, 5), (3, 1))
    st = PathState(t=1.0, log_s=np.zeros(3), u=u, v=np.full(3, 0.5),
                   x_cum=np.zeros(3), z_cum=np.zeros(3))
    co = step_coefficients(st, pre, set1)
    kappa_sum = (st.u @ pre.chi.T + pre.psi) @ set1.omega
    assert np.all(kappa_sum <= 0.0), "construction should force the fallback"
    _, ratio = factor_split(st.u, pre, set1)
    assert np.allclose(ratio, 1.0 / set1.omega_bar, atol=1e-14)
    assert np.allclose(ratio @ set1.omega, 1.0, atol=1e-12)
    assert np.allclose(co.beta_limit, split_beta_limit(ratio, set1), rtol=1e-13, atol=0)


def test_slope_constraint_invariants(set1, set2, curve):
    for params, seed in ((set1, 62), (set2, 63)):
        st = interior_states(params, curve, 1.0, N_PROP, seed)
        for h in (0.1, 0.5, 2.0):
            pre = precompute_step(params, curve, 1.0, 1.0 + h)
            co = step_coefficients(st, pre, params)
            live, _ = row_masks(co)
            assert np.all(co.beta_c[live] > 0.0)
            assert np.all(co.beta_c[live] <= co.beta_limit[live] * (1.0 + 1e-12))
            value_at_zero = co.c - params.nu * co.alpha * params.omega_bar / co.beta_c
            assert np.min(value_at_zero[live]) >= -1e-12


def test_raw_slope_never_feasible_on_model_states(set1, curve):
    """The unconstrained slope sits strictly below the boundary value that
    makes the variance update vanish at zero, so every live path takes the
    constrained branch; as the step shrinks the ratio tends to one half."""
    st = interior_states(set1, curve, 1.0, N_PROP, 64)
    for h, lo, hi in ((0.01, 0.45, 0.55), (0.5, 0.3, 1.0), (2.15, 0.3, 1.0)):
        pre = precompute_step(set1, curve, 1.0, 1.0 + h)
        co = step_coefficients(st, pre, set1)
        live, feasible = row_masks(co)
        assert not np.any(feasible), f"h={h}: some raw slopes feasible"
        ratio = co.beta[live] / co.beta_c[live]
        assert np.all(ratio < 1.0)
        assert lo < float(np.median(ratio)) < hi, f"h={h} median={np.median(ratio)}"


def state_from_rows(u, t, v):
    n = u.shape[0]
    return PathState(t=t, log_s=np.linspace(4.0, 5.0, n), u=u, v=v,
                     x_cum=np.linspace(0.0, 1.0, n), z_cum=np.linspace(-1.0, 1.0, n))


def bad_constant_row(params, pre):
    """A factor row with a positive projected mean whose constraint
    constant c is nonpositive, found by a seeded search."""
    rng = np.random.default_rng(0)
    for _ in range(1000):
        u = rng.normal(size=(1, params.n_states)) * 10.0 ** rng.uniform(-2, 1.5, size=params.n_states)
        st = state_from_rows(u, pre.t_start, u @ params.omega + params.v0)
        try:
            step_coefficients(st, pre, params)
        except FloatingPointError:
            return u[0]
    raise AssertionError("no row with a nonpositive constraint constant found")


def test_constraint_constant_guard_raises(set3, curve):
    pre = precompute_step(set3, curve, 0.0, 2.15)
    u = np.tile(bad_constant_row(set3, pre), (3, 1))
    st = state_from_rows(u, 0.0, u @ set3.omega + set3.v0)
    with pytest.raises(FloatingPointError, match=r"\(path 0, c="):
        step_coefficients(st, pre, set3)


def degenerate_state(set3, pre):
    """A state whose projected mean of the next integrated variance is
    negative while the spot variance itself is fine: a heavy negative
    slow factor paired with a positive fast factor."""
    w = set3.omega
    for scale in np.linspace(0.5, 40.0, 400):
        u = np.zeros(20)
        u[0] = -scale
        u[-1] = (w[0] * scale - 0.099) / w[-1]
        v = float(u @ w + set3.v0)
        alpha = float((u @ pre.phi1.T + pre.xi) @ w + pre.g0_int)
        if v >= 0.0 and alpha < -1e-4:
            return u, v, alpha
    raise AssertionError("no degenerate state found")


def test_degenerate_mean_limit_step(set3, curve):
    pre = precompute_step(set3, curve, 0.0, 2.15)
    u, v, alpha = degenerate_state(set3, pre)
    n = 8
    st = PathState(t=0.0, log_s=np.log(100.0) * np.ones(n), u=np.tile(u, (n, 1)),
                   v=np.full(n, v), x_cum=np.zeros(n), z_cum=np.zeros(n))
    diag = SimDiagnostics(n_paths=n, n_steps=1)
    stream = RngStream(5)
    out = clp_step(st, pre, set3, stream, diag)
    assert diag.degenerate_mean_draws == n
    assert np.all(out.x_cum == 0.0), "limit step must not add integrated variance"
    assert np.allclose(out.log_s, np.log(100.0) + set3.rate * pre.dt, atol=1e-15)
    co = step_coefficients(st, pre, set3)
    z_expect = max(-float(co.c[0]), 0.0) / (set3.nu * set3.omega_bar)
    assert np.allclose(out.z_cum, z_expect, atol=1e-12)
    assert np.all(out.v >= 0.0)
    # the limit step must consume exactly the draws a sampled step would,
    # so a twin stream stepping a healthy batch stays in sync
    twin = RngStream(5)
    healthy = PathState.initial(set3, n)
    clp_step(healthy, precompute_step(set3, curve, 0.0, 0.1), set3, twin)
    assert np.array_equal(stream.uniform(4), twin.uniform(4))


def test_zero_variance_model_runs_without_warnings(curve):
    # v0 = theta = 0 keeps V at zero: every path is degenerate with c = 0,
    # which once gave an infinite slope, a zero IG shape and a refusal
    params = ModelParams.from_hurst(5, 0.3, lam=0.25, nu=0.1, v0=0.0, theta=0.0, rho=0.7)
    grid = np.linspace(0.0, 1.0, 6)
    with np.errstate(all="raise"):
        co = step_coefficients(PathState.initial(params, 50),
                               precompute_step(params, curve, 0.0, 0.2), params)
        out = simulate_clp(params, curve, grid, 50, RngStream(3))
    assert np.array_equal(co.degenerate_rows, np.arange(50)) and np.all(co.c == 0.0)
    assert np.all(np.isfinite(co.beta_c)) and np.all(co.beta_c > 0.0)
    assert np.all(out.v == 0.0) and np.all(out.x == 0.0) and np.all(out.z == 0.0)
    assert out.diagnostics.degenerate_mean_draws == 50 * 5


def test_step_factor_split_identity(set1, curve):
    """Reconstructing the per-factor allocation from the state update must
    reproduce the sampled integrated variance through the weight map."""
    st = interior_states(set1, curve, 1.0, N_PROP, 65)
    pre = precompute_step(set1, curve, 1.0, 3.15)
    out = clp_step(st.copy(), pre, set1, RngStream(66))
    x_hat = out.x_cum - st.x_cum
    z_state = out.z_cum - st.z_cum
    factors = (st.u - set1.lam * x_hat[:, None] + set1.nu * z_state[:, None] - out.u) / set1.x[None, :]
    recon = factors @ set1.omega + pre.g0_int
    assert np.max(np.abs(recon - x_hat)) < 1e-10
    assert np.all(x_hat >= 0.0)


def test_step_conditional_means_match_quadrature(set1, curve):
    """One large step from a fixed interior state: the sample means of the
    integrated variance and of the next spot variance agree with direct
    quadrature of the model's first-moment equations."""
    h = 0.5
    pre = precompute_step(set1, curve, 0.0, h)
    rng = np.random.default_rng(10)
    u0 = np.abs(rng.normal(scale=0.02, size=5))
    v0 = float(u0 @ set1.omega + g0(0.0, set1, curve))
    n = 500_000
    st = PathState(t=0.0, log_s=np.zeros(n), u=np.tile(u0, (n, 1)), v=np.full(n, v0),
                   x_cum=np.zeros(n), z_cum=np.zeros(n))
    out = clp_step(st, pre, set1, RngStream(17))

    alpha = float((u0 @ pre.phi1.T + pre.xi) @ set1.omega + pre.g0_int)
    mx, sex = np.mean(out.x_cum), np.std(out.x_cum, ddof=1) / np.sqrt(n)
    assert abs(mx - alpha) < 4 * sex, f"z={(mx - alpha) / sex:.2f}"

    a = build_drift_matrix(set1)
    def forcing(s):
        return expm(a * (h - s)) @ (-set1.lam * np.ones(5) * float(g0(s, set1, curve)))
    eu = expm(a * h) @ u0 + quad_vec(forcing, 0.0, h, epsabs=1e-12)[0]
    ev = float(eu @ set1.omega + g0(h, set1, curve))
    mv, sev = np.mean(out.v), np.std(out.v, ddof=1) / np.sqrt(n)
    assert abs(mv - ev) < 4 * sev, f"z={(mv - ev) / sev:.2f}"


def test_simulate_validates_grid_and_curve(set1, curve):
    with pytest.raises(ValueError):
        simulate_clp(set1, curve, [0.0], 10, 1)
    with pytest.raises(ValueError):
        simulate_clp(set1, curve, [0.5, 1.0], 10, 1)  # must start at t0
    with pytest.raises(ValueError):
        simulate_clp(set1, curve, [0.0, 1.0, 1.0], 10, 1)
    with pytest.raises(ValueError):
        simulate_clp(set1, curve, [0.0, 1.0], 10, 1, snapshot_times=(0.7,))


def test_simulate_determinism_and_diagnostics(set1, curve):
    grid = np.linspace(0.0, 1.0, 5)
    a = simulate_clp(set1, curve, grid, 3000, 123, snapshot_times=(0.5,))
    b = simulate_clp(set1, curve, grid, 3000, 123, snapshot_times=(0.5,))
    assert np.array_equal(a.s, b.s) and np.array_equal(a.v, b.v)
    d = a.diagnostics
    assert d.total_draws == 3000 * 4
    assert d.constrained_fraction == 1.0
    assert d.degenerate_mean_draws == 0
    assert d.min_variance >= 0.0
    assert np.all(np.isfinite(a.s)) and np.all(a.v >= 0.0)


def test_snapshot_and_restart_concatenate(set1, curve):
    """Running [0, 1] in one call equals running [0, 0.5] then restarting
    from the snapshot with the same stream object."""
    full = simulate_clp(set1, curve, [0.0, 0.5, 1.0], 2000, RngStream(7))
    stream = RngStream(7)
    leg1 = simulate_clp(set1, curve, [0.0, 0.5], 2000, stream, snapshot_times=(0.5,))
    snap = leg1.snapshots[0.5]
    mid = PathState(t=0.5, log_s=snap.log_s.copy(), u=snap.u.copy(), v=snap.v.copy(),
                    x_cum=snap.x_cum.copy(), z_cum=snap.z_cum.copy())
    leg2 = simulate_clp(set1, curve, [0.5, 1.0], 2000, stream, initial=mid)
    assert np.array_equal(leg2.s, full.s)
    assert np.array_equal(leg2.v, full.v)
    assert np.array_equal(leg2.x, full.x)
    with pytest.raises(ValueError):
        simulate_clp(set1, curve, [0.7, 1.0], 2000, RngStream(8), initial=mid)
    with pytest.raises(ValueError):
        simulate_clp(set1, curve, [0.5, 1.0], 99, RngStream(8), initial=mid)


def test_discounted_price_is_martingale(curve):
    params = ModelParams.from_hurst(5, 0.3, lam=0.25, nu=0.1, v0=0.02, theta=0.5,
                                    rho=0.7, s0=100.0, rate=0.03)
    out = simulate_clp(params, curve, [0.0, 0.5, 1.0], 200_000, RngStream(23))
    disc = np.exp(-params.rate * 1.0) * out.s
    m, se = np.mean(disc), np.std(disc, ddof=1) / np.sqrt(disc.size)
    assert abs(m - 100.0) < 4 * se, f"z={(m - 100.0) / se:.2f}"


def test_heston_collapse_one_step_mean():
    params = ModelParams(1, 2.0, 0.2, 0.09, 0.04, -0.3, np.array([1.0]), np.array([0.0]))
    curve = InitialCurve.HESTON_LINEAR
    out = simulate_clp(params, curve, [0.0, 0.5], 200_000, RngStream(29))
    ref = (0.09 - 0.04) * np.exp(-2.0 * 0.5) + 0.04
    m, se = np.mean(out.v), np.std(out.v, ddof=1) / np.sqrt(out.v.size)
    assert abs(m - ref) < 4 * se, f"z={(m - ref) / se:.2f}"


def price_factor_log(state, pre, params, seed):
    """One ``clp_step`` from ``state``: per path, log E[exp(-r dt) S'/S | U]
    in closed form from the step's alpha and beta_c and the compensator
    the step added to the log price, and that compensator.

    Integrating out the price normal leaves exp(rho Z - rho^2 X / 2) with
    Z = (X - alpha) / beta_c and X ~ IG(alpha, (alpha / beta_c)^2), whose
    mean is exp((alpha / beta_c^2) (1 - |1 - rho beta_c|) - rho alpha / beta_c).
    """
    out = clp_step(state, pre, params, RngStream(seed))
    draws = RngStream(seed)
    draws.normal(state.n_paths)
    draws.uniform(state.n_paths)
    z_price = draws.normal(state.n_paths)
    x_hat, z_hat = out.x_cum - state.x_cum, out.z_cum - state.z_cum
    rho = params.rho
    uncompensated = (state.log_s + params.rate * pre.dt - 0.5 * x_hat + rho * z_hat
                     + np.sqrt((1.0 - rho * rho) * x_hat) * z_price)
    compensator = out.log_s - uncompensated
    co = step_coefficients(state, pre, params)
    alpha, beta = co.alpha, co.beta_c
    live, _ = row_masks(co)
    mgf = np.where(live, alpha / beta**2 * (1.0 - np.abs(1.0 - rho * beta)) - rho * alpha / beta,
                   0.0)
    return compensator + mgf, compensator, np.where(live, rho * beta, -np.inf)


def random_params(rng, stressed):
    """Admissible parameters; ``stressed`` ones have a high vol of vol and
    rho near 1, where rho beta_c > 1 at large steps."""
    lam = 0.0 if rng.uniform() < 0.3 else rng.uniform(0.0, 3.0)
    nu, rho = (rng.uniform(1.5, 3.0), rng.uniform(0.9, 1.0)) if stressed else (
        rng.uniform(0.05, 2.5), rng.uniform(-1.0, 1.0))
    return ModelParams.from_hurst(int(rng.integers(1, 13)), rng.uniform(0.05, 0.45), lam=lam,
                                  nu=nu, v0=rng.uniform(0.01, 0.8), theta=rng.uniform(0.01, 0.8),
                                  rho=rho)


def test_discounted_price_is_a_martingale_in_closed_form(set3, curve):
    """E[exp(-r dt) S'/S | U] = 1 within 1e-12 on every path, from the
    step's alpha and beta_c: the compensator is added exactly where
    rho beta_c > 1, and nowhere else."""
    cases = [(dataclasses.replace(set3, nu=2.0, rho=1.0), None, 5.0),
             (dataclasses.replace(set3, nu=1.0, rho=0.9), None, 5.0),
             (ModelParams.from_hurst(10, 0.1, lam=0.1, nu=1.0, v0=0.1, theta=0.7, rho=0.9),
              None, 5.0)]
    rng = np.random.default_rng(12)
    while len(cases) < 23:
        stressed = len(cases) % 2 == 0
        params = random_params(rng, stressed)
        t = rng.uniform(0.1, 2.0)
        try:
            with np.errstate(all="ignore"):
                snap = simulate_clp(params, curve, np.linspace(0.0, t, 5), 400,
                                    RngStream(len(cases)), snapshot_times=(t,)).snapshots[t]
        except (FloatingPointError, ValueError):  # no admissible slope on some path
            continue
        dt = (rng.uniform(2.0, 5.0) if stressed
              else np.exp(rng.uniform(np.log(1 / 252), np.log(5.0))))
        cases.append((params, snap, dt))
    compensated = []
    for k, (params, snap, dt) in enumerate(cases):
        if snap is None:
            snap = PathState.initial(params, 20_000)
        state = PathState(snap.t, np.zeros(snap.n_paths), snap.u, snap.v,
                          np.zeros(snap.n_paths), np.zeros(snap.n_paths))
        pre = precompute_step(params, curve, state.t, state.t + dt)
        try:
            log_factor, compensator, rho_beta = price_factor_log(state, pre, params, 100 + k)
        except FloatingPointError:  # no admissible slope on some path
            assert k >= 3
            continue
        assert np.all(np.abs(np.expm1(log_factor)) <= 1e-12), k
        assert np.all(compensator[rho_beta <= 1.0] == 0.0), k
        assert np.all(compensator[rho_beta > 1.0] > 0.0), k
        if np.any(rho_beta > 1.0):
            compensated.append(k)
    # the three cases of the defect, and some of the random ones
    assert compensated[:3] == [0, 1, 2] and len(compensated) > 5


@pytest.mark.parametrize("which", ["set1", "set2", "set3", "extreme_set"])
def test_simulated_states_draw_on_the_boundary_slope(request, curve, which):
    """On states the scheme reaches from U = 0 the raw slope is never
    admissible: every live draw uses the boundary slope beta_c."""
    params = request.getfixturevalue(which)
    for dt in (1 / 78, 1 / 13, 0.5, 2.15, 5.0):
        steps = max(4, int(np.ceil(1.0 / dt)))
        grid = dt * np.arange(steps + 1)
        d = simulate_clp(params, curve, grid, N_PROP, RngStream(70)).diagnostics
        assert d.degenerate_mean_draws == 0, dt
        assert d.constrained_fraction == 1.0, dt


class _FixedDraws:
    """A stream that returns the given arrays, one per call, in call order."""

    def __init__(self, *draws):
        self._draws = list(draws)

    def normal(self, size=None):
        return self._draws.pop(0)

    uniform = normal


_TRADE_OFF_STEPS = (1e-3, 1 / 78, 1 / 13, 0.5, 2.15)
# per step above: B, then the scheme's Var(X_hat) and Var(V') over the exact values
_TRADE_OFF = {
    "set1": ((2.980, 2.780, 2.260, 1.934, 2.147),
             (2.965, 2.624, 1.824, 1.190, 1.007),
             (0.9949, 0.9440, 0.8068, 0.6153, 0.4691)),
    "set3": ((2.976, 2.813, 2.699, 2.712, 2.747),
             (2.884, 2.160, 1.510, 1.171, 1.032),
             (0.9689, 0.7676, 0.5595, 0.4317, 0.3755)),
}


def exact_variances(params, curve, t, u_row, t_end):
    """E[X], Var(X), E[V'] and Var(V') of the model over one step from t to
    t_end of a path with factor row ``u_row``."""
    omega = params.omega
    mean_x, second_x, mean_u, second_u = moments_of_x(params, curve, t_end, t, u_row)
    var_v = omega @ (second_u - np.outer(mean_u, mean_u)) @ omega
    return mean_x, second_x - mean_x**2, float(g0(t_end, params, curve)) + omega @ mean_u, var_v


def one_draw(params, pre, u_row, v, slope=None):
    """``step_coefficients`` and ``clp_step`` from two paths with factor row
    ``u_row`` and variance v, whose inverse Gaussian normals are 0 and 1;
    ``slope``, if given, replaces beta_c through ``clp._coefficients``.
    Returns the coefficients and the two paths' X_hat and V'."""
    two = PathState(t=pre.t_start, log_s=np.zeros(2), u=np.tile(u_row, (2, 1)), v=np.full(2, v),
                    x_cum=np.zeros(2), z_cum=np.zeros(2))
    co = step_coefficients(two, pre, params)
    draws = _FixedDraws(np.array([0.0, 1.0]), np.full(2, 0.5), np.zeros(2))
    with pytest.MonkeyPatch.context() as patch:
        if slope is not None:
            real = clp._coefficients
            patch.setattr(clp, "_coefficients", lambda *args: dataclasses.replace(
                real(*args), beta_c=np.full(2, slope)))
        out = clp_step(two, pre, params, draws)
    return co, out.x_cum, out.v


def one_draw_variances(params, curve, t, u_row, v, t_end):
    """B and the scheme's Var(X_hat) and Var(V') over the exact values, for
    one step from t to t_end of a path with factor row ``u_row`` and
    variance v."""
    mean_x, var_x, mean_v, var_v = exact_variances(params, curve, t, u_row, t_end)
    bound = (mean_x / mean_v) ** 2 * var_v / var_x
    co, x_hat, v_new = one_draw(params, precompute_step(params, curve, t, t_end), u_row, v)
    var_x_hat = co.alpha[0] * co.beta_c[0] ** 2  # IG(alpha, (alpha / beta_c)^2)
    # a zero normal draws X_hat = alpha on the first path; V' is affine in X_hat
    assert x_hat[0] == co.alpha[0]
    slope = (v_new[1] - v_new[0]) / (x_hat[1] - x_hat[0])
    return bound, var_x_hat / var_x, slope**2 * var_x_hat / var_v


@pytest.mark.parametrize("which", ["set1", "set3"])
def test_one_draw_trades_the_variance_of_x_against_that_of_v(request, curve, which):
    """One step from U = 0.  An update V' = E[V'] + k (X_hat - alpha) with
    exact means and X_hat > 0 stays nonnegative only if k <= E[V'] / alpha,
    so Var(X_hat) >= (alpha / E[V'])^2 Var(V'): with Var(V') exact,
    Var(X_hat) is at least B = (alpha / E[V'])^2 Var(V') / Var(X) times
    exact.  Against the exact second moments, B and the scheme's two
    variance ratios keep their values, and since the boundary slope puts
    V' = 0 at X_hat = 0, the scheme meets the bound with equality: its
    Var(V') ratio times B is its Var(X_hat) ratio.  From interior states,
    rows of a simulation at t = 1, the equality holds too, which makes the
    scheme's E[V' | U] the exact conditional mean, and B exceeds 1."""
    params = request.getfixturevalue(which)
    u_zero = np.zeros(params.n_states)
    for h, *want in zip(_TRADE_OFF_STEPS, *_TRADE_OFF[which]):
        got = one_draw_variances(params, curve, params.t0, u_zero, params.v0, params.t0 + h)
        assert got == pytest.approx(want, rel=1e-3), h
        assert got[2] * got[0] == pytest.approx(got[1], rel=1e-12, abs=0), h
    snap = interior_states(params, curve, 1.0, 5, seed=21)
    for u_row, v in zip(snap.u, snap.v):
        for h in (1 / 78, 1 / 13, 0.5):
            got = one_draw_variances(params, curve, 1.0, u_row, v, 1.0 + h)
            assert got[2] * got[0] == pytest.approx(got[1], rel=1e-12, abs=0), (u_row, h)
            assert got[0] > 1.0, (u_row, h)


# per step of _TRADE_OFF_STEPS: beta_impl / beta_limit, then at the
# implicit slope Var(X_hat) and Var(V') over the exact values, None where
# beta_impl > beta_limit and the slope is not admissible
_IMPLICIT = {
    "set1": ((0.005, 0.065, 0.348, 1.385, 2.563),
             (3.015, 3.193, 4.092, None, None),
             (0.9948, 0.9319, 0.5823, None, None)),
    "set3": ((0.032, 0.340, 1.132, 2.751, 4.987),
             (3.074, 3.878, None, None, None),
             (0.9668, 0.6003, None, None, None)),
}


@pytest.mark.parametrize("which", ["set1", "set3"])
def test_slope_sets_both_conditional_variances_in_closed_form(request, curve, which):
    """One step from U = 0 with the slope beta forced across [beta_c, beta_limit]
    and to the implicit slope beta_impl = nu omega_bar h / (1 + lam omega_bar h)
    where admissible.  The step draws X_hat from IG(alpha, (alpha / beta)^2),
    so Var(X_hat|U) = alpha beta^2, and moves V' along X_hat with slope
    nu omega_bar (1/beta - 1/beta_limit), so
    Var(V'|U) = (nu omega_bar)^2 alpha (1 - beta / beta_limit)^2.  Across the
    interval Var(X_hat) rises and Var(V') falls; at beta_c the first is
    above exact and the second below, so given the split beta_c is the best
    admissible slope for both.  At beta_impl the two ratios to exact keep
    their values."""
    params = request.getfixturevalue(which)
    nu_omega_bar = params.nu * params.omega_bar
    u_zero = np.zeros(params.n_states)
    for h, impl_over_limit, *want in zip(_TRADE_OFF_STEPS, *_IMPLICIT[which]):
        _, var_x, _, var_v = exact_variances(params, curve, params.t0, u_zero, params.t0 + h)
        pre = precompute_step(params, curve, params.t0, params.t0 + h)
        co = step_coefficients(PathState.initial(params, 1), pre, params)
        alpha, beta_c, beta_limit = co.alpha[0], co.beta_c[0], co.beta_limit[0]
        beta_impl = nu_omega_bar * h / (1.0 + params.lam * params.omega_bar * h)
        assert beta_impl / beta_limit == pytest.approx(impl_over_limit, abs=5e-4), h
        assert (beta_impl <= beta_limit) == (want[0] is not None), h
        slopes = np.linspace(beta_c, beta_limit, 5)
        if beta_impl <= beta_limit:
            slopes = np.append(slopes, beta_impl)
        variances = []
        for beta in slopes:
            _, x_hat, v_new = one_draw(params, pre, u_zero, params.v0, slope=beta)
            ig = sample_inverse_gaussian(_FixedDraws(np.ones(1), np.full(1, 0.5)),
                                         alpha, (alpha / beta) ** 2, size=1)
            assert x_hat[0] == alpha and x_hat[1] == ig[0], (h, beta)
            k = (v_new[1] - v_new[0]) / (x_hat[1] - x_hat[0])
            assert k == pytest.approx(nu_omega_bar * (1.0 / beta - 1.0 / beta_limit), rel=1e-9,
                                      abs=1e-9 * nu_omega_bar / beta), (h, beta)
            variances.append((alpha * beta**2 / var_x,
                              nu_omega_bar**2 * alpha * (1.0 - beta / beta_limit) ** 2 / var_v))
        ratio_x, ratio_v = np.array(variances[:5]).T
        assert np.all(np.diff(ratio_x) > 0.0) and np.all(np.diff(ratio_v) < 0.0), h
        assert ratio_x[0] > 1.0 > ratio_v[0], h
        if beta_impl <= beta_limit:
            assert variances[-1] == pytest.approx(want, rel=1e-3), h
