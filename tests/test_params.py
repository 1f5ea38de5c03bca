"""Parameter layer: weight/speed construction, curves, moment oracles."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from liftedheston import (
    InitialCurve,
    ModelParams,
    PathState,
    RngStream,
    expected_integrated_variance,
    expected_variance_curve,
    g0,
    g0_derivative,
    g0_integral,
    heston_mean_integrated_variance,
    heston_mean_variance,
    hurst_parametrization,
    precompute_step,
    simulate_euler,
    step_coefficients,
)


def heston_collapse(lam=2.0, theta=0.04, v0=0.09, nu=0.2, rho=-0.3):
    """Single factor with zero speed: the classical model as a special case."""
    return ModelParams(1, lam, nu, v0, theta, rho, np.array([1.0]), np.array([0.0]))


def test_hurst_parametrization_shapes_and_signs():
    for n_states, hurst in [(1, 0.1), (5, 0.3), (10, 0.1), (20, 0.3), (20, 0.49)]:
        omega, x = hurst_parametrization(n_states, hurst)
        assert omega.shape == (n_states,) and x.shape == (n_states,)
        assert np.all(omega > 0)
        assert np.all(x > 0)
        assert np.all(np.diff(x) > 0), "speeds must be strictly increasing"


def test_hurst_parametrization_reference_weight_sum():
    omega, _ = hurst_parametrization(5, 0.3)
    assert np.sum(omega) == pytest.approx(1.2008612068447684, abs=1e-13)


def test_hurst_parametrization_rejects_bad_inputs():
    with pytest.raises(ValueError):
        hurst_parametrization(0, 0.3)
    for bad in (0.0, 0.5, -0.1, 0.7):
        with pytest.raises(ValueError):
            hurst_parametrization(5, bad)


def test_kernel_mass_scaling_equals_lam_nu_scaling(curve):
    """Scaling the weights omega by c is the same model as scaling lam and
    nu by c: the factors map as U -> c U, so V, X and the projection
    coefficients agree.  Raising H lowers omega_bar, so given positive lam
    and nu sensitivities this fixes the sign of the kernel-mass part of
    the H sensitivity, and nothing more."""
    omega, x = hurst_parametrization(5, 0.3)
    c = float(np.sum(hurst_parametrization(5, 0.301)[0]) / np.sum(omega))
    assert c < 1.0
    lam, nu, v0, theta, rho = 0.25, 0.1, 0.02, 0.5, 0.7
    by_mass = ModelParams(5, lam, nu, v0, theta, rho, c * omega, x)
    by_lam_nu = ModelParams(5, c * lam, c * nu, v0, theta, rho, omega, x)

    grid = np.linspace(0.0, 0.5, 51)
    a = simulate_euler(by_mass, curve, grid, 4000, RngStream(91, stream_id=4))
    b = simulate_euler(by_lam_nu, curve, grid, 4000, RngStream(91, stream_id=4))
    assert np.allclose(a.x, b.x, rtol=1e-13, atol=0.0)
    assert np.allclose(a.v, b.v, rtol=1e-13, atol=0.0)

    coeffs = []
    for params in (by_mass, by_lam_nu):
        pre = precompute_step(params, curve, 0.0, 0.5)
        coeffs.append(step_coefficients(PathState.initial(params, 1), pre, params))
    assert coeffs[0].alpha[0] == pytest.approx(coeffs[1].alpha[0], rel=1e-12)
    assert coeffs[0].beta[0] == pytest.approx(coeffs[1].beta[0], rel=1e-12)



def _moments_of_x(params, curve, t_end):
    """E[X] and E[X^2] of the integrated variance over [t0, t_end].

    The model is a polynomial process, so the first and second moments of
    (U, X) solve a closed linear system; with V = g0 + omega . U,

        d E[U_i]/dt     = -x_i E[U_i] - lam E[V]
        d E[U_i U_j]/dt = -(x_i + x_j) E[U_i U_j]
                          - lam (E[U_i V] + E[U_j V]) + nu^2 E[V]
        d E[U_i X]/dt   = E[U_i V] - x_i E[U_i X] - lam E[X V]
        d E[X^2]/dt     = 2 E[X V]

    from zero.  No path, random number or time step enters.
    """
    n, omega, x = params.n_states, params.omega, params.x
    lam, nu = params.lam, params.nu

    def rhs(t, y):
        m, mean_x = y[:n], y[n]
        uu = y[n + 1 : n + 1 + n * n].reshape(n, n)
        ux = y[n + 1 + n * n : -1]
        g = float(g0(t, params, curve))
        ev = g + omega @ m
        euv = g * m + uu @ omega
        exv = g * mean_x + omega @ ux
        d_uu = -(x[:, None] + x[None, :]) * uu - lam * (euv[:, None] + euv[None, :]) + nu**2 * ev
        return np.concatenate(
            (-x * m - lam * ev, [ev], d_uu.ravel(), euv - x * ux - lam * exv, [2.0 * exv])
        )

    y0 = np.zeros(n * n + 2 * n + 2)
    sol = solve_ivp(rhs, (params.t0, t_end), y0, method="DOP853", rtol=1e-12, atol=1e-18)
    assert sol.success
    return sol.y[n, -1], sol.y[-1, -1]


def test_roughness_sensitivity_splits_into_mass_and_shape(set1, curve):
    """The H sensitivity of the criterion 09 residual second moment
    E[X^2] - (alpha beta^2 + alpha^2) over [0, 0.5], with E[X^2] from the
    exact moment equations instead of an Euler run.  Raising H lowers
    omega_bar and reshapes the kernel; the mass part (omega scaled by the
    change in omega_bar) is negative, the shape part at fixed omega_bar is
    positive, and the total is negative."""

    def residual(params):
        mean_x, second_x = _moments_of_x(params, curve, 0.5)
        pre = precompute_step(params, curve, 0.0, 0.5)
        coeffs = step_coefficients(PathState.initial(params, 1), pre, params)
        alpha, beta = float(coeffs.alpha[0]), float(coeffs.beta[0])
        assert alpha == pytest.approx(mean_x, rel=1e-9)
        return second_x - (alpha * beta**2 + alpha**2)

    dh = 1e-3
    bumped = ModelParams.from_hurst(5, 0.3 + dh, lam=0.25, nu=0.1, v0=0.02, theta=0.5, rho=0.7)
    c = bumped.omega_bar / set1.omega_bar
    base = residual(set1)
    total = (residual(bumped) - base) / dh
    mass = (residual(dataclasses.replace(set1, omega=c * set1.omega)) - base) / dh
    shape = (residual(dataclasses.replace(set1, omega=bumped.omega / c, x=bumped.x)) - base) / dh
    assert mass < 0.0 < shape
    assert total < 0.0
    assert total == pytest.approx(mass + shape, rel=1e-2)

def test_model_params_validation():
    ok = heston_collapse()
    assert ok.omega_bar == 1.0
    with pytest.raises(ValueError):
        ModelParams(0, 1.0, 0.2, 0.04, 0.04, 0.0, np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        ModelParams(2, 1.0, 0.2, 0.04, 0.04, 0.0, np.array([1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        ModelParams(1, -0.1, 0.2, 0.04, 0.04, 0.0, np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        ModelParams(1, 1.0, 0.0, 0.04, 0.04, 0.0, np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        ModelParams(1, 1.0, 0.2, -0.04, 0.04, 0.0, np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        ModelParams(1, 1.0, 0.2, 0.04, 0.04, 1.5, np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        ModelParams(1, 1.0, 0.2, 0.04, 0.04, 0.0, np.array([0.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        ModelParams(1, 1.0, 0.2, 0.04, 0.04, 0.0, np.array([1.0]), np.array([-1.0]))
    with pytest.raises(ValueError):
        ModelParams(1, 1.0, 0.2, 0.04, 0.04, 0.0, np.array([1.0]), np.array([0.0]), s0=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["lam", "nu", "v0", "theta", "rho", "s0", "rate", "t0",
                                  "omega", "x"])
def test_model_params_rejects_non_finite_values(name, bad):
    # NaN compares False against every bound, so only a finiteness check stops it
    fields = dict(n_states=2, lam=1.0, nu=0.2, v0=0.04, theta=0.04, rho=0.0,
                  omega=np.array([0.5, 1.0]), x=np.array([0.0, 2.0]),
                  s0=100.0, rate=0.0, t0=0.0)
    ModelParams(**fields)
    if name in ("omega", "x"):
        fields[name] = np.array([fields[name][0], bad])
    else:
        fields[name] = bad
    with pytest.raises(ValueError, match="must be finite"):
        ModelParams(**fields)


def test_lam_zero_is_admitted(set3):
    assert set3.lam == 0.0


def test_default_curve_starts_at_v0(set1, set2, set3, curve):
    for p in (set1, set2, set3):
        assert g0(p.t0, p, curve) == pytest.approx(p.v0, abs=1e-14)


def test_heston_linear_curve_values():
    p = heston_collapse(lam=2.0, theta=0.04, v0=0.09)
    c = InitialCurve.heston_linear()
    ts = np.linspace(0.0, 3.0, 7)
    assert np.allclose(g0(ts, p, c), 0.09 + 2.0 * 0.04 * ts, atol=1e-14)
    assert g0_derivative(1.3, p, c) == pytest.approx(2.0 * 0.04, abs=1e-12)


def test_lam_zero_default_curve_is_flat(set3, curve):
    ts = np.linspace(0.0, 5.0, 11)
    assert np.allclose(g0(ts, set3, curve), set3.v0, atol=1e-14)


def test_g0_integral_matches_quadrature(set1, set2, curve):
    rng = np.random.default_rng(314)
    for p in (set1, set2):
        for _ in range(5):
            s = float(rng.uniform(0.0, 3.0))
            t = s + float(rng.uniform(0.01, 2.0))
            ref = quad(lambda u: float(g0(u, p, curve)), s, t, epsabs=1e-12)[0]
            assert g0_integral(s, t, p, curve) == pytest.approx(ref, abs=1e-9)


def test_custom_curve_interpolation_and_range_check():
    p = heston_collapse(v0=0.05)
    c = InitialCurve.custom([0.0, 1.0, 2.0], [0.05, 0.07, 0.06])
    assert g0(0.5, p, c) == pytest.approx(0.06, abs=1e-14)
    assert g0_integral(0.0, 2.0, p, c) == pytest.approx(0.125, abs=1e-12)
    with pytest.raises(ValueError):
        g0(2.5, p, c)
    with pytest.raises(ValueError):
        InitialCurve.custom([0.0, 0.0], [0.05, 0.05])


def test_expected_variance_collapses_to_heston_closed_form():
    p = heston_collapse(lam=2.0, theta=0.04, v0=0.09)
    c = InitialCurve.heston_linear()
    ts = np.linspace(0.0, 2.0, 9)
    ev = expected_variance_curve(ts, p, c)
    ref = np.array([heston_mean_variance(t, 2.0, 0.04, 0.09) for t in ts])
    assert np.max(np.abs(ev - ref)) < 1e-7


def test_expected_integrated_variance_collapses_to_heston_closed_form():
    p = heston_collapse(lam=2.0, theta=0.04, v0=0.09)
    c = InitialCurve.heston_linear()
    for t in (0.5, 1.0, 5.0):
        ref = heston_mean_integrated_variance(t, 2.0, 0.04, 0.09)
        assert expected_integrated_variance(t, p, c) == pytest.approx(ref, rel=1e-7)


def test_expected_variance_lam_zero_is_constant(set3, curve):
    ts = np.linspace(0.0, 5.0, 6)
    ev = expected_variance_curve(ts, set3, curve)
    assert np.allclose(ev, set3.v0, atol=1e-10)
    assert expected_integrated_variance(5.0, set3, curve) == pytest.approx(
        5.0 * set3.v0, rel=1e-8
    )


def test_expected_variance_approaches_stationary_level(set1, set2, curve):
    """The mean variance settles toward the balance point of the kernel drift.

    The limit solves L = v0 + lam*theta*K - lam*L*K with K the integral
    of the kernel, i.e. L = (v0 + lam*theta*K) / (1 + lam*K).
    """
    for p in (set1, set2):
        k_hat = float(np.sum(p.omega / p.x))
        limit = (p.v0 + p.lam * p.theta * k_hat) / (1.0 + p.lam * k_hat)
        ts = np.linspace(10.0, 40.0, 7)
        gaps = np.abs(expected_variance_curve(ts, p, curve) - limit)
        assert np.all(np.diff(gaps) < 0), f"gaps not decreasing: {gaps}"


def test_heston_mean_variance_lam_zero_limit():
    assert heston_mean_variance(2.0, 0.0, 0.5, 0.09) == pytest.approx(0.09, abs=1e-14)
    assert heston_mean_integrated_variance(2.0, 0.0, 0.5, 0.09) == pytest.approx(
        0.18, abs=1e-14
    )
    # continuity in lam at 0
    near = heston_mean_integrated_variance(2.0, 1e-9, 0.5, 0.09)
    assert near == pytest.approx(0.18, rel=1e-6)
