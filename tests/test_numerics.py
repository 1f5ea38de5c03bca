"""Step precomputation: drift matrix, phi1, kernel integrals, step moments."""

import numpy as np
import pytest
from scipy.integrate import quad_vec, solve_ivp
from scipy.linalg import expm

from liftedheston import (
    ModelParams,
    build_drift_matrix,
    e_matrix_integral,
    expected_integrated_variance,
    g0,
    g0_integral,
    phi1,
    precompute_step,
)


def random_params(rng, n_states=None):
    n = int(n_states if n_states is not None else rng.integers(1, 7))
    x = np.sort(rng.uniform(0.05, 8.0, size=n))
    x += 0.05 * np.arange(n)  # keep the speeds clearly distinct
    omega = rng.uniform(0.1, 2.0, size=n)
    return ModelParams(
        n,
        float(rng.uniform(0.0, 2.0)),
        float(rng.uniform(0.05, 0.5)),
        0.04,
        0.04,
        0.0,
        omega,
        x,
    )


def e_matrix_quad(params, a, h):
    ones = np.ones((params.n_states, 1))
    wrow = params.omega[None, :]

    def integrand(u):
        return expm(a * (h - u)) @ ones @ wrow @ expm(a * u)

    return quad_vec(integrand, 0.0, h, epsabs=1e-12)[0]


def forced_responses_ode(params, curve, s, t):
    """xi and psi over [s, t] by DOP853 on their defining ODEs

        dxi/du  = A xi - lam G0(s, u) 1_N,                  xi_s  = 0,
        dpsi/du = A psi + nu 1_N (omega . xi_u + G0(s, u)), psi_s = 0,

    with G0(s, u) the running integral of the initial curve."""
    a = build_drift_matrix(params)
    n = params.n_states
    ones = np.ones(n)

    def rhs(u, y):
        xi, psi = y[:n], y[n:]
        g_int = g0_integral(s, u, params, curve)
        return np.concatenate(
            (a @ xi - params.lam * g_int * ones, a @ psi + params.nu * (params.omega @ xi + g_int) * ones)
        )

    sol = solve_ivp(rhs, (s, t), np.zeros(2 * n), method="DOP853", rtol=1e-12, atol=1e-15)
    assert sol.success
    return sol.y[:n, -1], sol.y[n:, -1]


def test_drift_matrix_structure(set1):
    drift = build_drift_matrix(set1)
    expect = -np.diag(set1.x) - set1.lam * np.outer(np.ones(5), set1.omega)
    assert np.allclose(drift, expect, atol=1e-15)


def test_phi1_identity_random():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        a = rng.normal(size=(n, n))
        h = float(rng.uniform(0.05, 2.0))
        lhs = phi1(a, h) @ a
        rhs = expm(a * h) - np.eye(n)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_phi1_singular_matrix():
    # zero speed and zero mean reversion: A = 0, phi1 must be h * I
    a = np.zeros((3, 3))
    assert np.allclose(phi1(a, 0.7), 0.7 * np.eye(3), atol=1e-14)
    # block with one zero eigenvalue
    a = np.diag([0.0, -1.0])
    p = phi1(a, 0.5)
    assert p[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert p[1, 1] == pytest.approx((1.0 - np.exp(-0.5)) / 1.0, rel=1e-12)


def test_e_matrix_against_quadrature():
    rng = np.random.default_rng(77)
    for _ in range(6):
        p = random_params(rng)
        h = float(rng.uniform(0.1, 2.0))
        em = e_matrix_integral(p, h)
        ref = e_matrix_quad(p, build_drift_matrix(p), h)
        assert np.max(np.abs(em - ref)) < 1e-8, f"n={p.n_states} h={h}"


def test_e_matrix_heston_scalar():
    p = ModelParams(1, 2.0, 0.2, 0.04, 0.04, 0.0, np.array([1.0]), np.array([0.0]))
    h = 0.8
    em = e_matrix_integral(p, h)
    # A = -lam, integrand e^{-lam h}: closed form h e^{-lam h}
    assert em[0, 0] == pytest.approx(h * np.exp(-2.0 * h), rel=1e-12)


def test_e_matrix_repeated_eigenvalues():
    # equal speeds with lam = 0 give a genuinely degenerate spectrum
    p = ModelParams(2, 0.0, 0.3, 0.04, 0.04, 0.0, np.array([0.7, 0.5]), np.array([1.3, 1.3]))
    em = e_matrix_integral(p, 0.5)
    ref = e_matrix_quad(p, build_drift_matrix(p), 0.5)
    assert np.max(np.abs(em - ref)) < 1e-10


def test_chi_map_against_quadrature(curve):
    """Cross-check chi from the step exponential against direct quadrature
    of the defining integral nu int e^{A(h-u)} 1 omega^T phi1(A, u) du."""
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = random_params(rng)
        h = float(rng.uniform(0.1, 1.5))
        chi = precompute_step(p, curve, 0.0, h).chi
        a = build_drift_matrix(p)
        ones = np.ones((p.n_states, 1))
        wrow = p.omega[None, :]

        def chi_integrand(u):
            return expm(a * (h - u)) @ ones @ wrow @ phi1(a, u)

        ref = p.nu * quad_vec(chi_integrand, 0.0, h, epsabs=1e-12)[0]
        assert np.max(np.abs(chi - ref)) < 1e-8


def test_xi_psi_closed_forms_lam_zero(set3, curve):
    """With lam = 0 the factor means stay at zero, so xi vanishes and the
    driver cross moment has an explicit exponential form; the stiff Set 3
    speeds at a 2.15 step make this the regression test for stiff spectra."""
    h = 2.15
    x = set3.x
    pre = precompute_step(set3, curve, 0.0, h)
    assert np.max(np.abs(pre.xi)) == 0.0
    psi_exact = set3.nu * set3.v0 * (h / x - (1.0 - np.exp(-x * h)) / x**2)
    assert np.max(np.abs(pre.psi - psi_exact) / psi_exact) < 1e-8
    assert np.all(np.isfinite(pre.psi))


def test_xi_psi_against_ode_reference(set3, set1, curve):
    # stiff speeds over multi-year steps, from t0 and from an interior time
    for p, s, t in ((set3, 0.0, 2.15), (set1, 0.0, 5.0), (set1, 1.0, 3.15)):
        pre = precompute_step(p, curve, s, t)
        xi, psi = forced_responses_ode(p, curve, s, t)
        assert np.max(np.abs(pre.xi - xi)) < 1e-10
        assert np.max(np.abs(pre.psi - psi)) < 1e-10


def test_precompute_matrix_blocks_depend_on_dt_only(set1, curve):
    first = precompute_step(set1, curve, 0.0, 0.5)
    second = precompute_step(set1, curve, 0.5, 1.0)
    # phi1 and chi depend on the step only through its length
    assert np.array_equal(first.phi1, second.phi1)
    assert np.array_equal(first.chi, second.chi)
    # the curve-driven pieces are refreshed per step
    xi, psi = forced_responses_ode(set1, curve, 0.5, 1.0)
    assert np.max(np.abs(first.xi - second.xi)) > 1e-4
    assert np.max(np.abs(second.xi - xi)) < 1e-10
    assert np.max(np.abs(second.psi - psi)) < 1e-10
    assert second.g0_int == pytest.approx(g0_integral(0.5, 1.0, set1, curve), abs=1e-15)
    assert second.g0_next == pytest.approx(float(g0(1.0, set1, curve)), abs=1e-15)
    assert first.g0_int != pytest.approx(second.g0_int, abs=1e-12)
    assert first.g0_next != pytest.approx(second.g0_next, abs=1e-12)


@pytest.mark.parametrize("dt", [1.0 / 78.0, 0.5, 5.0])
def test_one_step_mean_matches_exact_mean(set1, set2, set3, curve, dt):
    """From U = 0 at t0 the step's mean integrated variance omega . xi + G0
    equals the independent exact mean over [t0, t0 + dt]."""
    deep = ModelParams.from_hurst(100, 0.05, lam=0.3, nu=0.3, v0=0.02, theta=0.1, rho=-0.7)
    for p in (set1, set2, set3, deep):
        pre = precompute_step(p, curve, p.t0, p.t0 + dt)
        mean = float(p.omega @ pre.xi) + pre.g0_int
        ref = expected_integrated_variance(p.t0 + dt, p, curve)
        assert abs(mean - ref) < 1e-12 * abs(ref), f"n={p.n_states} dt={dt}"


def test_precompute_rejects_empty_step(set1, curve):
    with pytest.raises(ValueError):
        precompute_step(set1, curve, 1.0, 1.0)
