"""The package's matrix exponential against scipy's, on exact cases, and
at overflow; the closed-form Gamma product of the kernel weights."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm
from scipy.special import gamma

from liftedheston import InitialCurve, ModelParams, hurst_parametrization, precompute_step
from liftedheston._expm import expm
from liftedheston.numerics import _generator
from liftedheston.params import _curve_ode

STEPS = (1e-4, 1.0 / 78.0, 1.0 / 13.0, 0.5, 2.15, 5.0, 40.0)


def _ladder():
    return ModelParams.from_hurst(100, 0.05, lam=0.3, nu=0.3, v0=0.02, theta=0.1, rho=-0.7)


@pytest.mark.parametrize("name", ["set1", "set2", "set3", "ladder"])
@pytest.mark.parametrize("curve", list(InitialCurve))
def test_expm_matches_scipy_on_step_generators(name, curve, request):
    params = _ladder() if name == "ladder" else request.getfixturevalue(name)
    _, c, d = _curve_ode(params, curve, params.t0)
    gen = _generator(params, c, d)
    for h in STEPS:
        want = scipy_expm(gen * h)
        got = expm(gen * h)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (name, h)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_expm_exact_cases(n):
    """Zero and nilpotent inputs come out exact; a diagonal one stays
    diagonal, its entries within about 20 ulps of exp."""
    assert np.array_equal(expm(np.zeros((n, n))), np.eye(n))
    diag = np.linspace(-3.0, 2.0, n)
    got = expm(np.diag(diag))
    assert np.array_equal(got, np.diag(np.diag(got)))
    assert np.allclose(np.diag(got), np.exp(diag), rtol=1e-14, atol=0.0)
    for x in (-3.0, -1.0, 0.5, 2.0, 7.0):
        assert expm(np.array([[x]]))[0, 0] == pytest.approx(math.exp(x), rel=1e-14, abs=0.0)
    assert np.array_equal(expm(np.array([[0.0, 1.0], [0.0, 0.0]])), [[1.0, 1.0], [0.0, 1.0]])


def test_expm_of_non_finite_or_overflowing_input_is_not_finite():
    cases = [[[np.inf, 1.0], [0.0, 0.0]], [[np.nan, 0.0], [0.0, 1.0]],
             [[1e300, 1.0], [0.0, 0.0]], [[0.0, 1e200], [1e200, 0.0]], [[800.0, 0.0], [1.0, 1.0]]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case in cases:
            assert not np.all(np.isfinite(expm(np.array(case)))), case


@pytest.mark.parametrize("extreme", [dict(nu=1e300), dict(v0=1e300, theta=1e300)])
def test_step_moments_overflow_is_one_value_error(extreme):
    model = dict(n_states=5, hurst=0.3, lam=0.25, nu=0.1, v0=0.02, theta=0.5, rho=0.7)
    params = ModelParams.from_hurst(**{**model, **extreme})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="step moments overflow: model values too large"):
            precompute_step(params, InitialCurve.LIFTED_DEFAULT, 0.0, 0.05)


def test_gamma_product_closed_form_matches_scipy_gamma():
    """Gamma(H + 1/2) Gamma(3/2 - H) = pi a / sin(pi a), a = 1/2 - H, to
    4 ulps; the kernel weights divide by it."""
    for hurst in np.linspace(0.001, 0.499, 499):
        a = 0.5 - hurst
        closed = math.pi * a / math.sin(math.pi * a)
        ref = gamma(hurst + 0.5) * gamma(1.5 - hurst)
        assert abs(closed - ref) <= 4 * np.spacing(ref), hurst
    for n, hurst in ((1, 0.1), (5, 0.3), (20, 0.1), (100, 0.05)):
        omega, _ = hurst_parametrization(n, hurst)
        r_n = 1.0 + 10.0 * n ** (-0.9)
        a = 0.5 - hurst
        ref = ((r_n**a - 1.0) * r_n ** (-a * (1.0 + n / 2.0))
               / (gamma(hurst + 0.5) * gamma(1.5 - hurst)) * r_n ** (a * np.arange(1, n + 1)))
        assert np.allclose(omega, ref, rtol=1e-15, atol=0.0)
