"""Conditional moments of integrated variance over one scheme step.

Stacking the factor vector U, the model's conditional means obey a linear
ODE with drift matrix

    A = -lam * 1_N omega^T - diag(x)

(1_N the all-ones column, omega^T the weight row).  Over a step [s, t]
with h = t - s, the moments a scheme step needs are the values at u = h
of the linear system

    kappa' = A kappa + nu 1_N (omega . a + G0),     kappa(0) = 0,
    a'     = m,                                     a(0)     = 0,
    m'     = A m - lam g0 1_N,                      m(0)     = U_s,
    G0'    = g0,                                    G0(0)    = 0,

where m is the conditional mean of the factors, a its running integral,
G0 the running integral of the initial curve g0 and kappa the per-factor
mean of X_{s,u} = int_s^u V against Z_{s,u} = int_s^u sqrt(V) dW2.  The
curve itself is appended as an autonomous state y with y' = 1 - d * y
(d a vector of decay rates) and g0 = V0 + c . y, so the whole system is
one constant generator G acting on [kappa, a, m, G0, y, 1] and its
solution is exp(G h) (Van Loan, IEEE TAC 23(3), 1978).  Read off, with
z0 = [0, 0, 0, 0, y(s), 1],

    phi1 = exp(G h)[a, m]       = int_0^h exp(A u) du,
    chi  = exp(G h)[kappa, m],
    xi   = exp(G h)[a, :] z0,   psi = exp(G h)[kappa, :] z0,

so that E_s[X_{s,t}] = omega . (phi1 U_s + xi) + G0(s, t), the per-factor
means are phi1 U_s + xi and E_s[X_{s,t} Z_{s,t}] = omega . (chi U_s + psi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._expm import expm
from .params import InitialCurve, ModelParams, _curve_ode, g0, g0_integral

__all__ = [
    "StepPrecompute",
    "build_drift_matrix",
    "phi1",
    "e_matrix_integral",
    "precompute_step",
]


# the largest step moment whose square is finite
_MAX_MOMENT = np.sqrt(np.finfo(float).max)


def build_drift_matrix(params: ModelParams) -> np.ndarray:
    """Drift matrix A = -lam 1_N omega^T - diag(x)."""
    n = params.n_states
    return -params.lam * np.outer(np.ones(n), params.omega) - np.diag(params.x)


def _van_loan(p: np.ndarray, q: np.ndarray, r: np.ndarray, h: float) -> np.ndarray:
    """int_0^h exp(P (h-w)) Q exp(R w) dw, the top-right block of exp([[P, Q], [0, R]] h)."""
    if h < 0:
        raise ValueError("h must be >= 0")
    n = p.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n], aug[:n, n:], aug[n:, n:] = p, q, r
    return expm(aug * h)[:n, n:]


def phi1(a: np.ndarray, h: float) -> np.ndarray:
    """First phi-function int_0^h exp(A u) du.

    Well defined for singular A; satisfies phi1(A, h) A = exp(A h) - I.
    """
    a = np.asarray(a, dtype=float)
    return _van_loan(a, np.eye(a.shape[0]), np.zeros_like(a), h)


def e_matrix_integral(params: ModelParams, h: float) -> np.ndarray:
    """Kernel-product integral J(h) = int_0^h exp(A (h-w)) 1_N omega^T exp(A w) dw."""
    a = build_drift_matrix(params)
    return _van_loan(a, np.outer(np.ones(params.n_states), params.omega), a, h)


def _generator(params: ModelParams, c: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """Generator of [kappa, a, m, G0, y, 1] for g0 = v0 + c . y with y' = 1 - decay * y."""
    n, k = params.n_states, c.size
    a = build_drift_matrix(params)
    ones = np.ones(n)
    kap, ai, mi, gi = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n), 3 * n
    yi, one = slice(3 * n + 1, 3 * n + 1 + k), 3 * n + 1 + k
    gen = np.zeros((one + 1, one + 1))
    gen[kap, kap] = a
    gen[kap, ai] = params.nu * np.outer(ones, params.omega)
    gen[kap, gi] = params.nu
    gen[ai, mi] = np.eye(n)
    gen[mi, mi] = a
    gen[mi, yi] = -params.lam * np.outer(ones, c)
    gen[mi, one] = -params.lam * params.v0
    gen[gi, yi] = c
    gen[gi, one] = params.v0
    gen[yi, yi] = -np.diag(decay)
    gen[yi, one] = 1.0
    return gen


def _step_moments(params: ModelParams, curve: InitialCurve, s: float, t: float):
    """(phi1, chi, xi, psi) over [s, t] from the exponential of the step generator.

    The curve state and its coefficients come from ``params._curve_ode``.
    Raises ValueError when an entry of the exponential is not finite or
    its square overflows, as for extreme model values: the scheme squares
    ratios of these moments (the inverse Gaussian shape), so such a step
    could not be sampled.
    """
    n = params.n_states
    y_s, c, d = _curve_ode(params, curve, s)
    expo = expm(_generator(params, c, d) * (t - s))
    if not np.all(np.abs(expo) < _MAX_MOMENT):
        raise ValueError("step moments overflow: model values too large")
    z0 = np.concatenate((y_s, [1.0]))
    forced = expo[: 2 * n, 3 * n + 1 :] @ z0
    return expo[n : 2 * n, 2 * n : 3 * n], expo[:n, 2 * n : 3 * n], forced[n:], forced[:n]


@dataclass(frozen=True)
class StepPrecompute:
    """State-independent quantities for one scheme step [t_i, t_{i+1}].

    All paths share these; only the affine maps applied to each path's
    state differ.  ``chi`` already carries the nu factor.
    """

    t_start: float
    t_end: float
    dt: float
    phi1: np.ndarray
    chi: np.ndarray
    xi: np.ndarray
    psi: np.ndarray
    g0_int: float
    g0_next: float


def precompute_step(params: ModelParams, curve: InitialCurve, t_i: float, t_ip1: float) -> StepPrecompute:
    """Bundle every state-independent quantity of one step."""
    if t_ip1 <= t_i:
        raise ValueError("need t_i < t_ip1")
    return StepPrecompute(
        t_i,
        t_ip1,
        t_ip1 - t_i,
        *_step_moments(params, curve, t_i, t_ip1),
        g0_integral(t_i, t_ip1, params, curve),
        float(g0(t_ip1, params, curve)),
    )
