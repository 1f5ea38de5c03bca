"""Matrix exponential by scaling and squaring with Padé approximants.

The algorithm of Al-Mohy and Higham, "A new scaling and squaring
algorithm for the matrix exponential", SIAM J. Matrix Anal. Appl. 31(3),
2009: the Padé degree m and the scaling 2^-s come from the exact 1-norms
of the even powers A^4, A^6, A^8 and A^10, and s grows by the
backward-error bound's correction ell.  The diagonal Padé approximant
r_m = (V - U)^-1 (V + U) is formed as I + 2 (V - U)^-1 U, which keeps
about two more digits through the squarings than solving for V + U.
"""

from __future__ import annotations

import math

import numpy as np

# Padé numerator coefficients b_0..b_m and the largest theta_m with
# backward error below the unit roundoff (Al-Mohy and Higham, Table 3.1)
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068e0, 13: 5.371920351148152e0}


def _norm1(a: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(a), axis=0)))


def _ell(a: np.ndarray, m: int) -> float:
    """Extra squarings that keep the backward error of r_m(a) below 2^-53.

    ||abs(a)^(2m+1)||_1 is exact: the column sums of a nonnegative power
    come from 2m + 1 products of a row vector with abs(a).  Infinite when
    that power overflows.
    """
    norm = _norm1(a)
    if norm == 0.0:
        return 0.0
    abs_a, row = np.abs(a), np.ones(a.shape[0])
    for _ in range(2 * m + 1):
        row = row @ abs_a
    # |c_{2m+1}| = (m!)^2 / ((2m)! (2m+1)!), the leading coefficient of exp(-a) r_m(a) - I
    c = math.factorial(m) ** 2 / (math.factorial(2 * m) * math.factorial(2 * m + 1))
    alpha = c * float(np.max(row)) / norm
    if alpha == 0.0:
        return 0.0
    return max(float(np.ceil(np.log2(alpha / 2.0**-53) / (2 * m))), 0.0)


def _powers(a: np.ndarray) -> dict:
    """{1: a, 2: a^2, 4: a^4, 6: a^6}."""
    powers = {1: a, 2: a @ a}
    powers[4] = powers[2] @ powers[2]
    powers[6] = powers[4] @ powers[2]
    return powers


def _pade(powers: dict, m: int) -> np.ndarray:
    """r_m(A) as I + 2 (V - U)^-1 U, from the powers of A keyed by exponent."""
    b = _PADE[m]
    eye = np.eye(powers[1].shape[0])
    if m == 13:
        a2, a4, a6 = powers[2], powers[4], powers[6]
        u = (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    else:
        # the even powers up to A^(m - 1): A^8 only for m = 9
        even = [eye] + [powers[k] for k in range(2, m, 2)]
        u = sum(b[2 * j + 1] * p for j, p in enumerate(even))
        v = sum(b[2 * j] * p for j, p in enumerate(even))
    u = powers[1] @ u
    return eye + 2.0 * np.linalg.solve(v - u, u)


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a square float matrix.

    A non-finite input, or one whose powers or scaling overflow, gives a
    matrix of NaN rather than an error; an exponential that overflows
    comes out with inf or NaN entries.  Callers check with ``np.isfinite``.
    """
    a = np.asarray(a, dtype=float)
    nan = np.full_like(a, np.nan)
    with np.errstate(all="ignore"):
        powers = _powers(a)
        d4, d6 = _norm1(powers[4]) ** 0.25, _norm1(powers[6]) ** (1 / 6)
        if not (math.isfinite(d4) and math.isfinite(d6)):
            return nan
        eta = max(d4, d6)
        for m in (3, 5):
            if eta <= _THETA[m] and _ell(a, m) == 0:
                return _pade(powers, m)
        powers[8] = powers[4] @ powers[4]
        d8 = _norm1(powers[8]) ** 0.125
        if not math.isfinite(d8):
            return nan
        eta = max(d6, d8)
        for m in (7, 9):
            if eta <= _THETA[m] and _ell(a, m) == 0:
                return _pade(powers, m)
        # min(eta, max(d8, d10)), with a non-finite d10 leaving eta as it is
        d10 = _norm1(powers[4] @ powers[6]) ** 0.1
        if d10 < eta:
            eta = max(d8, d10)
        s = max(math.ceil(math.log2(eta / _THETA[13])), 0) if eta > 0 else 0
        s += _ell(np.ldexp(a, -s), 13)
        if not math.isfinite(s):
            return nan
        s = int(s)
        # scaling by a power of two is exact, so the powers need not be recomputed
        out = _pade({k: np.ldexp(powers[k], -k * s) for k in (1, 2, 4, 6)}, 13)
        for _ in range(s):
            out = out @ out
    return out
